/**
 * @file
 * CLK ISR-retirement trains in the software member
 * (firmware::FirmwareNode): a steady CLK rides them, the
 * ceiling-probe regimes (ISR jitter, merged missed edges) keep every
 * retirement discrete, and tearing a node or a whole mixed ring down
 * mid-train cancels the node's train.
 */

#include <gtest/gtest.h>

#include <memory>

#include "backend/mbus_backend.hh"
#include "firmware/firmware_node.hh"
#include "sim/simulator.hh"
#include "wire/net.hh"

using namespace mbus;

namespace {

constexpr int kEdges = 200;
constexpr sim::SimTime kHalfPeriod = 25 * sim::kMicrosecond; // 20 kHz

/**
 * A software member alone on four nets, its CLKIN toggled on a
 * steady beat by discrete events. The nets never batch edges, so
 * every kernel train here is one of the node's ISR trains.
 */
struct BareMember
{
    BareMember(sim::Simulator &sim, firmware::FirmwareNode::Config cfg)
        : clkIn(sim, "clk_in", 10 * sim::kNanosecond),
          clkOut(sim, "clk_out", 10 * sim::kNanosecond),
          dataIn(sim, "data_in", 10 * sim::kNanosecond),
          dataOut(sim, "data_out", 10 * sim::kNanosecond),
          node(std::make_unique<firmware::FirmwareNode>(
              sim, cfg, clkIn, clkOut, dataIn, dataOut))
    {
        for (int i = 0; i < kEdges; ++i)
            sim.schedule(kHalfPeriod * (i + 1),
                         [this, i] { clkIn.drive(i % 2 != 0); });
    }

    wire::Net clkIn, clkOut, dataIn, dataOut;
    std::unique_ptr<firmware::FirmwareNode> node;
};

firmware::FirmwareNode::Config
memberConfig()
{
    firmware::FirmwareNode::Config cfg;
    cfg.shortPrefix = 3;
    return cfg;
}

} // namespace

TEST(FirmwareTrain, OnlySteadyDiscreteIsrsRideTrains)
{
    // A steady CLK rides ISR trains; both ceiling-probe regimes (ISR
    // jitter, merged missed edges) retire every CLK edge on its own
    // kernel event, even with a train length configured.
    firmware::FirmwareNode::Config jitter = memberConfig();
    jitter.isrJitterCycles = 8;
    firmware::FirmwareNode::Config merge = memberConfig();
    merge.mergeMissedEdges = true;
    for (const auto &cfg : {memberConfig(), jitter, merge}) {
        ASSERT_NE(cfg.isrTrainMaxEdges, 0u);
        sim::Simulator simulator;
        BareMember m(simulator, cfg);
        simulator.run();
        const bool steady = !cfg.isrJitterCycles && !cfg.mergeMissedEdges;
        EXPECT_EQ(simulator.queue().trainsScheduled() > 0, steady);
        const firmware::FirmwareStats &st = m.node->stats();
        EXPECT_EQ(st.isrInvocations + st.mergedEdges,
                  static_cast<std::uint64_t>(kEdges));
    }
}

TEST(FirmwareTrain, DestroyingANodeMidTrainRefundsItsEdges)
{
    sim::Simulator simulator;
    BareMember m(simulator, memberConfig());
    simulator.run(kHalfPeriod * (kEdges / 2));
    ASSERT_TRUE(m.node->isrTrainPending());
    ASSERT_GT(simulator.queue().pendingTrainEdges(), 0u);
    m.node.reset();
    EXPECT_EQ(simulator.queue().pendingTrainEdges(), 0u);
}

TEST(FirmwareTrain, DestroyingABackendMidTrainCancelsIt)
{
    // Tear the mixed ring down while the software member rides an ISR
    // train through a long message (the sanitizer job runs this).
    // Its train and the nets' trains are refunded; the mediator's
    // clock trains stay queued but are never run.
    sim::Simulator simulator;
    backend::BusParams p;
    p.busClockHz = 20e3;
    auto ring = std::make_unique<backend::MbusBackend>(
        simulator, p, backend::BackendKind::Bitbang);
    bus::Message msg;
    msg.dest = ring->unicastAddress(ring->softIndex(), false, 0);
    msg.payload.assign(64, 0x3C);
    ring->send(0, msg, nullptr);
    firmware::FirmwareNode &member = *ring->softMember();
    // 12 ms in, the member is a third of the way through the message.
    simulator.run(12 * sim::kMillisecond);
    ASSERT_GT(member.stats().isrInvocations, 400u);
    ASSERT_TRUE(member.isrTrainPending());
    const std::uint64_t before = simulator.queue().pendingTrainEdges();
    ring.reset();
    EXPECT_LT(simulator.queue().pendingTrainEdges(), before);
}
