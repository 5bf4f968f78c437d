/**
 * @file
 * Negative and stress tests for the software member: frequency
 * envelopes (a software member cannot keep up beyond its ISR budget)
 * and sustained mixed-ring traffic.
 */

#include <gtest/gtest.h>

#include "backend/mbus_backend.hh"
#include "sim/simulator.hh"

using namespace mbus;
using namespace mbus::bitbang;

namespace {

/** The mixed ring's clock envelope for a member with cost @p c: the
 *  half period must cover the hop floor plus a 2.5x worst-path ISR
 *  budget (how MBusSystem sizes a 3-node mixed ring at 10 ns hops). */
double
ringEnvelopeHz(const Msp430CostModel &c)
{
    const double budget = 2.0 * sim::toSeconds(c.responseLatency()) +
                          sim::toSeconds(c.responseLatency() / 2);
    return 1.0 / (2.0 * (5.0 * 10e-9 + budget));
}

} // namespace

TEST(BitbangLimits, FasterCpuSupportsFasterBus)
{
    // A 32 MHz core quarters the ISR response time and so roughly
    // quadruples the envelope: 60 kHz fits it with the backend's
    // headroom, but not an 8 MHz member's.
    Msp430CostModel slow;
    Msp430CostModel fast;
    fast.cpuHz = 32e6;
    EXPECT_NEAR(fast.maxBusClockHzPaper(), 4 * slow.maxBusClockHzPaper(),
                1.0);
    EXPECT_GT(0.8 * ringEnvelopeHz(fast), 60e3);
    EXPECT_LT(ringEnvelopeHz(slow), 60e3);

    // The 8 MHz backend clamps a 60 kHz request into its envelope.
    sim::Simulator simulator;
    backend::BusParams p;
    p.busClockHz = 60e3;
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Bitbang);
    EXPECT_DOUBLE_EQ(ring.maxSafeClockHz(), ringEnvelopeHz(slow));
    EXPECT_LT(ring.busClockHz(), 60e3);
}

TEST(BitbangLimits, SustainedBidirectionalTraffic)
{
    sim::Simulator simulator;
    backend::BusParams p;
    p.busClockHz = 20e3;
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Bitbang);
    const std::size_t soft = ring.softIndex();

    int sw_rx = 0, hw_rx = 0;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &) {
            if (n == soft)
                ++sw_rx;
            if (n == 1)
                ++hw_rx;
        });

    const int kRounds = 5;
    int completions = 0;
    for (int i = 0; i < kRounds; ++i) {
        bus::Message down;
        down.dest = ring.unicastAddress(soft, false, 0);
        down.payload = {static_cast<std::uint8_t>(i)};
        ring.send(0, down, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            ++completions;
            simulator.stop();
        });
        simulator.run(sim::kSecond);

        bus::Message up;
        up.dest = ring.unicastAddress(1, false, bus::kFuMailbox);
        up.payload = {static_cast<std::uint8_t>(0x80 + i), 0xFF};
        ring.send(soft, up, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            ++completions;
            simulator.stop();
        });
        simulator.run(2 * sim::kSecond);
    }
    EXPECT_TRUE(ring.runUntilIdle(200 * sim::kMillisecond));

    EXPECT_EQ(completions, 2 * kRounds);
    EXPECT_EQ(sw_rx, kRounds);
    EXPECT_EQ(hw_rx, kRounds);
    // The ISR accounting never exceeded the modelled worst case.
    EXPECT_LE(ring.softMember()->maxObservedPathCycles(),
              Msp430CostModel().worstPathCycles());
}

TEST(BitbangLimits, CpuSerializationIsAccounted)
{
    sim::Simulator simulator;
    backend::BusParams p;
    p.busClockHz = 20e3;
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Bitbang);

    bus::Message msg;
    msg.dest = ring.unicastAddress(1, false, bus::kFuMailbox);
    msg.payload.assign(16, 0xA5);
    ring.send(ring.softIndex(), msg,
              [&](const bus::TxResult &) { simulator.stop(); });
    simulator.run(2 * sim::kSecond);

    const auto &st = ring.softMember()->stats();
    EXPECT_GT(st.isrInvocations, 100u); // Every edge cost an ISR.
    // CPU-seconds spent must equal cycles / f: sanity of accounting.
    double cpu_s = static_cast<double>(st.cyclesSpent) /
                   Msp430CostModel().cpuHz;
    EXPECT_GT(cpu_s, 0.0);
    EXPECT_LT(cpu_s, sim::toSeconds(simulator.now()));
}
