/**
 * @file
 * Parallel MBus tests (Sec 7, Fig 15): payload striping across 2-4
 * DATA lanes, correctness, and the expected cycle-count reduction.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "analysis/goodput.hh"
#include "mbus/system.hh"
#include "tests/mbus/testutil.hh"

using namespace mbus;
using namespace mbus::test;

namespace {

struct LaneCase
{
    int lanes;
    std::size_t payloadBytes;
};

/** Stable parameter text for test names (gtest otherwise prints the
 *  struct's raw bytes, padding included). */
void
PrintTo(const LaneCase &c, std::ostream *os)
{
    *os << "lanes=" << c.lanes << " bytes=" << c.payloadBytes;
}

class ParallelMbus : public ::testing::TestWithParam<LaneCase>
{
};

} // namespace

TEST_P(ParallelMbus, DeliversAcrossLanes)
{
    const LaneCase param = GetParam();
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.dataLanes = param.lanes;
    bus::MBusSystem system(simulator, cfg);
    buildRing(system, 3);

    sim::Random rng(0xBEEF + param.lanes);
    std::vector<std::uint8_t> payload =
        randomPayload(rng, param.payloadBytes);

    std::vector<std::uint8_t> seen;
    system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = payload;
    auto result = system.sendAndWait(1, msg, sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    system.runUntilIdle(50 * sim::kMillisecond);
    EXPECT_EQ(seen, payload);
}

INSTANTIATE_TEST_SUITE_P(
    LaneSweep, ParallelMbus,
    ::testing::Values(LaneCase{1, 17}, LaneCase{2, 1}, LaneCase{2, 16},
                      LaneCase{2, 17}, LaneCase{3, 5}, LaneCase{3, 24},
                      LaneCase{4, 3}, LaneCase{4, 64}, LaneCase{4, 180}),
    [](const ::testing::TestParamInfo<LaneCase> &info) {
        return "lanes" + std::to_string(info.param.lanes) + "_bytes" +
               std::to_string(info.param.payloadBytes);
    });

TEST(Parallel, FourLanesQuarterTheDataCycles)
{
    // Wall-clock comparison: the same 64-byte message on 1 vs 4
    // lanes. Protocol overhead is identical; data cycles shrink by
    // the lane count (Fig 15's mechanism).
    auto measure = [](int lanes) {
        sim::Simulator simulator;
        bus::SystemConfig cfg;
        cfg.dataLanes = lanes;
        bus::MBusSystem system(simulator, cfg);
        buildRing(system, 3);
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload.assign(64, 0xA5);
        sim::SimTime start = simulator.now();
        auto r = system.sendAndWait(1, msg, sim::kSecond);
        EXPECT_TRUE(r.has_value() &&
                    r->status == bus::TxStatus::Ack);
        system.runUntilIdle(50 * sim::kMillisecond);
        return simulator.now() - start;
    };

    double t1 = static_cast<double>(measure(1));
    double t4 = static_cast<double>(measure(4));

    // Modelled durations: fixed ~11 cycles of overhead+wakeup plus
    // data cycles 512 vs 128. Ratio approximately (19+512)/(19+128).
    double expected = (19.0 + 512.0) / (19.0 + 128.0);
    EXPECT_NEAR(t1 / t4, expected, expected * 0.15);
}

TEST(Parallel, GoodputMatchesAnalyticModel)
{
    // Simulated goodput for back-to-back 32-byte messages on 2 lanes
    // lands near the Fig 15 closed form.
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.dataLanes = 2;
    bus::MBusSystem system(simulator, cfg);
    buildRing(system, 3);

    const int kMessages = 20;
    const std::size_t kBytes = 32;
    int done = 0;
    std::function<void()> send_next = [&] {
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload.assign(kBytes, 0x77);
        system.node(1).send(msg, [&](const bus::TxResult &) {
            if (++done < kMessages)
                send_next();
            else
                simulator.stop();
        });
    };
    sim::SimTime start = simulator.now();
    send_next();
    simulator.run(10 * sim::kSecond);
    ASSERT_EQ(done, kMessages);
    double elapsed_s = sim::toSeconds(simulator.now() - start);
    double goodput = 8.0 * kBytes * kMessages / elapsed_s;

    double model = analysis::parallelGoodputBps(
        system.config().busClockHz, kBytes, 2);
    // The simulator adds per-transaction wakeup/idle cycles, so it
    // comes in somewhat below the ideal closed form.
    EXPECT_GT(goodput, model * 0.70);
    EXPECT_LT(goodput, model * 1.05);
}
