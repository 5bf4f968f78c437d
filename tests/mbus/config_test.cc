/**
 * @file
 * System configuration tests: the run-time tunable clock (Sec 6.3.2:
 * "10 kHz to up to 6.67 MHz"), the configuration broadcast channel,
 * frequency safety limits, and the system-builder guard rails.
 */

#include <gtest/gtest.h>

#include "mbus/system.hh"
#include "tests/mbus/testutil.hh"

using namespace mbus;
using namespace mbus::test;

TEST(Config, RuntimeTunableClockRange)
{
    // The paper's implementation tunes 10 kHz .. 6.67 MHz; verify
    // end-to-end delivery at the extremes our ring supports.
    for (double hz : {10e3, 100e3, 400e3, 3e6}) {
        sim::Simulator simulator;
        bus::SystemConfig cfg;
        cfg.busClockHz = hz;
        bus::MBusSystem system(simulator, cfg);
        buildRing(system, 3);

        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload = {0x5A};
        auto r = system.sendAndWait(1, msg, 10 * sim::kSecond);
        ASSERT_TRUE(r.has_value()) << hz;
        EXPECT_EQ(r->status, bus::TxStatus::Ack) << hz;
    }
}

TEST(Config, ClockChangeViaBroadcastAppliesNextTransaction)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    // Time one message at 400 kHz.
    auto time_one = [&] {
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload.assign(16, 0x44);
        sim::SimTime start = simulator.now();
        auto r = system.sendAndWait(1, msg, 10 * sim::kSecond);
        EXPECT_TRUE(r && r->status == bus::TxStatus::Ack);
        system.runUntilIdle(sim::kSecond);
        return simulator.now() - start;
    };
    sim::SimTime fast = time_one();

    // Broadcast a clock change to 100 kHz (config channel, cmd 2).
    bus::Message cfg_msg;
    cfg_msg.dest = bus::Address::broadcast(bus::kChannelConfig);
    cfg_msg.payload = {bus::kConfigCmdClockHz, 0x00, 0x01, 0x86,
                       0xA0}; // 100000.
    system.sendAndWait(1, cfg_msg, sim::kSecond);
    system.runUntilIdle(sim::kSecond);
    EXPECT_NEAR(system.config().busClockHz, 100e3, 1.0);

    sim::SimTime slow = time_one();
    EXPECT_NEAR(static_cast<double>(slow) / static_cast<double>(fast),
                4.0, 0.5);
}

TEST(Config, UnsafeClockBroadcastIsRejected)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);
    double before = system.config().busClockHz;

    bus::Message cfg_msg;
    cfg_msg.dest = bus::Address::broadcast(bus::kChannelConfig);
    // 50 MHz: far beyond the safe limit for any population.
    cfg_msg.payload = {bus::kConfigCmdClockHz, 0x02, 0xFA, 0xF0,
                       0x80};
    system.sendAndWait(1, cfg_msg, sim::kSecond);
    system.runUntilIdle(sim::kSecond);
    EXPECT_DOUBLE_EQ(system.config().busClockHz, before);
}

TEST(ConfigDeath, OverfastInitialClockIsFatal)
{
    EXPECT_EXIT(
        {
            sim::Simulator simulator;
            bus::SystemConfig cfg;
            cfg.busClockHz = 40e6;
            bus::MBusSystem system(simulator, cfg);
            buildRing(system, 3);
        },
        testing::ExitedWithCode(1), "exceeds the safe limit");
}

TEST(ConfigDeath, DuplicateStaticPrefixesAreFatal)
{
    EXPECT_EXIT(
        {
            sim::Simulator simulator;
            bus::MBusSystem system(simulator);
            system.addNode(nodeCfg("a", 0x1, 5));
            system.addNode(nodeCfg("b", 0x2, 5));
            system.finalize();
        },
        testing::ExitedWithCode(1), "duplicate static short prefix");
}

TEST(ConfigDeath, SingleNodeSystemIsFatal)
{
    EXPECT_EXIT(
        {
            sim::Simulator simulator;
            bus::MBusSystem system(simulator);
            system.addNode(nodeCfg("lonely", 0x1, 1));
            system.finalize();
        },
        testing::ExitedWithCode(1), "at least 2 nodes");
}

TEST(Config, NodeByNameAndAccessors)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);
    ASSERT_NE(system.nodeByName("n1"), nullptr);
    EXPECT_EQ(system.nodeByName("n1")->id(), 1u);
    EXPECT_EQ(system.nodeByName("nope"), nullptr);
    EXPECT_EQ(system.nodeCount(), 3u);
    EXPECT_GT(system.maxSafeClockHz(), 1e6);
}

TEST(Config, SendAndWaitTimesOutCleanly)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    // Force the mediator's DATA input stuck high: the bus request
    // never reaches it, no transaction starts, and the convenience
    // call reports std::nullopt at the deadline.
    system.dataSegment(2).force(true);
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = {1};
    auto r = system.sendAndWait(1, msg, 5 * sim::kMillisecond);
    EXPECT_FALSE(r.has_value());
    system.dataSegment(2).release();
}

TEST(Config, SendAndWaitLateCompletionDoesNotStopALaterRun)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    // A 64-byte message takes far longer than 10 us: the wait times
    // out before it completes.
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload.assign(64, 0xA5);
    auto r = system.sendAndWait(1, msg, 10 * sim::kMicrosecond);
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(simulator.now(), 10 * sim::kMicrosecond);
    EXPECT_EQ(system.node(1).busController().stats().messagesSent, 0u);

    // The completion lands inside this plain run; it still records
    // its result, and the run goes on to its bound.
    bool late = false;
    simulator.schedule(sim::kSecond, [&] { late = true; });
    simulator.run(2 * sim::kSecond);
    EXPECT_TRUE(late);
    EXPECT_EQ(simulator.now(), 2 * sim::kSecond);
    EXPECT_EQ(system.node(1).busController().stats().messagesAcked, 1u);
    EXPECT_TRUE(system.idle());

    // A later wait ends on its own send, not on the stale completion.
    msg.payload = {0x5A};
    r = system.sendAndWait(1, msg, sim::kSecond);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, bus::TxStatus::Ack);
    EXPECT_EQ(system.node(1).busController().stats().messagesAcked, 2u);
}

TEST(Config, MaxSafeClockFallsWithPopulation)
{
    double prev = 1e18;
    for (int n = 2; n <= 14; n += 4) {
        sim::Simulator simulator;
        bus::MBusSystem system(simulator);
        buildRing(system, n);
        EXPECT_LT(system.maxSafeClockHz(), prev);
        prev = system.maxSafeClockHz();
    }
}
