/**
 * @file
 * Interjection tests (Sec 4.9, Sec 7): receiver aborts, third-party
 * interjections with the four-byte progress rule, the runaway-message
 * watchdog, byte alignment, and recovery from forced faults.
 */

#include <gtest/gtest.h>

#include "mbus/system.hh"
#include "tests/mbus/testutil.hh"

using namespace mbus;
using namespace mbus::test;

namespace {

struct Fixture
{
    sim::Simulator simulator;
    bus::MBusSystem system{simulator};
};

} // namespace

TEST(Interjection, ReceiverBufferOverrunAborts)
{
    Fixture f;
    bus::NodeConfig tiny = nodeCfg("tiny", 0x222, 2);
    tiny.rxBufferLimit = 4;
    f.system.addNode(nodeCfg("proc", 0x111, 1));
    f.system.addNode(tiny);
    f.system.finalize();

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload.assign(32, 0xCC);
    auto result = f.system.sendAndWait(0, msg, 100 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    EXPECT_EQ(f.system.node(1).busController().stats().rxAborts, 1u);
    // The bus recovers: a follow-up short message succeeds.
    bus::Message ok;
    ok.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    ok.payload = {1, 2};
    auto again = f.system.sendAndWait(0, ok, 100 * sim::kMillisecond);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->status, bus::TxStatus::Ack);
}

TEST(Interjection, ThirdPartyHonoursFourByteProgress)
{
    // Sec 7: an arbitration winner may send at least 4 bytes before
    // being interrupted.
    Fixture f;
    buildRing(f.system, 3);

    std::vector<std::uint8_t> delivered;
    bool delivered_flagged = false;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) {
            delivered = rx.payload;
            delivered_flagged = rx.interjected;
        });

    bus::Message big;
    big.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    big.payload.assign(64, 0xEE);

    std::optional<bus::TxResult> result;
    f.system.node(1).send(big, [&](const bus::TxResult &r) {
        result = r;
        f.simulator.stop();
    });

    // A third party (node 0, neither TX nor RX) interjects once the
    // transfer is underway (~16 bytes in at 400 kHz).
    f.simulator.schedule(500 * sim::kMicrosecond,
                         [&] { f.system.node(0).interject(); });

    f.simulator.run(sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);

    f.system.runUntilIdle(50 * sim::kMillisecond);
    // The receiver kept the complete bytes it got -- at least the
    // guaranteed four, but not the whole message.
    EXPECT_GE(delivered.size(), 4u);
    EXPECT_LT(delivered.size(), 64u);
    EXPECT_TRUE(delivered_flagged);
}

TEST(Interjection, WatchdogKillsRunawayMessage)
{
    // Sec 7: the mediator imposes a maximum message length (>= 1 kB).
    Fixture f;
    buildRing(f.system, 3);

    bus::Message runaway;
    runaway.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    runaway.payload.assign(1200, 0xAB); // Above the 1 kB minimum max.

    auto result = f.system.sendAndWait(1, runaway, 2 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::GeneralError);
    EXPECT_EQ(f.system.mediator().stats().watchdogKills, 1u);

    // Bus is usable afterwards.
    bus::Message ok;
    ok.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    ok.payload = {7};
    auto again = f.system.sendAndWait(1, ok, 100 * sim::kMillisecond);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->status, bus::TxStatus::Ack);
}

TEST(Interjection, ConfigurableMaxLengthViaBroadcast)
{
    Fixture f;
    buildRing(f.system, 3);
    f.system.broadcastMaxMessageLength(0, 2048);
    f.system.runUntilIdle(100 * sim::kMillisecond);
    EXPECT_EQ(f.system.mediator().maxMessageBytes(), 2048u);

    // A 1.2 kB message now fits.
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload.assign(1200, 0x5A);
    auto result = f.system.sendAndWait(1, msg, 2 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
}

TEST(Interjection, ByteAlignmentDiscardsPartialBytes)
{
    // Receivers between the interjector and the mediator observe
    // extra clock edges (Fig 7 note 4); whatever partial byte
    // accumulates must be discarded.
    Fixture f;
    bus::NodeConfig tiny = nodeCfg("tiny", 0x333, 3);
    tiny.rxBufferLimit = 5;
    f.system.addNode(nodeCfg("proc", 0x111, 1));
    f.system.addNode(nodeCfg("mid", 0x222, 2));
    f.system.addNode(tiny);
    f.system.finalize();

    std::vector<std::uint8_t> delivered;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { delivered = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload.assign(64, 0x99);
    auto result = f.system.sendAndWait(0, msg, sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    f.system.runUntilIdle(50 * sim::kMillisecond);
    // Only whole bytes delivered, and only the prefix that fit.
    EXPECT_EQ(delivered.size(), 5u);
    for (auto b : delivered)
        EXPECT_EQ(b, 0x99);
}

TEST(Interjection, ForcedClkStuckRecoversViaInterjection)
{
    // Fault tolerance requirement (Sec 3): transient faults must not
    // lock the bus. Force a CLK segment high mid-transaction -- the
    // mediator sees the broken ring and resets everyone.
    Fixture f;
    buildRing(f.system, 3);

    std::optional<bus::TxResult> result;
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload.assign(32, 0x3C);
    f.system.node(1).send(msg,
                          [&](const bus::TxResult &r) {
                              result = r;
                              f.simulator.stop();
                          });

    // Stuck-at fault on the victim segment mid-message (a 32-byte
    // transfer at 400 kHz spans ~0.7 ms).
    f.simulator.schedule(200 * sim::kMicrosecond, [&] {
        f.system.clkSegment(1).force(true);
    });
    f.simulator.schedule(600 * sim::kMicrosecond, [&] {
        f.system.clkSegment(1).release();
    });

    f.simulator.run(2 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    // The transfer failed, but the bus recovered.
    EXPECT_NE(result->status, bus::TxStatus::Ack);

    bus::Message ok;
    ok.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    ok.payload = {1};
    auto again = f.system.sendAndWait(1, ok, sim::kSecond);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->status, bus::TxStatus::Ack);
}

TEST(Interjection, DetectorNeedsThreeQuietEdges)
{
    // Unit-level behaviour of the saturating counter (Sec 4.9). A
    // genuine interjection is the mediator toggling DATA while CLK
    // parks high, so the detector counts DATA edges only in that
    // regime -- the same discipline the libmbus firmware applies.
    sim::Simulator s;
    wire::Net clk(s, "clk", 0, true);
    wire::Net data(s, "data", 0, true);
    bus::InterjectionDetector det(clk, data);

    int fired = 0;
    det.setOnInterjection([&] { ++fired; });

    data.drive(false);
    s.run();
    data.drive(true);
    s.run();
    EXPECT_EQ(fired, 0); // Two edges: legal bus activity.

    clk.drive(false); // CLK edge resets the counter...
    s.run();
    data.drive(false); // ...and while CLK sits low, DATA edges are
    s.run();           // ordinary bus activity: never counted, no
    data.drive(true);  // matter how many accumulate.
    s.run();
    data.drive(false);
    s.run();
    data.drive(true);
    s.run();
    EXPECT_EQ(fired, 0);

    clk.drive(true); // CLK parks high (edge resets the counter).
    s.run();
    data.drive(false);
    s.run();
    data.drive(true);
    s.run();
    EXPECT_EQ(fired, 0);
    data.drive(false);
    s.run();
    EXPECT_EQ(fired, 1); // Third quiet DATA edge asserts.
}
