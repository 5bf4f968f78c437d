/**
 * @file
 * End-to-end protocol tests: delivery across roles, addressing
 * modes, payload sizes, and cycle accounting (Sec 6.1).
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

TEST(Protocol, MemberToMemberDelivery)
{
    Fixture f;
    buildRing(f.system, 3);

    std::vector<std::uint8_t> seen;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = {1, 2, 3, 4, 5, 6, 7, 8};

    // Node 1 (a plain member) transmits: this exercises the real
    // CLK-ring-break end-of-message path.
    auto result = f.system.sendAndWait(1, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
}

TEST(Protocol, MemberToHostDelivery)
{
    Fixture f;
    buildRing(f.system, 3);

    std::vector<std::uint8_t> seen;
    f.system.node(0).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    msg.payload = {0xAB, 0xCD};
    auto result = f.system.sendAndWait(2, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
}

TEST(Protocol, ZeroPayloadMessageAcks)
{
    Fixture f;
    buildRing(f.system, 3);
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    auto result = f.system.sendAndWait(1, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
}

TEST(Protocol, FullAddressDelivery)
{
    Fixture f;
    buildRing(f.system, 3);

    std::vector<std::uint8_t> seen;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = f.system.node(2).fullAddress(bus::kFuMailbox);
    msg.payload = {9, 8, 7};
    auto result = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
}

TEST(Protocol, UnmatchedAddressNaks)
{
    Fixture f;
    buildRing(f.system, 3);
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(9, 0); // Nobody home.
    msg.payload = {1};
    auto result = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Nak);
}

TEST(Protocol, BackToBackMessagesFromOneNode)
{
    Fixture f;
    buildRing(f.system, 3);
    int received = 0;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++received; });

    int completed = 0;
    for (int i = 0; i < 5; ++i) {
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload = {static_cast<std::uint8_t>(i)};
        f.system.node(1).send(msg, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            if (++completed == 5)
                f.simulator.stop();
        });
    }
    f.simulator.run(500 * sim::kMillisecond);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(completed, 5);
    EXPECT_EQ(received, 5);
}

TEST(Protocol, CrossTrafficBothDirections)
{
    Fixture f;
    buildRing(f.system, 4);
    int received2 = 0, received3 = 0, done = 0;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++received2; });
    f.system.node(3).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++received3; });

    for (int i = 0; i < 3; ++i) {
        bus::Message a;
        a.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        a.payload = {0x11};
        f.system.node(3).send(a, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            if (++done == 6)
                f.simulator.stop();
        });
        bus::Message b;
        b.dest = bus::Address::shortAddr(4, bus::kFuMailbox);
        b.payload = {0x22};
        f.system.node(1).send(b, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            if (++done == 6)
                f.simulator.stop();
        });
    }
    f.simulator.run(sim::kSecond);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(received2, 3);
    EXPECT_EQ(received3, 3);
}

TEST(Protocol, TransactionDurationMatchesOverheadModel)
{
    // Sec 6.1: overhead is 19 cycles (short addressing). Our
    // simulator adds the mediator wakeup and idle flush, so a full
    // n-byte transaction spans [19 + 8n, 24 + 8n] bus periods.
    Fixture f;
    buildRing(f.system, 3);
    const std::size_t n = 8;
    sim::SimTime period =
        sim::periodFromHz(f.system.config().busClockHz);

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload.assign(n, 0x5A);

    sim::SimTime start = f.simulator.now();
    auto result = f.system.sendAndWait(1, msg, 100 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    f.system.runUntilIdle(10 * sim::kMillisecond);
    double cycles = static_cast<double>(f.simulator.now() - start) /
                    static_cast<double>(period);

    double modelled = 19.0 + 8.0 * static_cast<double>(n);
    EXPECT_GE(cycles, modelled);
    EXPECT_LE(cycles, modelled + 6.0);
}

TEST(Protocol, MediatorCountsOneTransactionPerMessage)
{
    Fixture f;
    buildRing(f.system, 3);
    const bus::Message msg{bus::Address::shortAddr(2, bus::kFuMailbox),
                           {1, 2}};
    for (int i = 0; i < 4; ++i) {
        auto r = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
        ASSERT_TRUE(r.has_value());
        f.system.runUntilIdle(10 * sim::kMillisecond);
    }
    EXPECT_EQ(f.system.mediator().stats().transactions, 4u);
    EXPECT_EQ(f.system.mediator().stats().interjections, 4u);
    EXPECT_EQ(f.system.mediator().stats().generalErrors, 0u);
}

TEST(Protocol, LargePayloadWithinWatchdogLimit)
{
    Fixture f;
    buildRing(f.system, 3);
    std::vector<std::uint8_t> seen;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    sim::Random rng(7);
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = randomPayload(rng, 1000);
    auto result = f.system.sendAndWait(1, msg, sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
}

TEST(Protocol, FourteenNodeRingWorks)
{
    // The maximum short-addressed population (Sec 4.7).
    Fixture f;
    buildRing(f.system, 14);
    int received = 0;
    f.system.node(13).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++received; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(14, bus::kFuMailbox);
    msg.payload = {0x42};
    auto result = f.system.sendAndWait(1, msg, 100 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(received, 1);
}

TEST(Protocol, MessageCarriesNoSourceInformation)
{
    // MBus deliberately has no source addresses (Sec 4.8): the
    // delivered message exposes only the destination it matched.
    Fixture f;
    buildRing(f.system, 3);
    bus::Address seen_dest;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen_dest = rx.dest; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = {1};
    f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    f.system.runUntilIdle(10 * sim::kMillisecond);
    EXPECT_EQ(seen_dest, msg.dest);
}
