/**
 * @file
 * Tests for the Section 7 extensions: resumable messages and
 * mutable/rotating arbitration priority.
 */

#include <gtest/gtest.h>

#include "mbus/resumable.hh"
#include "mbus/system.hh"
#include "tests/mbus/testutil.hh"

using namespace mbus;
using namespace mbus::test;

TEST(Resumable, UninterruptedTransferCompletesFirstAttempt)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    sim::Random rng(1);
    auto data = randomPayload(rng, 300);

    bus::ResumableReceiver receiver(system.node(2));
    std::vector<std::uint8_t> got;
    receiver.setOnComplete(
        [&](const std::vector<std::uint8_t> &d) { got = d; });

    bus::ResumableSender sender(system.node(1));
    bool ok = false;
    int attempts = 0;
    sender.send(3, data, [&](bool success, int n) {
        ok = success;
        attempts = n;
        if (ok)
            simulator.stop();
    });
    simulator.run(10 * sim::kSecond);
    system.runUntilIdle(sim::kSecond);

    EXPECT_TRUE(ok);
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(got, data);
}

TEST(Resumable, ResumesAfterThirdPartyInterjection)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    sim::Random rng(2);
    auto data = randomPayload(rng, 400); // ~8.2 ms at 400 kHz.

    bus::ResumableReceiver receiver(system.node(2));
    std::vector<std::uint8_t> got;
    receiver.setOnComplete(
        [&](const std::vector<std::uint8_t> &d) { got = d; });

    bus::ResumableSender sender(system.node(1));
    bool ok = false;
    int attempts = 0;
    sender.send(3, data, [&](bool success, int n) {
        ok = success;
        attempts = n;
        simulator.stop();
    });

    // A third party chops the first attempt in half.
    simulator.schedule(4 * sim::kMillisecond,
                       [&] { system.node(0).interject(); });

    simulator.run(30 * sim::kSecond);
    system.runUntilIdle(sim::kSecond);

    EXPECT_TRUE(ok);
    EXPECT_GE(attempts, 2); // Resumed at least once.
    EXPECT_EQ(got, data);   // Reassembled exactly, despite overlap.
    EXPECT_GE(receiver.chunksReceived(), 2);
}

TEST(Resumable, SurvivesRepeatedInterjections)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    sim::Random rng(3);
    auto data = randomPayload(rng, 600);

    bus::ResumableReceiver receiver(system.node(2));
    std::vector<std::uint8_t> got;
    receiver.setOnComplete(
        [&](const std::vector<std::uint8_t> &d) { got = d; });

    bus::ResumableSender sender(system.node(1), /*maxAttempts=*/16);
    bool ok = false;
    sender.send(3, data, [&](bool success, int) {
        ok = success;
        simulator.stop();
    });

    // Interject every 3 ms for a while.
    for (int k = 1; k <= 3; ++k) {
        simulator.schedule(k * 3 * sim::kMillisecond,
                           [&] { system.node(0).interject(); });
    }

    simulator.run(60 * sim::kSecond);
    system.runUntilIdle(sim::kSecond);
    EXPECT_TRUE(ok);
    EXPECT_EQ(got, data);
}

TEST(MutablePriority, BreakNodeReordersArbitration)
{
    // With the break at node 2, node 3 (just downstream) outranks
    // node 1 -- the reverse of the default topological order.
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.useNodeArbBreak = true;
    bus::MBusSystem system(simulator, cfg);
    buildRing(system, 4);
    system.setArbBreakNode(2);

    std::vector<int> order;
    auto track = [&](int tag) {
        return [&order, &simulator, tag](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            order.push_back(tag);
            if (order.size() == 2)
                simulator.stop();
        };
    };
    bus::Message a;
    a.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    a.payload = {1};
    bus::Message b = a;
    system.node(1).send(a, track(1));
    system.node(3).send(b, track(3));

    simulator.run(sim::kSecond);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 3); // Downstream of the break wins.
    EXPECT_EQ(order[1], 1);
}

TEST(MutablePriority, BreakNodeItselfWins)
{
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.useNodeArbBreak = true;
    bus::MBusSystem system(simulator, cfg);
    buildRing(system, 4);
    system.setArbBreakNode(2);

    std::vector<int> order;
    auto track = [&](int tag) {
        return [&order, &simulator, tag](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::Ack);
            order.push_back(tag);
            if (order.size() == 2)
                simulator.stop();
        };
    };
    bus::Message a;
    a.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    a.payload = {1};
    bus::Message b = a;
    system.node(2).send(a, track(2));
    system.node(1).send(b, track(1));

    simulator.run(sim::kSecond);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);
}

TEST(MutablePriority, RotationSharesTheBusFairly)
{
    // Three flooding senders; with rotation no sender starves and
    // throughput is roughly even (the Sec 7 "fair scheme").
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.useNodeArbBreak = true;
    bus::MBusSystem system(simulator, cfg);
    buildRing(system, 4);
    system.enableRotatingPriority();

    int delivered[4] = {0, 0, 0, 0};
    // The recursive senders must outlive the loop body. The lambdas
    // capture a raw pointer, not the shared_ptr itself -- a
    // self-owning capture cycle would leak every closure.
    std::vector<std::shared_ptr<std::function<void()>>> floods;
    for (std::size_t sender = 1; sender <= 3; ++sender) {
        auto flood = std::make_shared<std::function<void()>>();
        auto *fn = flood.get();
        *flood = [&system, &delivered, sender, fn] {
            bus::Message msg;
            msg.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
            msg.payload.assign(8, 0x11);
            system.node(sender).send(
                msg,
                [&delivered, sender, fn](const bus::TxResult &r) {
                    if (r.status == bus::TxStatus::Ack)
                        ++delivered[sender];
                    (*fn)();
                });
        };
        floods.push_back(std::move(flood));
        (*fn)();
    }
    simulator.run(simulator.now() + 500 * sim::kMillisecond);

    int total = delivered[1] + delivered[2] + delivered[3];
    ASSERT_GT(total, 100);
    for (int s = 1; s <= 3; ++s) {
        double share = double(delivered[s]) / total;
        EXPECT_GT(share, 0.15) << "sender " << s << " starved";
        EXPECT_LT(share, 0.55) << "sender " << s << " dominated";
    }
}

TEST(MutablePriority, NormalDeliveryStillWorks)
{
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.useNodeArbBreak = true;
    bus::MBusSystem system(simulator, cfg);
    buildRing(system, 4);
    system.enableRotatingPriority();

    std::vector<std::uint8_t> seen;
    system.node(3).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(4, bus::kFuMailbox);
    msg.payload = {9, 9, 9};
    auto r = system.sendAndWait(1, msg, sim::kSecond);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, bus::TxStatus::Ack);
    system.runUntilIdle(sim::kSecond);
    EXPECT_EQ(seen, msg.payload);
}
