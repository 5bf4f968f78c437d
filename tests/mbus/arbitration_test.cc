/**
 * @file
 * Arbitration tests: topological priority, the priority-arbitration
 * cycle, retries, and cancel-on-loss (Secs 4.3, 7).
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

/** Queue a send on @p from and record its completion order; the
 *  @p last completion ends the run. */
void
sendTracked(Fixture &f, std::size_t from, std::size_t toPrefix,
            bool priority, std::vector<std::size_t> &order,
            std::size_t tag, std::size_t last)
{
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(
        static_cast<std::uint8_t>(toPrefix), bus::kFuMailbox);
    msg.payload = {static_cast<std::uint8_t>(tag)};
    msg.priority = priority;
    f.system.node(from).send(msg, [&f, &order, tag,
                                   last](const bus::TxResult &r) {
        EXPECT_EQ(r.status, bus::TxStatus::Ack);
        order.push_back(tag);
        if (order.size() == last)
            f.simulator.stop();
    });
}

} // namespace

TEST(Arbitration, TopologicalPriorityWins)
{
    // Nodes 1 and 3 request at the same instant; node 1 is closer to
    // the mediator (downstream of the break) and must win. Figure 5.
    Fixture f;
    buildRing(f.system, 4);
    std::vector<std::size_t> order;

    sendTracked(f, 3, 3, false, order, 33, 2);
    sendTracked(f, 1, 3, false, order, 11, 2);

    f.simulator.run(sim::kSecond);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 11u);
    EXPECT_EQ(order[1], 33u);
    // The loser retried: exactly one arbitration loss recorded.
    EXPECT_EQ(f.system.node(3).busController().stats()
                  .arbitrationLosses, 1u);
}

TEST(Arbitration, PriorityRequestOverridesTopology)
{
    // Same race, but the physically low-priority node flags its
    // message priority: it claims the bus in the priority cycle.
    Fixture f;
    buildRing(f.system, 4);
    std::vector<std::size_t> order;

    sendTracked(f, 1, 3, false, order, 11, 2);
    sendTracked(f, 3, 3, true, order, 33, 2);

    f.simulator.run(sim::kSecond);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 33u);
    EXPECT_EQ(order[1], 11u);
    EXPECT_EQ(f.system.node(3).busController().stats().priorityWins,
              1u);
}

TEST(Arbitration, MediatorHostAlwaysWinsArbitration)
{
    // Sec 7: "Currently, the mediator always has top priority."
    Fixture f;
    buildRing(f.system, 3);
    std::vector<std::size_t> order;

    sendTracked(f, 1, 3, false, order, 11, 2);
    sendTracked(f, 0, 3, false, order, 0, 2);

    f.simulator.run(sim::kSecond);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
}

TEST(Arbitration, ThreeWayRaceResolvesInRingOrder)
{
    Fixture f;
    buildRing(f.system, 5);
    std::vector<std::size_t> order;

    sendTracked(f, 4, 1, false, order, 4, 3);
    sendTracked(f, 2, 1, false, order, 2, 3);
    sendTracked(f, 3, 1, false, order, 3, 3);

    f.simulator.run(sim::kSecond);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Arbitration, CancelOnArbLossDropsMessage)
{
    Fixture f;
    buildRing(f.system, 4);

    bool lost = false;
    bool won = false;

    bus::Message keeper;
    keeper.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    keeper.payload = {1};
    f.system.node(1).send(keeper,
                          [&](const bus::TxResult &r) {
                              EXPECT_EQ(r.status, bus::TxStatus::Ack);
                              won = true;
                              if (lost)
                                  f.simulator.stop();
                          });

    bus::Message dropper;
    dropper.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    dropper.payload = {2};
    // keeper: node1 -> node2; dropper: node3 -> node1 -- distinct
    // senders and receivers so both transactions are well formed.
    f.system.node(3).sendCancelOnArbLoss(
        dropper, [&](const bus::TxResult &r) {
            EXPECT_EQ(r.status, bus::TxStatus::LostArbitration);
            lost = true;
            if (won)
                f.simulator.stop();
        });

    f.simulator.run(sim::kSecond);
    EXPECT_TRUE(won);
    EXPECT_TRUE(lost);
    EXPECT_EQ(f.system.node(3).busController().pendingTx(), 0u);
}

TEST(Arbitration, LoserRetriesUntilDelivered)
{
    // Saturate: every node fires several messages at once; all must
    // eventually deliver (progress despite repeated losses).
    Fixture f;
    buildRing(f.system, 4);
    int done = 0, expected = 0;
    for (std::size_t from = 1; from < 4; ++from) {
        for (int i = 0; i < 3; ++i) {
            bus::Message msg;
            msg.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
            msg.payload = {static_cast<std::uint8_t>(i)};
            ++expected;
            f.system.node(from).send(msg, [&](const bus::TxResult &r) {
                EXPECT_EQ(r.status, bus::TxStatus::Ack);
                if (++done == expected)
                    f.simulator.stop();
            });
        }
    }
    f.simulator.run(2 * sim::kSecond);
    EXPECT_EQ(done, expected);
}
