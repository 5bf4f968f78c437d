/**
 * @file
 * Tests for the Net model: transport delay, listeners, edge counting,
 * fault forcing.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "wire/net.hh"

using namespace mbus;
using namespace mbus::sim;
using namespace mbus::wire;

namespace {

/** Counting listener (the allocation-free registration path). */
struct CountingListener final : EdgeListener
{
    int count = 0;
    void onNetEdge(Net &, bool) override { ++count; }
};

} // namespace

TEST(Net, TransportDelayDefersVisibility)
{
    Simulator s;
    Net net(s, "n", 10 * kNanosecond, true);
    net.drive(false);
    EXPECT_TRUE(net.value()); // Not yet visible.
    s.run();
    EXPECT_FALSE(net.value());
    EXPECT_EQ(s.now(), 10 * kNanosecond);
}

TEST(Net, RedundantDrivesAreNoops)
{
    Simulator s;
    Net net(s, "n", kNanosecond, true);
    net.drive(true);
    EXPECT_FALSE(s.hasPendingEvents());
}

TEST(Net, ListenersFilterByEdge)
{
    Simulator s;
    Net net(s, "n", kNanosecond, false);
    CountingListener rises, falls, any;
    net.listen(Edge::Rising, rises);
    net.listen(Edge::Falling, falls);
    net.listen(Edge::Any, any);

    net.drive(true);
    s.run();
    net.drive(false);
    s.run();
    net.drive(true);
    s.run();

    EXPECT_EQ(rises.count, 2);
    EXPECT_EQ(falls.count, 1);
    EXPECT_EQ(any.count, 3);
}

TEST(Net, CountsTransitions)
{
    Simulator s;
    Net net(s, "n", kNanosecond, false);
    for (int i = 0; i < 6; ++i) {
        net.drive(i % 2 == 0);
        s.run();
    }
    EXPECT_EQ(net.risingEdges(), 3u);
    EXPECT_EQ(net.fallingEdges(), 3u);
    EXPECT_EQ(net.transitions(), 6u);
}

TEST(Net, BackToBackEdgesBothDeliver)
{
    // Transport (not inertial) semantics: two quick opposite drives
    // both arrive -- this is what carries drive-to-forward glitches.
    Simulator s;
    Net net(s, "n", 10 * kNanosecond, true);
    CountingListener events;
    net.listen(Edge::Any, events);
    net.drive(false);
    s.schedule(kNanosecond, [&] { net.drive(true); });
    s.run();
    EXPECT_EQ(events.count, 2);
}

TEST(Net, ForceOverridesAndReleases)
{
    Simulator s;
    Net net(s, "n", kNanosecond, true);
    CountingListener events;
    net.listen(Edge::Any, events);

    net.force(false);
    EXPECT_FALSE(net.value());
    EXPECT_EQ(events.count, 1);

    // Driven changes are masked while forced.
    net.drive(false);
    s.run();
    net.drive(true);
    s.run();
    EXPECT_FALSE(net.value());

    net.release();
    EXPECT_TRUE(net.value()); // Snaps to the driven pipeline value.
    EXPECT_EQ(events.count, 2);
}
