/**
 * @file
 * Net-level edge-train batching tests: rhythm detection, confirmation,
 * splitting on glitches and retimed drives, and -- the load-bearing
 * property -- that a train-enabled net delivers the exact same
 * (time, value) edge sequence as a discrete net for any drive
 * pattern, while retiring far fewer kernel events for rhythmic runs.
 *
 * A muted subscription rides the same rigs: it hears nothing and
 * costs no virtual call, while the edge epoch still counts the edge.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "wire/net.hh"

using namespace mbus;

namespace {

struct EdgeLog final : wire::EdgeListener
{
    sim::Simulator *sim = nullptr;
    std::vector<std::pair<sim::SimTime, bool>> edges;

    void
    onNetEdge(wire::Net &, bool v) override
    {
        edges.emplace_back(sim->now(), v);
    }
};

/** One net + log, optionally train-enabled. */
struct Rig
{
    sim::Simulator sim;
    wire::Net net;
    EdgeLog log;

    explicit Rig(bool trains)
        : net(sim, "n", 10 * sim::kNanosecond, true)
    {
        if (trains)
            net.enableEdgeTrains(16);
        log.sim = &sim;
        net.listen(wire::Edge::Any, log);
    }
};

/** Drive the same schedule into both rigs and compare deliveries. */
void
expectIdenticalDelivery(
    const std::vector<std::pair<sim::SimTime, bool>> &drives,
    std::uint64_t *trainEdges = nullptr)
{
    Rig discrete(false), trained(true);
    for (auto rig : {&discrete, &trained}) {
        for (const auto &d : drives) {
            rig->sim.scheduleAt(d.first, [rig, v = d.second] {
                rig->net.drive(v);
            });
        }
        rig->sim.run();
    }
    EXPECT_EQ(discrete.log.edges, trained.log.edges);
    EXPECT_EQ(discrete.net.transitions(), trained.net.transitions());
    EXPECT_EQ(discrete.net.value(), trained.net.value());
    if (trainEdges)
        *trainEdges = trained.sim.queue().trainEdgesDelivered();
}

std::vector<std::pair<sim::SimTime, bool>>
rhythm(sim::SimTime start, sim::SimTime period, int count, bool first)
{
    std::vector<std::pair<sim::SimTime, bool>> drives;
    bool v = first;
    for (int i = 0; i < count; ++i) {
        drives.emplace_back(start + static_cast<sim::SimTime>(i) * period,
                            v);
        v = !v;
    }
    return drives;
}

TEST(NetTrain, RhythmicRunFormsATrainWithIdenticalDelivery)
{
    std::uint64_t trainEdges = 0;
    expectIdenticalDelivery(rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 40, false), &trainEdges);
    EXPECT_GT(trainEdges, 30u)
        << "a 40-edge steady rhythm should ride trains after warm-up";
}

TEST(NetTrain, TrainReducesKernelEvents)
{
    Rig discrete(false), trained(true);
    auto drives = rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 200, false);
    for (auto rig : {&discrete, &trained}) {
        for (const auto &d : drives) {
            rig->sim.scheduleAt(d.first, [rig, v = d.second] {
                rig->net.drive(v);
            });
        }
        rig->sim.run();
    }
    EXPECT_EQ(discrete.log.edges, trained.log.edges);
    // Discrete: one kernel delivery event per edge (plus the drive
    // closures). Trained: the deliveries collapse into ~200/16
    // trains.
    std::uint64_t discreteEvents = discrete.sim.eventsExecuted();
    std::uint64_t trainedEvents = trained.sim.eventsExecuted();
    EXPECT_LT(trainedEvents * 2, discreteEvents + 200)
        << "expected at least a 2x cut in delivery events";
    EXPECT_GE(trained.net.trainsStarted(), 10u);
}

TEST(NetTrain, GlitchMidTrainSplitsAndStaysIdentical)
{
    // A steady rhythm interrupted by a short opposite pulse (the
    // drive-to-forward glitch shape), then resumed.
    auto drives = rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 10, false);
    drives.emplace_back(5030 * sim::kNanosecond, true);  // Off-beat glitch drive...
    drives.emplace_back(5080 * sim::kNanosecond, false); // ...and snap-back.
    auto tail = rhythm(5500 * sim::kNanosecond, 500 * sim::kNanosecond, 10, true);
    drives.insert(drives.end(), tail.begin(), tail.end());
    expectIdenticalDelivery(drives);
}

TEST(NetTrain, RetimedRhythmSplitsAndRetrains)
{
    auto drives = rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 8, false);
    auto slower = rhythm((1000 + 8 * 500) * sim::kNanosecond, 900 * sim::kNanosecond, 12, false);
    drives.insert(drives.end(), slower.begin(), slower.end());
    std::uint64_t trainEdges = 0;
    expectIdenticalDelivery(drives, &trainEdges);
    EXPECT_GT(trainEdges, 0u);
}

TEST(NetTrain, SameInstantGlitchPairStaysIdentical)
{
    // Two opposite drives at the same timestamp (transport delay
    // keeps both deliveries): the train path must not eat the pulse.
    auto drives = rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 6, false);
    drives.emplace_back(4000 * sim::kNanosecond, true);
    drives.emplace_back(4000 * sim::kNanosecond, false);
    auto tail = rhythm(4500 * sim::kNanosecond, 500 * sim::kNanosecond, 6, true);
    drives.insert(drives.end(), tail.begin(), tail.end());
    expectIdenticalDelivery(drives);
}

TEST(NetTrain, SilentStopLeavesOnlyCommittedEdges)
{
    // The rhythm stops dead: unconfirmed speculative edges must never
    // fire. Delivered sequence == discrete by construction.
    auto drives = rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 8, false);
    std::uint64_t trainEdges = 0;
    expectIdenticalDelivery(drives, &trainEdges);

    Rig trained(true);
    for (const auto &d : drives) {
        trained.sim.scheduleAt(d.first, [&trained, v = d.second] {
            trained.net.drive(v);
        });
    }
    trained.sim.run(sim::kSecond);
    EXPECT_EQ(trained.log.edges.size(), drives.size());
    // The dormant tail is refunded when the net splits or dies; here
    // it is simply parked and must not count as fireable work.
    EXPECT_FALSE(trained.sim.hasPendingEvents());
}

TEST(NetTrain, ZeroDelayNetsNeverTrain)
{
    sim::Simulator sim;
    wire::Net net(sim, "z", 0, true);
    net.enableEdgeTrains(16);
    EdgeLog log;
    log.sim = &sim;
    net.listen(wire::Edge::Any, log);
    for (auto &d : rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 20, false))
        sim.scheduleAt(d.first, [&net, v = d.second] { net.drive(v); });
    sim.run();
    EXPECT_EQ(log.edges.size(), 20u);
    EXPECT_EQ(net.trainsStarted(), 0u)
        << "confirmation must precede delivery; delay 0 cannot train";
}

TEST(NetTrain, ForcedNetKeepsCountersAndFanoutSemantics)
{
    // Force/release during an active train behaves exactly like the
    // discrete path: hidden deliveries, forced-edge fanout, snap-back.
    Rig discrete(false), trained(true);
    auto drives = rhythm(1000 * sim::kNanosecond, 500 * sim::kNanosecond, 30, false);
    for (auto rig : {&discrete, &trained}) {
        for (const auto &d : drives) {
            rig->sim.scheduleAt(d.first, [rig, v = d.second] {
                rig->net.drive(v);
            });
        }
        rig->sim.scheduleAt(6200 * sim::kNanosecond,
                            [rig] { rig->net.force(false); });
        rig->sim.scheduleAt(9700 * sim::kNanosecond,
                            [rig] { rig->net.release(); });
        rig->sim.run();
    }
    EXPECT_EQ(discrete.log.edges, trained.log.edges);
    EXPECT_EQ(discrete.net.transitions(), trained.net.transitions());
    // The epoch counts every fanout, the forced ones included, while
    // the transition counters freeze under the force: the ring's
    // segment energy is priced per epoch step.
    for (auto rig : {&discrete, &trained}) {
        EXPECT_EQ(rig->net.edgeEpoch(), rig->log.edges.size());
        EXPECT_GT(rig->net.edgeEpoch(), rig->net.transitions());
    }
}

// --- Muting ----------------------------------------------------------

/** Per-edge listener that counts its deliveries. */
struct CountLog final : wire::EdgeListener
{
    std::uint64_t edges = 0;

    void onNetEdge(wire::Net &, bool) override { ++edges; }
};

TEST(NetTrain, MutedListenerReceivesNothingAndCountsNoCalls)
{
    sim::Simulator sim;
    wire::Net net(sim, "m", 10 * sim::kNanosecond, true);
    net.enableEdgeTrains(16);
    CountLog muted, live;
    net.listen(wire::Edge::Any, muted);
    net.listen(wire::Edge::Any, live);
    net.setListenerMuted(muted, true);

    for (const auto &d : rhythm(1000 * sim::kNanosecond,
                                500 * sim::kNanosecond, 8, false))
        sim.scheduleAt(d.first, [&net, v = d.second] { net.drive(v); });
    sim.run();

    EXPECT_EQ(muted.edges, 0u);
    EXPECT_EQ(live.edges, 8u);
    EXPECT_EQ(net.dispatchCalls(), live.edges);
    EXPECT_EQ(net.edgeEpoch(), 8u) << "muting hides no edge from the epoch";

    net.setListenerMuted(muted, false);
    sim.scheduleAt(sim.now() + 500 * sim::kNanosecond,
                   [&net] { net.drive(false); });
    sim.run();
    EXPECT_EQ(muted.edges, 1u) << "unmute must restore delivery";
    EXPECT_EQ(net.dispatchCalls(), 10u);
}

} // namespace
