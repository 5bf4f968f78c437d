/**
 * @file
 * Net-level edge-train batching tests: rhythm detection, confirmation,
 * splitting on glitches and retimed drives, and -- the load-bearing
 * property -- that a train-enabled net delivers the exact same
 * (time, value) edge sequence as a discrete net for any drive
 * pattern, while retiring far fewer kernel events for rhythmic runs.
 *
 * Chunked-dispatch tests ride the same rigs: batched listeners must
 * see the exact same edges (grouped into runs), in strictly fewer
 * virtual calls, without touching the allocator in steady state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "wire/net.hh"

// The counting global allocator lives in net_fanout_test.cc (one
// definition per binary); its counter is shared across tests_wire.
extern std::atomic<std::uint64_t> gAllocs;

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
}

// --- Chunked dispatch -------------------------------------------------

/** Batched listener: records every run and reconstructs the edge
 *  sequence through EdgeRun's indexing. */
struct RunLog final : wire::EdgeListener
{
    std::vector<bool> edges;
    std::uint64_t runs = 0;

    void
    onNetEdge(wire::Net &, bool v) override
    {
        edges.push_back(v);
        ++runs; // Unbatched fallback counts as a run of one.
    }
    void
    onEdges(wire::Net &, wire::EdgeRun run) override
    {
        ++runs;
        for (std::uint64_t i = 0; i < run.count; ++i)
            edges.push_back(run[i]);
        EXPECT_EQ(run.last(), edges.back());
    }
};

TEST(NetTrain, ChunkedDispatchDeliversIdenticalEdgesInFewerCalls)
{
    auto drives = rhythm(1000 * sim::kNanosecond,
                         500 * sim::kNanosecond, 64, false);

    // Per-edge reference: a plain listener on an unchunked net.
    Rig plain(true);
    for (const auto &d : drives)
        plain.sim.scheduleAt(d.first, [&plain, v = d.second] {
            plain.net.drive(v);
        });
    plain.sim.run();
    ASSERT_EQ(plain.log.edges.size(), drives.size());

    // Chunked: batched listeners on a chunked net (trains on too), at
    // 1, 4 and 16 listeners.
    for (std::size_t listeners : {1u, 4u, 16u}) {
        SCOPED_TRACE(std::to_string(listeners) + " listeners");
        sim::Simulator sim;
        wire::Net net(sim, "c", 10 * sim::kNanosecond, true);
        net.enableEdgeTrains(16);
        net.setChunkedDispatch(true);
        std::vector<RunLog> batched(listeners);
        for (RunLog &b : batched)
            net.listenBatched(b);

        for (const auto &d : drives)
            sim.scheduleAt(d.first,
                           [&net, v = d.second] { net.drive(v); });
        sim.run();
        net.flushDeferred();

        std::uint64_t delivered = 0, runs = 0;
        for (const RunLog &b : batched) {
            ASSERT_EQ(b.edges.size(), plain.log.edges.size());
            for (std::size_t i = 0; i < b.edges.size(); ++i)
                EXPECT_EQ(b.edges[i], plain.log.edges[i].second);
            EXPECT_LT(b.runs, static_cast<std::uint64_t>(drives.size()))
                << "batched listener should see runs, not single edges";
            delivered += b.edges.size();
            runs += b.runs;
        }
        // Every edge reaches every listener, in at most half the calls
        // per-edge delivery would make.
        const std::uint64_t perEdgeCalls = drives.size() * listeners;
        EXPECT_EQ(delivered, perEdgeCalls);
        EXPECT_EQ(net.dispatchCalls(), runs);
        EXPECT_LE(net.dispatchCalls() * 2, perEdgeCalls);
    }
}

TEST(NetTrain, ForceAndReleaseFlushDeferredRuns)
{
    sim::Simulator sim;
    wire::Net net(sim, "f", 10 * sim::kNanosecond, true);
    net.setChunkedDispatch(true);
    RunLog batched;
    net.listenBatched(batched);

    for (const auto &d : rhythm(1000 * sim::kNanosecond,
                                500 * sim::kNanosecond, 6, false))
        sim.scheduleAt(d.first, [&net, v = d.second] { net.drive(v); });
    // Force mid-stream: the deferred run must flush BEFORE the forced
    // edge fans out, so the batched listener sees edges in order.
    sim.scheduleAt(2200 * sim::kNanosecond, [&net] { net.force(true); });
    sim.scheduleAt(2700 * sim::kNanosecond, [&net] { net.release(); });
    sim.run();
    net.flushDeferred();

    // Reference: identical schedule on an unchunked net.
    sim::Simulator refSim;
    wire::Net refNet(refSim, "f", 10 * sim::kNanosecond, true);
    EdgeLog ref;
    ref.sim = &refSim;
    refNet.listen(wire::Edge::Any, ref);
    for (const auto &d : rhythm(1000 * sim::kNanosecond,
                                500 * sim::kNanosecond, 6, false))
        refSim.scheduleAt(d.first,
                          [&refNet, v = d.second] { refNet.drive(v); });
    refSim.scheduleAt(2200 * sim::kNanosecond,
                      [&refNet] { refNet.force(true); });
    refSim.scheduleAt(2700 * sim::kNanosecond,
                      [&refNet] { refNet.release(); });
    refSim.run();

    ASSERT_EQ(batched.edges.size(), ref.edges.size());
    for (std::size_t i = 0; i < batched.edges.size(); ++i)
        EXPECT_EQ(batched.edges[i], ref.edges[i].second);
}

TEST(NetTrain, MutedListenerReceivesNothingAndCountsNoCalls)
{
    sim::Simulator sim;
    wire::Net net(sim, "m", 10 * sim::kNanosecond, true);
    net.setChunkedDispatch(true);
    RunLog muted, live;
    net.listenBatched(muted);
    net.listenBatched(live);
    net.setListenerMuted(muted, true);

    for (const auto &d : rhythm(1000 * sim::kNanosecond,
                                500 * sim::kNanosecond, 8, false))
        sim.scheduleAt(d.first, [&net, v = d.second] { net.drive(v); });
    sim.run();
    net.flushDeferred();

    EXPECT_TRUE(muted.edges.empty());
    EXPECT_EQ(live.edges.size(), 8u);
    EXPECT_EQ(net.dispatchCalls(), live.runs);

    net.setListenerMuted(muted, false);
    sim.scheduleAt(sim.now() + 500 * sim::kNanosecond,
                   [&net] { net.drive(false); });
    sim.run();
    net.flushDeferred();
    EXPECT_EQ(muted.edges.size(), 1u) << "unmute must restore delivery";
}

TEST(NetTrain, BatchedPathDoesNotAllocateInSteadyState)
{
    sim::Simulator sim;
    wire::Net net(sim, "z", 10 * sim::kNanosecond, true);
    net.enableEdgeTrains(16);
    net.setChunkedDispatch(true);
    RunLog batched;
    net.listenBatched(batched);

    // Warm-up: slab, heap vector, listener table, log capacity.
    batched.edges.reserve(4096);
    for (const auto &d : rhythm(1000 * sim::kNanosecond,
                                500 * sim::kNanosecond, 32, false))
        sim.scheduleAt(d.first, [&net, v = d.second] { net.drive(v); });
    sim.run();
    net.flushDeferred();

    // Steady state: rhythmic drives ride trains, fanout defers into
    // the shared pending run, flushes deliver EdgeRun by value -- no
    // materialized span, no allocation anywhere on the path.
    struct Driver final : sim::EdgeSink
    {
        wire::Net *net = nullptr;
        void onEdge(bool v) override { net->drive(v); }
    } driver;
    driver.net = &net;
    const std::uint64_t before = gAllocs.load();
    sim.scheduleEdgeTrain(500 * sim::kNanosecond,
                          500 * sim::kNanosecond, 2000, driver,
                          !net.value());
    sim.run();
    net.flushDeferred();
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "chunked dispatch steady state must not allocate";
    EXPECT_EQ(batched.edges.size(), 32u + 2000u);
}

} // namespace
