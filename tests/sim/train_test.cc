/**
 * @file
 * Behavioral tests for kernel edge trains: delivery timing and
 * values, one-event accounting, cancellation refunds of unexpanded
 * edges, speculative confirm-or-drop life cycle, truncation
 * semantics, slot recycling/handle safety across train retirement,
 * and the TrainRider rhythm detector that drives speculative trains
 * for ring segments and the software member. (The allocation-freedom
 * of the train paths is asserted in kernel_pool_test.cc, with the
 * counting allocator of tests/alloc_counter.hh.)
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "sim/train_rider.hh"

using namespace mbus::sim;

namespace {

/** Records every delivered edge with its value. */
struct Recorder final : EdgeSink
{
    std::vector<bool> values;
    void onEdge(bool v) override { values.push_back(v); }
};

TEST(EdgeTrain, SelfTrainDeliversAlternatingEdgesOnTheBeat)
{
    EventQueue q;
    Recorder rec;
    q.scheduleEdgeTrain(100, 50, 5, rec, true);
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(q.pendingTrainEdges(), 5u);

    std::vector<SimTime> times;
    while (!q.empty())
        times.push_back(q.executeNext());
    ASSERT_EQ(times.size(), 5u);
    EXPECT_EQ(times, (std::vector<SimTime>{100, 150, 200, 250, 300}));
    EXPECT_EQ(rec.values,
              (std::vector<bool>{true, false, true, false, true}));
    EXPECT_EQ(q.pendingTrainEdges(), 0u);
}

TEST(EdgeTrain, TrainCountsAsOneKernelEvent)
{
    EventQueue q;
    Recorder rec;
    q.scheduleEdgeTrain(10, 10, 50, rec, false);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(rec.values.size(), 50u);
    EXPECT_EQ(q.executedCount(), 1u)
        << "a train retires as one kernel event";
    EXPECT_EQ(q.trainEdgesDelivered(), 50u);
    EXPECT_EQ(q.trainsScheduled(), 1u);
}

TEST(EdgeTrain, TrainInterleavesWithPlainEventsInTimeOrder)
{
    EventQueue q;
    Recorder rec;
    std::vector<int> order;
    q.scheduleEdgeTrain(100, 100, 3, rec, true); // 100, 200, 300
    q.schedule(150, [&order] { order.push_back(150); });
    q.schedule(250, [&order] { order.push_back(250); });
    std::vector<SimTime> fired;
    while (!q.empty())
        fired.push_back(q.executeNext());
    EXPECT_EQ(fired,
              (std::vector<SimTime>{100, 150, 200, 250, 300}));
    EXPECT_EQ(order, (std::vector<int>{150, 250}));
}

TEST(EdgeTrain, CancelRefundsAllRemainingEdges)
{
    EventQueue q;
    Recorder rec;
    EventHandle h = q.scheduleEdgeTrain(10, 10, 10, rec, true);
    EXPECT_EQ(q.size(), 10u);
    q.executeNext();
    q.executeNext();
    q.executeNext();
    EXPECT_EQ(q.size(), 7u);
    EXPECT_EQ(q.pendingTrainEdges(), 7u);
    EXPECT_TRUE(h.pending());

    h.cancel();
    EXPECT_FALSE(h.pending());
    EXPECT_EQ(q.size(), 0u)
        << "cancel must refund every unexpanded edge, not just one";
    EXPECT_EQ(q.pendingTrainEdges(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(rec.values.size(), 3u);

    // The freed slot is immediately reusable and the stale heap entry
    // never resurrects the train.
    bool plain = false;
    q.schedule(1000, [&plain] { plain = true; });
    while (!q.empty())
        q.executeNext();
    EXPECT_TRUE(plain);
    EXPECT_EQ(rec.values.size(), 3u);
}

TEST(EdgeTrain, CancelOfNotYetExpandedTrainRefundsEverything)
{
    EventQueue q;
    Recorder rec;
    EventHandle h = q.scheduleEdgeTrain(10, 10, 1000, rec, true);
    EXPECT_EQ(q.size(), 1000u);
    EXPECT_EQ(q.pendingTrainEdges(), 1000u);
    h.cancel();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.pendingTrainEdges(), 0u);
    EXPECT_EQ(q.executedCount(), 0u);
    EXPECT_TRUE(rec.values.empty());
}

TEST(EdgeTrain, CancelFromWithinADeliveryStopsTheTrain)
{
    EventQueue q;
    struct Stopper final : EdgeSink
    {
        EventHandle handle;
        int seen = 0;
        void
        onEdge(bool) override
        {
            if (++seen == 3)
                handle.cancel();
        }
    } sink;
    sink.handle = q.scheduleEdgeTrain(10, 10, 100, sink, true);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(sink.seen, 3);
    EXPECT_EQ(q.pendingTrainEdges(), 0u);
    EXPECT_EQ(q.size(), 0u);
}

TEST(EdgeTrain, CancelFromWithinTheFinalEdgeDoesNotCorruptAccounting)
{
    // The mediator's shape: beginInterjection() cancels the tick
    // train from inside a delivery, and that delivery can be the
    // chunk's last edge (remaining already 0). The cancel must be a
    // clean no-op refund, not a double decrement of live accounting.
    EventQueue q;
    struct LastEdgeCanceller final : EdgeSink
    {
        EventHandle handle;
        int seen = 0;
        void
        onEdge(bool) override
        {
            if (++seen == 4) // The train's final edge.
                handle.cancel();
        }
    } sink;
    sink.handle = q.scheduleEdgeTrain(10, 10, 4, sink, true);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(sink.seen, 4);
    EXPECT_EQ(q.size(), 0u) << "live accounting under/overflowed";
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingTrainEdges(), 0u);

    // The slot must be reusable and the queue fully functional.
    bool fired = false;
    q.schedule(100, [&fired] { fired = true; });
    EXPECT_EQ(q.size(), 1u);
    q.executeNext();
    EXPECT_TRUE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EdgeTrain, SpeculativeEdgesFireOnlyWhenConfirmed)
{
    EventQueue q;
    Recorder rec;
    EventHandle h =
        q.scheduleSpeculativeEdgeTrain(100, 50, 4, rec, true);
    // Only the confirmed head is fireable.
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pendingTrainEdges(), 4u);

    EXPECT_EQ(q.executeNext(), 100);
    EXPECT_EQ(rec.values, std::vector<bool>{true});
    // Dormant: nothing fireable, but the train is still pending.
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(h.pending());
    EXPECT_EQ(q.pendingTrainEdges(), 3u);

    ASSERT_TRUE(h.confirmTrainEdge());
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.executeNext(), 150);
    EXPECT_EQ(rec.values, (std::vector<bool>{true, false}));

    // Double-confirm while the head is queued must fail.
    ASSERT_TRUE(h.confirmTrainEdge());
    EXPECT_FALSE(h.confirmTrainEdge());
    EXPECT_EQ(q.executeNext(), 200);

    ASSERT_TRUE(h.confirmTrainEdge());
    EXPECT_EQ(q.executeNext(), 250);
    // Exhausted: the slot retired, the handle is stale.
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.confirmTrainEdge());
    EXPECT_EQ(q.pendingTrainEdges(), 0u);
    EXPECT_EQ(q.executedCount(), 1u);
}

TEST(EdgeTrain, TruncateToHeadKeepsTheInFlightEdge)
{
    EventQueue q;
    Recorder rec;
    EventHandle h =
        q.scheduleSpeculativeEdgeTrain(100, 50, 8, rec, true);
    // Head confirmed and queued: a split keeps it (its drive already
    // happened -- transport semantics) and refunds the tail.
    EXPECT_EQ(h.truncateTrainToHead(), 7u);
    EXPECT_EQ(q.pendingTrainEdges(), 1u);
    EXPECT_EQ(q.executeNext(), 100);
    EXPECT_EQ(rec.values, std::vector<bool>{true});
    EXPECT_FALSE(h.pending());
    EXPECT_TRUE(q.empty());
}

TEST(EdgeTrain, TruncateDormantTrainDropsEverything)
{
    EventQueue q;
    Recorder rec;
    EventHandle h =
        q.scheduleSpeculativeEdgeTrain(100, 50, 8, rec, true);
    EXPECT_EQ(q.executeNext(), 100); // Head fires; train dormant.
    EXPECT_EQ(h.truncateTrainToHead(), 7u)
        << "nothing is committed; the whole tail drops";
    EXPECT_FALSE(h.pending());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingTrainEdges(), 0u);
    EXPECT_EQ(rec.values.size(), 1u);
}

TEST(EdgeTrain, StaleHandleNeverTouchesASlotReusedByAnotherEvent)
{
    EventQueue q;
    Recorder rec;
    EventHandle train = q.scheduleEdgeTrain(10, 10, 3, rec, true);
    while (!q.empty())
        q.executeNext(); // Train retires; slot freed.
    EXPECT_FALSE(train.pending());

    bool fired = false;
    EventHandle fresh = q.schedule(50, [&fired] { fired = true; });
    train.cancel(); // Stale: must not kill the new occupant.
    EXPECT_FALSE(train.confirmTrainEdge());
    EXPECT_EQ(train.truncateTrainToHead(), 0u);
    EXPECT_TRUE(fresh.pending());
    q.executeNext();
    EXPECT_TRUE(fired);
}

TEST(EdgeTrain, SimulatorWrapperSchedulesRelativeToNow)
{
    Simulator sim;
    Recorder rec;
    sim.schedule(1000, [&] {
        sim.scheduleEdgeTrain(10, 10, 3, rec, false);
    });
    sim.run();
    EXPECT_EQ(sim.now(), 1030);
    EXPECT_EQ(rec.values, (std::vector<bool>{false, true, false}));
}

TEST(EdgeTrain, TrainsDrainBeforeRunLimitAccounting)
{
    // A dormant speculative train must not stall run(): the queue
    // reports empty once no fireable work remains.
    Simulator sim;
    Recorder rec;
    EventHandle h;
    sim.schedule(10, [&] {
        h = sim.scheduleSpeculativeEdgeTrain(5, 100, 10, rec, true);
    });
    SimTime end = sim.run(1000000);
    EXPECT_EQ(end, 1000000);
    EXPECT_EQ(rec.values.size(), 1u) << "only the confirmed head fires";
    EXPECT_TRUE(h.pending()) << "the dormant tail stays cancellable";
    h.cancel();
    EXPECT_EQ(sim.queue().pendingTrainEdges(), 0u);
}

/** Records every delivered edge with its delivery time. */
struct TimedRecorder final : EdgeSink
{
    explicit TimedRecorder(Simulator &s) : sim(s) {}
    Simulator &sim;
    std::vector<std::pair<SimTime, bool>> edges;
    void onEdge(bool v) override { edges.emplace_back(sim.now(), v); }
};

/**
 * Offers edges to a TrainRider the way Net::drive does: an edge the
 * rider declines is scheduled discretely. Every edge is due
 * kLatency after its offer.
 */
struct Beat
{
    static constexpr SimTime kLatency = 30;
    static constexpr SimTime kPeriod = 100;

    Simulator sim;
    TimedRecorder sink{sim};
    std::unique_ptr<TrainRider> rider = std::make_unique<TrainRider>();
    std::vector<bool> discrete; ///< Per offer: ride() declined it.

    /** Offer @p v at absolute time @p at. */
    void
    offerAt(SimTime at, bool v)
    {
        sim.scheduleAt(at, [this, v] {
            const bool rode = rider->ride(sim, kLatency, sink, v);
            if (!rode)
                sim.scheduleEdge(kLatency, sink, v);
            discrete.push_back(!rode);
        });
    }

    /** Offer @p n alternating edges, one per beat from @p start,
     *  the first valued @p first. */
    void
    offerBeat(SimTime start, int n, bool first = true)
    {
        for (int i = 0; i < n; ++i)
            offerAt(start + i * kPeriod, first ^ ((i & 1) != 0));
    }

    /** The deliveries a discrete schedule of the same offers gives. */
    static std::vector<std::pair<SimTime, bool>>
    expected(std::initializer_list<std::pair<SimTime, bool>> offers)
    {
        std::vector<std::pair<SimTime, bool>> out;
        for (auto [at, v] : offers)
            out.emplace_back(at + kLatency, v);
        return out;
    }
};

TEST(TrainRider, ExactlyTheFirstTwoEdgesAreDiscrete)
{
    Beat b;
    b.rider->setMaxEdges(8);
    b.offerBeat(0, 6);
    b.sim.run();
    EXPECT_EQ(b.discrete, (std::vector<bool>{true, true, false, false,
                                             false, false}));
    EXPECT_EQ(b.sink.edges,
              Beat::expected({{0, true}, {100, false}, {200, true},
                              {300, false}, {400, true}, {500, false}}));
    EXPECT_EQ(b.rider->trainsStarted(), 1u);
    EXPECT_EQ(b.sim.queue().trainEdgesDelivered(), 4u);
}

TEST(TrainRider, ExhaustedTrainChainsTheNextWithoutWarmUp)
{
    Beat b;
    b.rider->setMaxEdges(4);
    b.offerBeat(0, 10);
    b.sim.run();
    // Edges 3-6 ride the first train; edge 7, the next on-beat edge
    // after it exhausts, heads a second train at once.
    std::vector<bool> want(10, false);
    want[0] = want[1] = true;
    EXPECT_EQ(b.discrete, want);
    EXPECT_EQ(b.rider->trainsStarted(), 2u);
    EXPECT_EQ(b.sim.queue().trainEdgesDelivered(), 8u);
    ASSERT_EQ(b.sink.edges.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(b.sink.edges[i],
                  std::make_pair(static_cast<SimTime>(i) * Beat::kPeriod +
                                     Beat::kLatency,
                                 (i & 1) == 0));
    EXPECT_FALSE(b.rider->pending());
}

TEST(TrainRider, OffBeatEdgeSplitsToTheCommittedHead)
{
    Beat b;
    b.rider->setMaxEdges(8);
    b.offerBeat(0, 4);
    // The edge offered at 300 is confirmed and in flight until 330;
    // an edge at 310 is off the beat.
    b.offerAt(310, true);
    b.sim.run();
    EXPECT_EQ(b.discrete,
              (std::vector<bool>{true, true, false, false, true}));
    EXPECT_EQ(b.sink.edges,
              Beat::expected({{0, true}, {100, false}, {200, true},
                              {300, false}, {310, true}}))
        << "the committed head still fires; the tail never does";
    EXPECT_FALSE(b.rider->pending());
    EXPECT_EQ(b.sim.queue().pendingTrainEdges(), 0u);
}

TEST(TrainRider, WrongValueEdgeSplitsTheTrain)
{
    Beat b;
    b.rider->setMaxEdges(8);
    b.offerBeat(0, 4);
    b.offerAt(400, false); // On the beat, but the train predicts true.
    b.sim.run();
    EXPECT_EQ(b.discrete,
              (std::vector<bool>{true, true, false, false, true}));
    EXPECT_EQ(b.sink.edges,
              Beat::expected({{0, true}, {100, false}, {200, true},
                              {300, false}, {400, false}}));
    EXPECT_EQ(b.rider->trainsStarted(), 1u);
    EXPECT_FALSE(b.rider->pending());
    EXPECT_EQ(b.sim.queue().pendingTrainEdges(), 0u);
}

TEST(TrainRider, ForgetRestartsDetection)
{
    Beat b;
    b.rider->setMaxEdges(8);
    b.offerBeat(0, 4);
    b.sim.scheduleAt(305, [&b] { b.rider->forget(); });
    b.offerBeat(400, 3);
    b.sim.run();
    // The split keeps the head in flight at 305; detection then needs
    // two fresh discrete edges before the third starts a train.
    EXPECT_EQ(b.discrete, (std::vector<bool>{true, true, false, false,
                                             true, true, false}));
    EXPECT_EQ(b.sink.edges,
              Beat::expected({{0, true}, {100, false}, {200, true},
                              {300, false}, {400, true}, {500, false},
                              {600, true}}));
    EXPECT_EQ(b.rider->trainsStarted(), 2u);
}

TEST(TrainRider, ZeroMaxEdgesNeverRides)
{
    Beat b;
    b.offerBeat(0, 20);
    b.sim.run();
    EXPECT_EQ(b.discrete, std::vector<bool>(20, true));
    EXPECT_EQ(b.sink.edges.size(), 20u);
    EXPECT_EQ(b.rider->trainsStarted(), 0u);
    EXPECT_EQ(b.sim.queue().trainsScheduled(), 0u);
}

TEST(TrainRider, DestroyingARiderMidTrainCancelsItsTrain)
{
    Beat b;
    b.rider->setMaxEdges(8);
    b.offerBeat(0, 4);
    // The edge offered at 300 rides the train and is due at 330.
    b.sim.scheduleAt(305, [&b] {
        ASSERT_TRUE(b.rider->pending());
        b.rider.reset();
    });
    b.sim.run();
    EXPECT_EQ(b.sink.edges,
              Beat::expected({{0, true}, {100, false}, {200, true}}));
    EXPECT_EQ(b.sim.queue().pendingTrainEdges(), 0u);
}

TEST(BeatDetector, ClassifiesEdgesWithoutAKernel)
{
    constexpr BeatEdge D = BeatEdge::Discrete, H = BeatEdge::Head,
                       C = BeatEdge::Confirmed;
    auto yes = [] { return true; };
    BeatDetector d;
    d.setMaxEdges(4);
    // Two discrete edges, a head and three confirmations exhaust a
    // train of four; the next on-beat edge chains a new head.
    std::vector<BeatEdge> got;
    for (SimTime i = 0; i < 8; ++i)
        got.push_back(d.offer(i * 100, 30, i % 2 == 0, yes));
    EXPECT_EQ(got, (std::vector<BeatEdge>{D, D, H, C, C, C, H, C}));
    // An off-beat edge splits the ride.
    EXPECT_EQ(d.offer(850, 30, true, yes), D);
    EXPECT_FALSE(d.riding());
    // A resumed beat heads a train at once; a refused confirmation
    // splits it.
    d.resumeBeat(1000, 100);
    EXPECT_EQ(d.offer(1100, 30, true, yes), H);
    EXPECT_EQ(d.period(), 100u);
    EXPECT_EQ(d.offer(1200, 30, false, [] { return false; }), D);
    // A zero gap only forgets: two discrete edges before the head.
    d.resumeBeat(1300, 0);
    got.clear();
    for (SimTime t = 1400; t < 1800; t += 100)
        got.push_back(d.offer(t, 30, t % 200 == 0, yes));
    EXPECT_EQ(got, (std::vector<BeatEdge>{D, D, H, C}));
}

} // namespace
