/**
 * @file
 * Pool-behaviour tests for the slab-allocated event kernel:
 * steady-state zero-allocation scheduling, slot recycling, handle
 * validity across slab generations, and cancellation edge cases.
 *
 * The allocation assertions use the counting global operator new
 * (tests/alloc_counter.hh): the kernel's contract is that once warm,
 * schedule/execute cycles touch the allocator not at all.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "tests/alloc_counter.hh"

using namespace mbus::sim;

namespace {

/** A self-rescheduling tick: the mediator's clock-generation shape. */
struct Tick
{
    Simulator *sim;
    int *remaining;

    void
    operator()() const
    {
        if (--*remaining > 0)
            sim->schedule(1000, Tick{sim, remaining});
    }
};

TEST(KernelPool, SteadyStateSchedulingDoesNotAllocate)
{
    Simulator sim;

    // Warm-up: let the slab, heap vector, and free list settle.
    for (int i = 0; i < 100; ++i)
        sim.schedule(1, [] {});
    sim.run();

    int remaining = 10000;
    std::uint64_t before = gAllocs.load();
    sim.schedule(1000, Tick{&sim, &remaining});
    sim.run();
    std::uint64_t after = gAllocs.load();

    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/execute cycles must not allocate";
    EXPECT_EQ(sim.queue().heapCallbackCount(), 0u);
}

TEST(KernelPool, SlabSlotsAreRecycledNotGrown)
{
    EventQueue q;
    // 100k sequential schedule/fire cycles with at most two events
    // in flight reuse the same slots instead of growing the slab.
    int fired = 0;
    for (int i = 0; i < 100000; ++i) {
        q.schedule(static_cast<SimTime>(i), [&fired] { ++fired; });
        if (q.size() >= 2)
            q.executeNext();
    }
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, 100000);
    EXPECT_LE(q.slabSlots(), 256u) << "slab grew despite recycling";
    EXPECT_EQ(q.slabGrowths(), 0u)
        << "no chunk beyond the initial one should be needed";
}

TEST(KernelPool, HandleStaysValidAcrossSlabGenerations)
{
    EventQueue q;
    bool firstFired = false;
    EventHandle first = q.schedule(10, [&] { firstFired = true; });
    q.executeNext();
    EXPECT_TRUE(firstFired);
    EXPECT_FALSE(first.pending());

    // The next event reuses the same slot (single free slot); the
    // stale handle must neither report pending nor cancel it.
    bool secondFired = false;
    EventHandle second = q.schedule(20, [&] { secondFired = true; });
    EXPECT_FALSE(first.pending());
    first.cancel(); // Stale: must be a no-op on the new occupant.
    EXPECT_TRUE(second.pending());
    q.executeNext();
    EXPECT_TRUE(secondFired);
    EXPECT_FALSE(second.pending());
}

TEST(KernelPool, CancelAfterFireAcrossManyReuses)
{
    EventQueue q;
    // Stress generation bumping: the same slot cycles through many
    // generations; old handles never resurrect or kill new events.
    std::vector<EventHandle> handles;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
        handles.push_back(
            q.schedule(static_cast<SimTime>(i), [&fired] { ++fired; }));
        q.executeNext();
    }
    for (auto &h : handles) {
        EXPECT_FALSE(h.pending());
        h.cancel();
    }
    EXPECT_EQ(fired, 1000);
}

TEST(KernelPool, SelfCancelDuringExecutionIsNoop)
{
    EventQueue q;
    int count = 0;
    EventHandle h;
    h = q.schedule(1, [&] {
        ++count;
        EXPECT_FALSE(h.pending()) << "event must not look pending "
                                     "while it is executing";
        h.cancel(); // Must not corrupt the (already released) slot.
    });
    q.executeNext();
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.empty());
}

TEST(KernelPool, CancelDecouplesFromSlotReuseUnderChurn)
{
    EventQueue q;
    // Interleave schedules and cancels so freed slots are reused
    // while their stale heap entries still sit in the index.
    int fired = 0;
    std::vector<EventHandle> cancelled;
    for (int round = 0; round < 200; ++round) {
        EventHandle doomed = q.schedule(
            static_cast<SimTime>(1000 + round), [&fired] { fired += 1000000; });
        q.schedule(static_cast<SimTime>(round), [&fired] { ++fired; });
        doomed.cancel();
        cancelled.push_back(doomed);
    }
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(fired, 200) << "a cancelled event fired";
    for (auto &h : cancelled)
        EXPECT_FALSE(h.pending());
}

TEST(KernelPool, OversizedClosuresSpillToHeapButStillRun)
{
    EventQueue q;
    struct Big
    {
        char pad[2 * EventCallback::kInlineSize];
    } big{};
    big.pad[0] = 42;
    int seen = 0;
    q.schedule(1, [big, &seen] { seen = big.pad[0]; });
    EXPECT_EQ(q.heapCallbackCount(), 1u);
    q.executeNext();
    EXPECT_EQ(seen, 42);
}

TEST(KernelPool, EdgeTrainsDoNotAllocateAndRecycleTheirSlot)
{
    Simulator sim;

    struct CountingSink final : EdgeSink
    {
        std::uint64_t edges = 0;
        void onEdge(bool) override { ++edges; }
    } sink;

    // Warm-up: slab, heap vector, free list.
    for (int i = 0; i < 100; ++i)
        sim.schedule(1, [] {});
    sim.run();
    sim.scheduleEdgeTrain(1, 1, 64, sink, true);
    sim.run();

    // Steady state: scheduling, expanding, confirming and cancelling
    // trains must never touch the allocator.
    std::uint64_t before = gAllocs.load();
    for (int round = 0; round < 200; ++round) {
        sim.scheduleEdgeTrain(10, 10, 50, sink, true);
        sim.run();
        EventHandle spec =
            sim.scheduleSpeculativeEdgeTrain(10, 10, 50, sink, true);
        sim.run();            // Head fires, train goes dormant.
        spec.confirmTrainEdge();
        sim.run();            // Second edge fires.
        spec.cancel();        // Refund the dormant tail.
        EventHandle doomed =
            sim.scheduleEdgeTrain(10, 10, 50, sink, false);
        doomed.cancel();      // Refund a whole unexpanded train.
    }
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "train scheduling/expansion allocated";
    EXPECT_EQ(sim.queue().pendingTrainEdges(), 0u);
    EXPECT_LE(sim.queue().slabSlots(), 256u)
        << "train slots leaked instead of recycling";
    EXPECT_EQ(sim.queue().slabGrowths(), 0u);
    EXPECT_EQ(sink.edges, 64u + 200u * 52u);
}

TEST(KernelPool, SoaTagArraysSettleWithTheSlabAndStayAllocationFree)
{
    Simulator sim;

    struct CountingSink final : EdgeSink
    {
        std::uint64_t edges = 0;
        void onEdge(bool) override { ++edges; }
    } sink;

    // Cross a chunk boundary once so the slab AND the dense SoA tag
    // arrays (occupied/entry generation vectors, resized only in
    // addChunk) have grown to their working size.
    std::vector<EventHandle> handles;
    for (int i = 0; i < 300; ++i)
        handles.push_back(sim.schedule(1, [] {}));
    sim.run();
    handles.clear();
    const std::uint64_t growths = sim.queue().slabGrowths();
    ASSERT_GE(growths, 1u) << "expected to cross a chunk boundary";

    // Steady-state churn across every SoA hot path: plain closures,
    // pooled edges, trains, confirms, stale-handle cancels. Tag
    // reads/writes go through the dense arrays by slot index -- no
    // per-slot allocation, and no further array growth.
    std::uint64_t before = gAllocs.load();
    for (int round = 0; round < 500; ++round) {
        EventHandle e = sim.scheduleEdge(5, sink, (round & 1) != 0);
        sim.schedule(7, [] {});
        sim.scheduleEdgeTrain(10, 10, 16, sink, true);
        sim.run();
        e.cancel(); // Stale: exercises the dense-tag staleness check.
    }
    EXPECT_EQ(gAllocs.load() - before, 0u)
        << "SoA steady state touched the allocator";
    EXPECT_EQ(sim.queue().slabGrowths(), growths)
        << "tag arrays / slab regrew in steady state";
    EXPECT_EQ(sink.edges, 500u * 17u);
}

TEST(KernelPool, SameTimeFifoSurvivesSlotRecycling)
{
    EventQueue q;
    // Fire a batch first so the free list is shuffled, then check
    // FIFO ordering of same-time events scheduled into reused slots.
    for (int i = 0; i < 37; ++i)
        q.schedule(1, [] {});
    while (!q.empty())
        q.executeNext();

    std::vector<int> order;
    for (int i = 0; i < 37; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    ASSERT_EQ(order.size(), 37u);
    for (int i = 0; i < 37; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

} // namespace
