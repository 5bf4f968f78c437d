/**
 * @file
 * Zero-allocation regression for the sweep hot loop.
 *
 * Extends the counting-allocator checks (tests/alloc_counter.hh) of
 * tests/sim/kernel_pool_test.cc from the bare kernel to a sweep
 * worker's world: a full MBusSystem built the way runScenario builds
 * one. The contract: once a cell is warm, steady-state event
 * scheduling (the self-rescheduling tick shape that dominates a
 * sweep's runtime) touches the allocator not at all, and a warm
 * protocol transaction stays within a tiny constant allocation
 * budget (payload buffer hand-offs only -- never per-event boxing).
 */

#include <gtest/gtest.h>

#include "mbus/system.hh"
#include "sweep/scenario.hh"
#include "tests/alloc_counter.hh"

using namespace mbus;

namespace {

/** Build the same system shape runScenario builds for a cell. */
void
buildWorkerSystem(bus::MBusSystem &system, int nodes)
{
    for (int i = 0; i < nodes; ++i) {
        bus::NodeConfig nc;
        nc.name = "n" + std::to_string(i);
        nc.fullPrefix = 0x500u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = false;
        system.addNode(nc);
    }
    system.finalize();
}

/** The kernel's steady-state shape: a self-rescheduling tick. */
struct Tick
{
    sim::Simulator *sim;
    int *remaining;

    void
    operator()() const
    {
        if (--*remaining > 0)
            sim->schedule(1000, Tick{sim, remaining});
    }
};

TEST(SweepAlloc, SteadyStateSchedulingInAWorkerDoesNotAllocate)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator, {});
    buildWorkerSystem(system, 4);

    // Warm the cell exactly like a sweep worker does: real traffic.
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(4, bus::kFuMailbox);
    for (int i = 0; i < 3; ++i) {
        system.sendAndWait(1, msg, sim::kSecond);
        system.runUntilIdle(sim::kSecond);
    }

    // Steady state: 10k schedule/execute cycles, zero allocations.
    int remaining = 10000;
    std::uint64_t spilledBefore = simulator.queue().heapCallbackCount();
    std::uint64_t before = gAllocs.load();
    simulator.schedule(1000, Tick{&simulator, &remaining});
    simulator.run();
    std::uint64_t after = gAllocs.load();

    EXPECT_EQ(remaining, 0);
    EXPECT_EQ(after - before, 0u)
        << "steady-state scheduling inside a sweep worker allocated";
    EXPECT_EQ(simulator.queue().heapCallbackCount(), spilledBefore)
        << "tick closures spilled to the heap";
}

TEST(SweepAlloc, WarmTransactionsStayWithinAConstantBudget)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator, {});
    buildWorkerSystem(system, 4);

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(4, bus::kFuMailbox);
    for (int i = 0; i < 3; ++i) {
        system.sendAndWait(1, msg, sim::kSecond);
        system.runUntilIdle(sim::kSecond);
    }

    // A warm zero-payload transaction may allocate only the handful
    // of buffer hand-offs the message API implies (measured: 2). A
    // regression that boxes per-event closures would cost hundreds
    // per transaction -- one per clock edge.
    std::uint64_t before = gAllocs.load();
    system.sendAndWait(1, msg, sim::kSecond);
    system.runUntilIdle(sim::kSecond);
    std::uint64_t perTx = gAllocs.load() - before;
    EXPECT_LE(perTx, 6u)
        << "a warm transaction allocated " << perTx
        << " times; the scheduling path must stay allocation-free";
}

TEST(SweepAlloc, ScenarioEngineRunsDoNotLeakAllocationsAcrossRuns)
{
    // Two identical cells must cost the same number of allocations:
    // a growing cost would mean per-run state leaking into globals
    // (there are none) or allocator churn proportional to history.
    sweep::ScenarioSpec spec;
    spec.nodes = 3;
    spec.messages = 4;
    spec.payloadBytes = 4;

    (void)sweep::runScenario(spec, 99); // Warm malloc arenas.
    std::uint64_t before1 = gAllocs.load();
    (void)sweep::runScenario(spec, 99);
    std::uint64_t cost1 = gAllocs.load() - before1;
    std::uint64_t before2 = gAllocs.load();
    (void)sweep::runScenario(spec, 99);
    std::uint64_t cost2 = gAllocs.load() - before2;
    EXPECT_EQ(cost1, cost2)
        << "identical cells had different allocation costs";
}

} // namespace
