/**
 * @file
 * The batched-edge-delivery semantics guard: over a pile of seeded
 * randomized scenarios -- interjection storms, priority arbitration,
 * broadcasts, power gating, full addressing, multi-lane rings, and
 * near-maximum clock rates where event times collide -- a run with
 * edge trains enabled must produce the all-discrete run's whole
 * record, VCD bytes included, model costs aside
 * (tests/record_equality.hh), while retiring strictly fewer kernel
 * events. Chunked dispatch is held to the same record, the same
 * kernel events and fewer listener calls.
 *
 * This is the property the ISSUE's Fig 5/6/7 acceptance rests on:
 * trains are a scheduler optimization, never a semantics change. A
 * glitch or interjection arriving mid-train splits the train; the
 * committed in-flight edge still delivers (transport semantics), so
 * the waveform cannot tell the two paths apart.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "sim/random.hh"
#include "sweep/scenario.hh"
#include "tests/record_equality.hh"

using namespace mbus;
using sweep::ScenarioSpec;
using sweep::ScenarioStats;
using sweep::TrafficPattern;

namespace {

/** Runs @p spec with the kernel switch @p knob on (first) and off,
 *  VCD captured both times, and expects the same record, model costs
 *  aside: the switch may change what the simulator spends, never a
 *  waveform byte or a protocol outcome. */
std::pair<ScenarioStats, ScenarioStats>
runOnAndOff(const ScenarioSpec &spec, std::uint64_t seed,
            bool ScenarioSpec::*knob)
{
    ScenarioSpec on = spec;
    on.*knob = true;
    on.captureVcd = true;
    ScenarioSpec off = spec;
    off.*knob = false;
    off.captureVcd = true;
    ScenarioStats a = sweep::runScenario(on, seed);
    ScenarioStats b = sweep::runScenario(off, seed);
    EXPECT_TRUE(test::sameRecord(a, b, test::Except::ModelCosts));
    return {std::move(a), std::move(b)};
}

/** Edge trains: the same record from strictly fewer kernel events. */
void
expectTrainsSaveEvents(const ScenarioSpec &spec, std::uint64_t seed)
{
    SCOPED_TRACE("spec=" + spec.name + " seed=" + std::to_string(seed));
    auto [a, b] = runOnAndOff(spec, seed, &ScenarioSpec::edgeTrains);
    EXPECT_LT(a.eventsExecuted, b.eventsExecuted);
    EXPECT_GT(a.trainEdges, 0u);
    EXPECT_EQ(b.trainEdges, 0u);
}

/** Chunked dispatch: the same record, the same kernel schedule (events
 *  and train edges), and strictly fewer listener virtual calls. */
void
expectChunkingSavesCalls(const ScenarioSpec &spec, std::uint64_t seed)
{
    SCOPED_TRACE("spec=" + spec.name + " seed=" + std::to_string(seed));
    auto [a, b] = runOnAndOff(spec, seed, &ScenarioSpec::chunkedDispatch);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.trainEdges, b.trainEdges);
    EXPECT_LT(a.dispatchCalls, b.dispatchCalls);
}

TEST(TrainEquivalence, RandomizedScenariosAreByteIdentical)
{
    sim::Random rng(0xeda3u);
    for (int i = 0; i < 36; ++i) {
        ScenarioSpec spec;
        spec.name = "eq" + std::to_string(i);
        spec.nodes = 2 + static_cast<int>(rng.below(13));
        spec.traffic = static_cast<TrafficPattern>(rng.below(4));
        spec.messages = 3 + static_cast<int>(rng.below(5));
        spec.payloadBytes = 1 + rng.below(12);
        spec.priorityRate = rng.uniform() * 0.5;
        spec.interjectRate = rng.uniform() * 0.6;
        spec.powerGated = rng.chance(0.5);
        spec.fullAddressing = rng.chance(0.3);
        expectTrainsSaveEvents(
            spec, 0x5eed0000u + static_cast<std::uint64_t>(i));
    }
}

TEST(TrainEquivalence, NearMaxClockCellsAreByteIdentical)
{
    // Event-time collisions (a hop delivery landing exactly on the
    // next latch edge) are where naive batching would reorder
    // same-time events; probe right at the conservative limit.
    for (int n : {3, 6, 10, 14}) {
        ScenarioSpec spec;
        spec.name = "eq_hf" + std::to_string(n);
        spec.nodes = n;
        double hop_s = 10e-9;
        spec.busClockHz = 0.999 / (2.0 * hop_s * (n + 2));
        spec.messages = 4;
        spec.payloadBytes = 6;
        spec.interjectRate = 0.3;
        expectTrainsSaveEvents(spec, 0xc10cull + static_cast<std::uint64_t>(n));
    }
}

TEST(TrainEquivalence, MultiLaneRingsAreByteIdentical)
{
    for (int lanes : {2, 4}) {
        ScenarioSpec spec;
        spec.name = "eq_lanes" + std::to_string(lanes);
        spec.nodes = 5;
        spec.dataLanes = lanes;
        spec.messages = 5;
        spec.payloadBytes = 8;
        spec.interjectRate = 0.25;
        spec.priorityRate = 0.25;
        expectTrainsSaveEvents(spec,
                            0x1a9e5ull + static_cast<std::uint64_t>(lanes));
    }
}

TEST(TrainEquivalence, InterjectionStormMidTrainSplitsCleanly)
{
    // Heavy storms: every message gets a third-party interjection,
    // cutting CLK trains mid-flight over and over.
    for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
        ScenarioSpec spec;
        spec.name = "eq_storm" + std::to_string(seed);
        spec.nodes = 7;
        spec.messages = 6;
        spec.payloadBytes = 16;
        spec.interjectRate = 1.0;
        expectTrainsSaveEvents(spec, seed);
    }
}

TEST(TrainEquivalence, ChunkedDispatchIsByteIdentical)
{
    sim::Random rng(0xd15bu);
    for (int i = 0; i < 18; ++i) {
        ScenarioSpec spec;
        spec.name = "eqcd" + std::to_string(i);
        spec.nodes = 2 + static_cast<int>(rng.below(13));
        spec.traffic = static_cast<TrafficPattern>(rng.below(4));
        spec.messages = 3 + static_cast<int>(rng.below(5));
        spec.payloadBytes = 1 + rng.below(12);
        spec.priorityRate = rng.uniform() * 0.5;
        spec.interjectRate = rng.uniform() * 0.6;
        spec.powerGated = rng.chance(0.5);
        spec.fullAddressing = rng.chance(0.3);
        expectChunkingSavesCalls(
            spec, 0xcd5eed00u + static_cast<std::uint64_t>(i));
    }
}

TEST(TrainEquivalence, ChunkedDispatchWithoutTrainsIsByteIdentical)
{
    // Chunking composes with the all-discrete scheduler too: muted
    // inputs and the epoch pull skip calls, never edges.
    sim::Random rng(0xd15c0u);
    for (int i = 0; i < 6; ++i) {
        ScenarioSpec spec;
        spec.name = "eqcd_nt" + std::to_string(i);
        spec.edgeTrains = false;
        spec.nodes = 3 + static_cast<int>(rng.below(8));
        spec.messages = 3 + static_cast<int>(rng.below(4));
        spec.payloadBytes = 1 + rng.below(10);
        spec.interjectRate = rng.uniform() * 0.5;
        expectChunkingSavesCalls(
            spec, 0xcdd15cu + static_cast<std::uint64_t>(i));
    }
}

TEST(TrainEquivalence, BitbangCoalescingIsByteIdentical)
{
    // The mixed ring adds the software member's coalesced CLK ISR
    // retirement trains on top of the net-level trains; switching
    // edgeTrains off disables both at once, so this A/B covers the
    // ISR confirm-or-split path against the fully discrete engine.
    sim::Random rng(0xb17bau);
    for (int i = 0; i < 4; ++i) {
        ScenarioSpec spec;
        spec.name = "eqbb" + std::to_string(i);
        spec.backend = backend::BackendKind::Bitbang;
        spec.nodes = 3 + static_cast<int>(rng.below(4));
        spec.messages = 2 + static_cast<int>(rng.below(3));
        spec.payloadBytes = 1 + rng.below(6);
        spec.interjectRate = rng.uniform() * 0.4;
        expectTrainsSaveEvents(
            spec, 0xbb5eed00u + static_cast<std::uint64_t>(i));
    }
}

TEST(TrainEquivalence, BitbangChunkedDispatchIsByteIdentical)
{
    for (int n : {3, 5}) {
        ScenarioSpec spec;
        spec.name = "eqbbcd" + std::to_string(n);
        spec.backend = backend::BackendKind::Bitbang;
        spec.nodes = n;
        spec.messages = 3;
        spec.payloadBytes = 4;
        expectChunkingSavesCalls(
            spec, 0xbbcd00u + static_cast<std::uint64_t>(n));
    }
}

} // namespace
