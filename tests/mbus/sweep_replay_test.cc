/**
 * @file
 * Randomized shard-count-independence properties for the sweep
 * engine.
 *
 * The driver's contract is that a sweep is a pure function of
 * (masterSeed, grid): worker-thread count must never leak into any
 * deterministic byte. These tests run randomized grids sharded wide,
 * then (a) replay randomly chosen cells solo and demand identical
 * stats and identical VCD bytes, and (b) re-run whole sweeps
 * single-threaded and demand byte-identical CSV output.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

/** A randomized-but-seeded 64-cell grid mixing every knob. */
std::vector<sweep::ScenarioSpec>
randomGrid(std::uint64_t seed, std::size_t cells, bool captureVcd)
{
    sim::Random rng(seed);
    std::vector<sweep::ScenarioSpec> grid;
    grid.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = "cell" + std::to_string(i);
        s.nodes = static_cast<int>(rng.between(2, 6));
        s.payloadBytes = rng.below(17);
        s.messages = static_cast<int>(rng.between(1, 4));
        s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
        s.fullAddressing = rng.chance(0.3);
        s.powerGated = rng.chance(0.3);
        s.priorityRate = rng.chance(0.5) ? 0.5 : 0.0;
        s.interjectRate = rng.chance(0.4) ? 0.35 : 0.0;
        s.dataLanes = rng.chance(0.2) ? 2 : 1;
        s.captureVcd = captureVcd;
        grid.push_back(std::move(s));
    }
    return grid;
}

/** Field-by-field equality over every deterministic stat. */
void
expectIdenticalStats(const sweep::ScenarioStats &a,
                     const sweep::ScenarioStats &b)
{
    EXPECT_EQ(a.planned, b.planned);
    EXPECT_EQ(a.acked, b.acked);
    EXPECT_EQ(a.naked, b.naked);
    EXPECT_EQ(a.broadcasts, b.broadcasts);
    EXPECT_EQ(a.interrupted, b.interrupted);
    EXPECT_EQ(a.rxAborts, b.rxAborts);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.bytesDelivered, b.bytesDelivered);
    EXPECT_EQ(a.payloadMismatches, b.payloadMismatches);
    EXPECT_EQ(a.wedged, b.wedged);
    // Doubles must be bit-identical, not just close: each cell is a
    // single-threaded computation of fixed order.
    EXPECT_EQ(a.txPerSecond, b.txPerSecond);
    EXPECT_EQ(a.goodputBps, b.goodputBps);
    EXPECT_EQ(a.eventsPerBit, b.eventsPerBit);
    EXPECT_EQ(a.switchingJ, b.switchingJ);
    EXPECT_EQ(a.leakageJ, b.leakageJ);
    EXPECT_EQ(a.avgTxLatencyS, b.avgTxLatencyS);
    EXPECT_EQ(a.firstTxLatencyS, b.firstTxLatencyS);
    EXPECT_EQ(a.avgCyclesPerTx, b.avgCyclesPerTx);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
    EXPECT_EQ(a.clockCycles, b.clockCycles);
    EXPECT_EQ(a.arbitrationRetries, b.arbitrationRetries);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.vcdBytes, b.vcdBytes);
    EXPECT_EQ(a.vcdHash, b.vcdHash);
    EXPECT_EQ(a.vcd, b.vcd) << "VCD waveform bytes diverged";
}

} // namespace

TEST(SweepReplay, RandomCellsReplaySoloWithIdenticalWaveforms)
{
    auto grid = randomGrid(0x5EEDCE115ULL, 64, /*captureVcd=*/true);
    sweep::SweepConfig cfg;
    cfg.threads = 6;
    sweep::SweepDriver driver(cfg);
    sweep::SweepResult sharded = driver.run(grid);
    ASSERT_EQ(sharded.size(), 64u);

    // Re-run 8 randomly chosen cells single-threaded; each must
    // reproduce its sharded twin bit for bit, waveform included.
    sim::Random pick(20260731);
    for (int k = 0; k < 8; ++k) {
        std::size_t i = pick.below(64);
        SCOPED_TRACE("cell " + std::to_string(i));
        sweep::CellResult solo = driver.runCell(grid[i], i);
        EXPECT_EQ(solo.seed, sharded.cell(i).seed);
        ASSERT_GT(solo.stats.vcdBytes, 0u);
        expectIdenticalStats(sharded.cell(i).stats, solo.stats);
    }
}

TEST(SweepReplay, HundredCellSweepIsByteIdenticalAcrossShardCounts)
{
    // The headline acceptance property: a 120-cell sweep sharded
    // across >= 4 worker threads emits byte-identical aggregated
    // results to the same sweep run single-threaded.
    auto grid = randomGrid(0xBEEF, 120, /*captureVcd=*/false);

    sweep::SweepConfig wide;
    wide.threads = 5;
    sweep::SweepConfig narrow;
    narrow.threads = 1;

    sweep::SweepResult a = sweep::SweepDriver(wide).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(narrow).run(grid);

    std::ostringstream csvA, csvB, jsonA, jsonB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    a.writeJson(jsonA);
    b.writeJson(jsonB);
    EXPECT_EQ(csvA.str(), csvB.str())
        << "sharded CSV diverged from single-threaded CSV";
    EXPECT_EQ(jsonA.str(), jsonB.str());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // Sanity: the sweep did real work.
    sweep::SweepAggregate agg = a.aggregate();
    EXPECT_EQ(agg.cells, 120u);
    EXPECT_GT(agg.acked, 0u);
    EXPECT_EQ(agg.mismatches, 0u);
    EXPECT_EQ(agg.wedgedCells, 0u);
    // Every planned message reached exactly one terminal status.
    EXPECT_EQ(agg.planned, agg.acked + agg.naked + agg.broadcasts +
                               agg.interrupted + agg.rxAborts +
                               agg.failed);
}

TEST(SweepReplay, MasterSeedSelectsDistinctUniverses)
{
    auto grid = randomGrid(7, 8, /*captureVcd=*/false);
    sweep::SweepConfig s1;
    s1.masterSeed = 1;
    sweep::SweepConfig s2;
    s2.masterSeed = 2;
    sweep::SweepResult a = sweep::SweepDriver(s1).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(s2).run(grid);
    EXPECT_NE(a.fingerprint(), b.fingerprint())
        << "different master seeds produced identical sweeps";
}
