/**
 * @file
 * Shard-count-independence properties with the fault axis populated.
 *
 * Mirrors sweep_replay_test: faulty cells spanning all five fabrics
 * are sharded wide, randomly chosen cells replay solo with identical
 * stats and identical VCD bytes, and whole sweeps re-run
 * single-threaded emit byte-identical CSV/JSON. The fault schedule
 * compiles from the cell seed, so this pins the claim that faults are
 * an ordinary deterministic grid axis. Also covers the crash-safe
 * (temp file + atomic rename) report writers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"
#include "tests/record_equality.hh"

using namespace mbus;

namespace {

/** A randomized-but-seeded fault schedule: 1-3 entries, any kind. */
fault::FaultSpec
randomFaults(sim::Random &rng)
{
    fault::FaultSpec fs;
    fs.name = "fz";
    fs.watchdogEpochs = 32;
    std::size_t entries = 1 + rng.below(3);
    for (std::size_t j = 0; j < entries; ++j) {
        fault::FaultEntry e;
        e.kind = static_cast<fault::FaultKind>(rng.below(6));
        e.count = 1 + static_cast<int>(rng.below(2));
        e.startS = 0.0;
        e.endS = 0.02;
        e.durationS = 1e-4 + 9e-4 * rng.uniform();
        e.jitterFrac = 0.3;
        e.pulses = 1 + static_cast<int>(rng.below(4));
        e.driftFrac = 0.05;
        fs.entries.push_back(e);
    }
    return fs;
}

/** A faulty grid cycling through every fabric. */
std::vector<sweep::ScenarioSpec>
faultyGrid(std::uint64_t seed, std::size_t cells, bool captureVcd)
{
    sim::Random rng(seed);
    std::vector<sweep::ScenarioSpec> grid;
    grid.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = "fault_cell" + std::to_string(i);
        s.backend = benchutil::kFiveFabrics[i % 5];
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.payloadBytes = rng.below(9);
        s.messages = static_cast<int>(rng.between(1, 3));
        s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
        s.powerGated = rng.chance(0.3);
        s.captureVcd = captureVcd;
        s.faults = randomFaults(rng);
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;
        grid.push_back(std::move(s));
    }
    return grid;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

TEST(FaultReplay, FaultyCellsReplaySoloWithIdenticalWaveforms)
{
    auto grid = faultyGrid(0xFA17ULL, 40, /*captureVcd=*/true);
    sweep::SweepConfig cfg;
    cfg.threads = 6;
    sweep::SweepDriver driver(cfg);
    sweep::SweepResult sharded = driver.run(grid);
    ASSERT_EQ(sharded.size(), 40u);

    sim::Random pick(20260808);
    for (int k = 0; k < 6; ++k) {
        std::size_t i = pick.below(40);
        SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                     backend::backendKindName(grid[i].backend) + ")");
        sweep::CellResult solo = driver.runCell(grid[i], i);
        EXPECT_EQ(solo.seed, sharded.cell(i).seed);
        ASSERT_GT(solo.stats.vcdBytes, 0u);
        EXPECT_TRUE(test::sameRecord(sharded.cell(i).stats, solo.stats));
    }
}

TEST(FaultReplay, FaultySweepIsByteIdenticalAcrossShardCounts)
{
    auto grid = faultyGrid(0xD15EA5EULL, 60, /*captureVcd=*/false);

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
        << "sharded faulty CSV diverged from single-threaded CSV";
    EXPECT_EQ(jsonA.str(), jsonB.str());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    sweep::SweepAggregate agg = a.aggregate();
    EXPECT_EQ(agg.cells, 60u);
    EXPECT_EQ(agg.wedgedCells, 0u) << "a faulty cell wedged";
    EXPECT_GT(agg.faultEvents, 0u) << "no fault ever fired";
    // Faults and retries never lose a transaction: each planned one
    // still ends in exactly one terminal status.
    EXPECT_EQ(agg.planned, agg.acked + agg.naked + agg.broadcasts +
                               agg.interrupted + agg.rxAborts +
                               agg.failed);
    // The survivability columns reached the CSV.
    EXPECT_NE(csvA.str().find("fault_events"), std::string::npos);
    EXPECT_NE(csvA.str().find("recovered_tx"), std::string::npos);
    EXPECT_NE(csvA.str().find("outcome_counts"), std::string::npos);
}

TEST(FaultReplay, AtomicReportWritersLandCompleteFiles)
{
    auto grid = faultyGrid(0xCAFE, 5, /*captureVcd=*/false);
    sweep::SweepDriver driver;
    sweep::SweepResult r = driver.run(grid);

    std::string csvPath = "fault_replay_atomic.csv";
    std::string jsonPath = "fault_replay_atomic.json";
    ASSERT_TRUE(r.writeCsvFile(csvPath));
    ASSERT_TRUE(r.writeJsonFile(jsonPath));

    // The landed bytes equal the stream emission, and no temp file
    // is left behind (the rename consumed it).
    std::ostringstream csv, json;
    r.writeCsv(csv);
    r.writeJson(json);
    EXPECT_EQ(slurp(csvPath), csv.str());
    EXPECT_EQ(slurp(jsonPath), json.str());
    EXPECT_FALSE(std::ifstream(csvPath + ".tmp").good());
    EXPECT_FALSE(std::ifstream(jsonPath + ".tmp").good());
    std::remove(csvPath.c_str());
    std::remove(jsonPath.c_str());
}
