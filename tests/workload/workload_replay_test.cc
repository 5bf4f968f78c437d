/**
 * @file
 * Determinism properties of workload-driven sweep cells, mirroring
 * sweep_replay_test: same spec + seed must produce byte-identical
 * VCD and stats regardless of worker-thread count, and any cell
 * replays solo (runCell) with identical per-actor stats.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sweep/sweep.hh"
#include "tests/record_equality.hh"

using namespace mbus;

namespace {

/** A randomized-but-seeded workload grid mixing every knob. */
std::vector<sweep::ScenarioSpec>
randomWorkloadGrid(std::uint64_t seed, std::size_t cells,
                   bool captureVcd)
{
    sim::Random rng(seed);
    std::vector<sweep::ScenarioSpec> grid;
    grid.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = "wl" + std::to_string(i);
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.powerGated = rng.chance(0.5);
        s.captureVcd = captureVcd;

        workload::WorkloadSpec &w = s.workload;
        w.name = "mix" + std::to_string(i);
        w.durationS = 0.2 + 0.2 * rng.uniform();

        workload::ActorSpec sensor;
        sensor.kind = workload::ActorKind::PeriodicSensor;
        sensor.node = 1;
        sensor.dest = 0;
        sensor.periodS = 0.02 + 0.02 * rng.uniform();
        sensor.jitterFrac = 0.3 * rng.uniform();
        sensor.payloadBytes = 1 + rng.below(16);
        w.actors.push_back(sensor);

        workload::ActorSpec imager;
        imager.kind = workload::ActorKind::BurstImager;
        imager.node = 2;
        imager.dest = 0;
        imager.periodS = 0.1;
        imager.payloadBytes = 32;
        imager.burstBytes = 64 + rng.below(256);
        w.actors.push_back(imager);

        if (rng.chance(0.6)) {
            workload::ActorSpec irq;
            irq.kind = workload::ActorKind::Interrupter;
            irq.node = static_cast<int>(rng.between(
                1, static_cast<std::uint64_t>(s.nodes - 1)));
            irq.dest = irq.node == 1 ? 2 : 0;
            irq.periodS = 0.05;
            irq.priority = true;
            irq.payloadBytes = 2;
            w.actors.push_back(irq);
        }

        if (rng.chance(0.7)) {
            workload::ScheduleSpec storm;
            storm.kind = workload::ScheduleKind::InterjectionStorm;
            storm.atS = 0.05;
            storm.durationS = w.durationS / 2;
            storm.rateHz = 20 + 40 * rng.uniform();
            w.schedules.push_back(storm);
        }
        if (rng.chance(0.5)) {
            workload::ScheduleSpec fault;
            fault.kind = workload::ScheduleKind::NodeFault;
            fault.atS = 0.08;
            fault.durationS = 0.05;
            w.schedules.push_back(fault);
        }
        if (rng.chance(0.4)) {
            workload::ScheduleSpec gate;
            gate.kind = workload::ScheduleKind::PowerGateWindow;
            gate.node = 2;
            gate.atS = 0.02;
            gate.durationS = 0.04;
            w.schedules.push_back(gate);
        }
        if (rng.chance(0.4)) {
            workload::ScheduleSpec retime;
            retime.kind = workload::ScheduleKind::ClockRetiming;
            retime.atS = 0.1;
            retime.clockHz = rng.chance(0.5) ? 1e6 : 200e3;
            w.schedules.push_back(retime);
        }
        grid.push_back(std::move(s));
    }
    return grid;
}

} // namespace

TEST(WorkloadReplay, CellsReplaySoloWithIdenticalActorStatsAndVcd)
{
    auto grid = randomWorkloadGrid(0xA0C70501, 10, /*captureVcd=*/true);
    sweep::SweepConfig cfg;
    cfg.threads = 4;
    sweep::SweepDriver driver(cfg);
    sweep::SweepResult sharded = driver.run(grid);
    ASSERT_EQ(sharded.size(), grid.size());

    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        sweep::CellResult solo = driver.runCell(grid[i], i);
        EXPECT_EQ(solo.seed, sharded.cell(i).seed);
        ASSERT_GT(solo.stats.vcdBytes, 0u);
        EXPECT_TRUE(test::sameRecord(sharded.cell(i).stats, solo.stats));
    }
}

TEST(WorkloadReplay, SweepIsByteIdenticalAcrossThreadCounts)
{
    auto grid = randomWorkloadGrid(0xBEEF50, 14, /*captureVcd=*/false);
    sweep::SweepConfig wide;
    wide.threads = 4;
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
        << "sharded workload CSV diverged from single-threaded CSV";
    EXPECT_EQ(jsonA.str(), jsonB.str());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    sweep::SweepAggregate agg = a.aggregate();
    EXPECT_EQ(agg.cells, grid.size());
    EXPECT_GT(agg.samplesDelivered, 0u);
    EXPECT_EQ(agg.mismatches, 0u);
    EXPECT_EQ(agg.wedgedCells, 0u);
    // Terminal-outcome invariant holds over actor fragments.
    EXPECT_EQ(agg.planned, agg.acked + agg.naked + agg.broadcasts +
                               agg.interrupted + agg.rxAborts +
                               agg.failed);
}

TEST(WorkloadReplay, PerActorColumnsReachTheCsv)
{
    auto grid = randomWorkloadGrid(0xC0FFEE, 2, /*captureVcd=*/false);
    sweep::SweepResult r =
        sweep::SweepDriver(sweep::SweepConfig{}).run(grid);
    std::ostringstream os;
    r.writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("actor_lat_p50_s"), std::string::npos);
    EXPECT_NE(csv.find("actor_lat_p95_s"), std::string::npos);
    EXPECT_NE(csv.find("actor_lat_p99_s"), std::string::npos);
    EXPECT_NE(csv.find("actor_energy_per_sample_j"), std::string::npos);
    EXPECT_NE(csv.find("missed_deadlines"), std::string::npos);
    EXPECT_NE(csv.find("sensor_n1|imager_n2"), std::string::npos)
        << "per-actor names missing from CSV rows:\n" << csv;
}
