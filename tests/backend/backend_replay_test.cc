/**
 * @file
 * Cross-backend determinism properties:
 *
 *  - the backend axis composes with the sweep driver: one grid
 *    carrying all five fabrics is byte-identical (CSV + JSON +
 *    fingerprint) across worker-thread counts, and every cell
 *    replays solo (runCell) with identical stats and VCD bytes,
 *    delivers samples and gives every planned message one terminal
 *    status;
 *  - the MBus backend is behaviour-preserving: VCD hashes, byte
 *    counts, ack counts and kernel-event counts of four
 *    representative scenarios equal the captures taken on the
 *    pre-refactor code path (runScenario driving MBusSystem
 *    directly), pinning "backend seam changed nothing" forever;
 *  - classic (non-workload) traffic also runs on the I2C fabrics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/bench_util.hh"
#include "sweep/sweep.hh"
#include "tests/record_equality.hh"

using namespace mbus;
using namespace mbus::sweep;

namespace {

/** A compact canonical-mix cell for a given backend. */
ScenarioSpec
mixCell(backend::BackendKind kind, double storm, double durationS)
{
    ScenarioSpec s = benchutil::canonicalWorkloadCell(
        /*nodes=*/3, /*clockHz=*/400e3, storm, /*smoke=*/true);
    s.workload.durationS = durationS;
    s.backend = kind;
    s.captureVcd = true;
    s.name = std::string(backend::backendKindName(kind)) +
             (storm > 0 ? "_storm" : "_quiet");
    return s;
}

} // namespace

TEST(BackendReplay, GoldenMbusVcdIdentity)
{
    // Captured on the pre-refactor code path (scenario layer driving
    // MBusSystem directly); the backend seam must not change a byte.
    struct Golden
    {
        const char *name;
        std::uint64_t vcdHash;
        std::size_t vcdBytes;
        int acked;
        std::uint64_t events;
    };
    const Golden kGolden[] = {
        {"golden_default", 0x2b9c85403c4adba6ULL, 29970u, 8, 1037},
        {"golden_stormy", 0xabd50caa269baa58ULL, 68876u, 9, 2717},
        {"golden_gated_bcast", 0x58bf8c03d88bd6fcULL, 78058u, 10,
         2329},
        {"golden_workload", 0x2e6d7350b94a3fd9ULL, 4513097u, 54,
         74899},
    };

    std::vector<ScenarioSpec> grid;
    {
        ScenarioSpec s;
        s.name = "golden_default";
        s.captureVcd = true;
        grid.push_back(s);
    }
    {
        ScenarioSpec s;
        s.name = "golden_stormy";
        s.nodes = 6;
        s.dataLanes = 2;
        s.traffic = TrafficPattern::RandomPairs;
        s.messages = 10;
        s.payloadBytes = 6;
        s.priorityRate = 0.3;
        s.interjectRate = 0.3;
        s.captureVcd = true;
        grid.push_back(s);
    }
    {
        ScenarioSpec s;
        s.nodes = 5;
        s.name = "golden_gated_bcast";
        s.powerGated = true;
        s.fullAddressing = true;
        s.traffic = TrafficPattern::BroadcastMix;
        s.messages = 12;
        s.captureVcd = true;
        grid.push_back(s);
    }
    {
        ScenarioSpec s = benchutil::canonicalWorkloadCell(
            4, 400e3, 0.15, /*smoke=*/true);
        s.name = "golden_workload";
        s.workload.durationS = 4.0;
        s.captureVcd = true;
        grid.push_back(s);
    }

    SweepDriver driver;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        CellResult c = driver.runCell(grid[i], i);
        SCOPED_TRACE(kGolden[i].name);
        EXPECT_EQ(c.stats.vcdHash, kGolden[i].vcdHash);
        EXPECT_EQ(c.stats.vcdBytes, kGolden[i].vcdBytes);
        EXPECT_EQ(c.stats.acked, kGolden[i].acked);
        EXPECT_EQ(c.stats.eventsExecuted, kGolden[i].events);
        EXPECT_FALSE(c.stats.wedged);
        EXPECT_EQ(c.stats.payloadMismatches, 0u);
    }
}

TEST(BackendReplay, FourBackendGridShardedVsSoloByteIdentity)
{
    std::vector<ScenarioSpec> grid;
    for (backend::BackendKind kind : benchutil::kFiveFabrics) {
        grid.push_back(mixCell(kind, 0.0, 3.0));
        grid.push_back(mixCell(kind, 0.2, 3.0));
    }

    SweepConfig four;
    four.threads = 4;
    SweepConfig one;
    one.threads = 1;
    SweepResult a = SweepDriver(four).run(grid);
    SweepResult b = SweepDriver(one).run(grid);

    std::ostringstream csvA, csvB, jsonA, jsonB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    a.writeJson(jsonA);
    b.writeJson(jsonB);
    EXPECT_EQ(csvA.str(), csvB.str());
    EXPECT_EQ(jsonA.str(), jsonB.str());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // Every cell replays solo with identical stats and waveform.
    SweepDriver solo(one);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        CellResult c = solo.runCell(grid[i], i);
        const ScenarioStats &y = c.stats;
        SCOPED_TRACE(grid[i].name);
        EXPECT_TRUE(test::sameRecord(a.cell(i).stats, y));
        EXPECT_FALSE(y.wedged);
        EXPECT_EQ(y.payloadMismatches, 0u);
        EXPECT_GT(y.samplesDelivered, 0);
        EXPECT_EQ(y.planned, y.acked + y.naked + y.broadcasts +
                                 y.interrupted + y.rxAborts + y.failed);
    }
}

TEST(BackendReplay, OneWorkloadComparesAllFabricsInOneCsv)
{
    // The acceptance shape: one WorkloadSpec, four fabrics, one CSV
    // row each with energy/sample, latency percentiles and lifetime.
    std::vector<ScenarioSpec> grid;
    for (backend::BackendKind kind :
         {backend::BackendKind::Mbus, backend::BackendKind::I2cStd,
          backend::BackendKind::I2cOracle,
          backend::BackendKind::Bitbang})
        grid.push_back(mixCell(kind, 0.1, 3.0));

    SweepResult r = SweepDriver().run(grid);
    std::ostringstream os;
    r.writeCsv(os);
    std::string csv = os.str();
    for (const char *needle :
         {"backend", "energy_per_sample_j", "lifetime_days",
          "lat_p99_s", "mbus", "i2c_std", "i2c_oracle", "bitbang"})
        EXPECT_NE(csv.find(needle), std::string::npos) << needle;

    // Each fabric delivered the mix, and the paper's energy ordering
    // holds: MBus < oracle I2C < standard I2C < bit-banged member.
    for (const CellResult &c : r.cells()) {
        EXPECT_GT(c.stats.samplesDelivered, 0) << c.spec.name;
        EXPECT_GT(c.stats.latencyP99S, 0.0) << c.spec.name;
        EXPECT_GT(c.stats.energyPerSampleJ, 0.0) << c.spec.name;
    }
    double mbusJ = r.cell(0).stats.energyPerSampleJ;
    double stdJ = r.cell(1).stats.energyPerSampleJ;
    double oracleJ = r.cell(2).stats.energyPerSampleJ;
    double bitbangJ = r.cell(3).stats.energyPerSampleJ;
    EXPECT_LT(mbusJ, oracleJ);
    EXPECT_LT(oracleJ, stdJ);
    EXPECT_LT(stdJ, bitbangJ);
}

TEST(BackendReplay, ClassicTrafficRunsOnI2cFabrics)
{
    std::vector<ScenarioSpec> grid;
    for (backend::BackendKind kind :
         {backend::BackendKind::I2cStd,
          backend::BackendKind::I2cOracle}) {
        for (TrafficPattern t :
             {TrafficPattern::SingleSender, TrafficPattern::RandomPairs,
              TrafficPattern::AllToOne, TrafficPattern::BroadcastMix}) {
            ScenarioSpec s;
            s.backend = kind;
            s.nodes = 5;
            s.traffic = t;
            s.messages = 12;
            s.payloadBytes = 6;
            s.interjectRate = 0.25;
            s.name = std::string(backend::backendKindName(kind)) +
                     "_" + trafficPatternName(t);
            grid.push_back(std::move(s));
        }
    }
    SweepConfig two;
    two.threads = 2;
    SweepResult a = SweepDriver(two).run(grid);
    SweepConfig one;
    one.threads = 1;
    SweepResult b = SweepDriver(one).run(grid);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    for (const CellResult &c : a.cells()) {
        SCOPED_TRACE(c.spec.name);
        const ScenarioStats &s = c.stats;
        EXPECT_FALSE(s.wedged);
        EXPECT_EQ(s.payloadMismatches, 0u);
        // Every planned message reached exactly one terminal status.
        EXPECT_EQ(s.planned, s.acked + s.naked + s.broadcasts +
                                 s.interrupted + s.rxAborts + s.failed);
    }
}
