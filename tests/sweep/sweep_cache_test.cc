/**
 * @file
 * SweepConfig::cacheDir properties, in process:
 *
 *  - a cold cached multi-thread sweep is byte-identical to an
 *    uncached single-thread one, and a warm re-run simulates nothing;
 *  - a grown grid simulates exactly its new cells, entries stored
 *    under another harness salt are never served, and a corrupt entry
 *    is a miss;
 *  - a cache directory with missing parents is created, and one that
 *    cannot be written costs no bytes but counts every store failure;
 *  - a cached sweep SIGKILLed mid-run resumes from what it stored;
 *  - the harness salt is pinned to the stats the cache serves.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_util.hh"
#include "sim/hash.hh"
#include "sweep/cache.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"

using namespace mbus;
namespace fs = std::filesystem;

namespace {

/** Cheap cells cycling through all five fabrics, faults on every
 *  other cell so cached values carry real recovery payloads, and
 *  every fifth cell traced so served cells render the trace and
 *  metrics columns from decoded stats. Grid n is a prefix of grid
 *  n + k. */
std::vector<sweep::ScenarioSpec>
cacheGrid(std::size_t cells)
{
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = "cache" + std::to_string(i);
        s.backend = benchutil::kFiveFabrics[i % 5];
        s.nodes = 3 + static_cast<int>(i % 2);
        s.messages = 2;
        s.payloadBytes = 1 + i % 3;
        s.traffic = static_cast<sweep::TrafficPattern>(i % 4);
        if (i % 2 == 0) {
            fault::FaultEntry fe;
            fe.kind = fault::FaultKind::GlitchBurst;
            fe.endS = 1e-3;
            s.faults.entries.push_back(fe);
            s.faults.watchdogEpochs = 32;
            s.retry.maxRetries = 1;
            s.retry.backoffEpochs = 8;
        }
        if (i % 5 == 0) {
            s.trace.protocol = true;
            s.trace.flight = true;
        }
        grid.push_back(std::move(s));
    }
    return grid;
}

std::string
csvOf(const sweep::SweepResult &r)
{
    std::ostringstream os;
    r.writeCsv(os);
    return os.str();
}

std::string
jsonOf(const sweep::SweepResult &r)
{
    std::ostringstream os;
    r.writeJson(os);
    return os.str();
}

sweep::SweepResult
runSweep(const std::vector<sweep::ScenarioSpec> &grid, unsigned threads,
         const std::string &cacheDir = std::string())
{
    sweep::SweepConfig cfg;
    cfg.threads = threads;
    cfg.cacheDir = cacheDir;
    return sweep::SweepDriver(cfg).run(grid);
}

/** Cells simulated (not served) by a cached sweep. */
std::size_t
simulated(const sweep::SweepResult &r)
{
    return r.size() - r.cacheHits();
}

/** An empty directory at @p dir, whatever was there before. */
std::string
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Complete value files under @p dir (temp files excluded). */
std::size_t
cellFiles(const std::string &dir)
{
    std::error_code ec;
    std::size_t n = 0;
    for (const fs::directory_entry &e : fs::directory_iterator(dir, ec))
        if (e.path().extension() == ".cell")
            ++n;
    return n;
}

void
expectSameBytes(const sweep::SweepResult &a, const sweep::SweepResult &b)
{
    EXPECT_EQ(csvOf(a), csvOf(b));
    EXPECT_EQ(jsonOf(a), jsonOf(b));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

} // namespace

TEST(SweepCache, ColdCachedRunMatchesUncachedByByte)
{
    const std::string dir = freshDir("sweep_cache_cold");
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(10);
    sweep::SweepResult solo = runSweep(grid, 1);

    sweep::SweepResult cold = runSweep(grid, 4, dir);
    EXPECT_EQ(cold.cacheHits(), 0u);
    EXPECT_EQ(cold.cacheStoreFailures(), 0u);
    EXPECT_EQ(cellFiles(dir), grid.size());
    expectSameBytes(cold, solo);
    // Caching off: no counters move.
    EXPECT_EQ(solo.cacheHits(), 0u);
    EXPECT_EQ(solo.cacheStoreFailures(), 0u);
}

TEST(SweepCache, WarmRerunSimulatesNothing)
{
    const std::string dir = freshDir("sweep_cache_warm");
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(10);
    sweep::SweepResult solo = runSweep(grid, 1);
    runSweep(grid, 2, dir);

    sweep::SweepResult warm = runSweep(grid, 2, dir);
    EXPECT_EQ(simulated(warm), 0u);
    EXPECT_EQ(warm.cacheStoreFailures(), 0u);
    expectSameBytes(warm, solo);
}

TEST(SweepCache, GrownGridSimulatesOnlyNewCells)
{
    const std::string dir = freshDir("sweep_cache_grown");
    runSweep(cacheGrid(10), 2, dir);

    std::vector<sweep::ScenarioSpec> grown = cacheGrid(15);
    sweep::SweepResult ext = runSweep(grown, 2, dir);
    EXPECT_EQ(simulated(ext), 5u);
    EXPECT_EQ(ext.cacheHits(), 10u);
    EXPECT_EQ(ext.cacheStoreFailures(), 0u);
    expectSameBytes(ext, runSweep(grown, 1));
}

TEST(SweepCache, OtherSaltEntriesAreNeverServed)
{
    const std::string dir = freshDir("sweep_cache_salt");
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(10);
    sweep::SweepResult solo = runSweep(grid, 1);

    // Fill the directory as a harness with another salt would: the
    // right stats for every cell, under that salt's keys.
    sweep::CellCache other(dir, sweep::kHarnessVersionSalt + 1);
    for (const sweep::CellResult &c : solo.cells())
        ASSERT_TRUE(other.store(
            other.key(sweep::encodeSpec(c.spec), c.seed),
            sweep::encodeStats(c.stats)));

    sweep::SweepResult salted = runSweep(grid, 2, dir);
    EXPECT_EQ(salted.cacheHits(), 0u);
    EXPECT_EQ(simulated(salted), grid.size());
    expectSameBytes(salted, solo);
}

TEST(SweepCache, CorruptEntryIsAMiss)
{
    const std::string dir = freshDir("sweep_cache_corrupt");
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(10);
    sweep::SweepResult solo = runSweep(grid, 1);
    runSweep(grid, 2, dir);

    // Tear cell 3's value file.
    sweep::CellCache cache(dir);
    const sweep::CellResult &c3 = solo.cell(3);
    std::string path =
        cache.pathFor(cache.key(sweep::encodeSpec(c3.spec), c3.seed));
    ASSERT_TRUE(fs::exists(path));
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << "stat1|torn";

    sweep::SweepResult healed = runSweep(grid, 2, dir);
    EXPECT_EQ(simulated(healed), 1u);
    expectSameBytes(healed, solo);
    // The re-simulated cell was stored again.
    EXPECT_EQ(simulated(runSweep(grid, 2, dir)), 0u);
}

TEST(SweepCache, MissingParentDirectoriesAreCreated)
{
    fs::remove_all("sweep_cache_nested");
    const std::string dir = "sweep_cache_nested/a/b/cells";
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(6);

    sweep::SweepResult cold = runSweep(grid, 2, dir);
    EXPECT_EQ(cold.cacheStoreFailures(), 0u);
    EXPECT_EQ(cellFiles(dir), grid.size());
    EXPECT_EQ(simulated(runSweep(grid, 2, dir)), 0u);
}

TEST(SweepCache, UnwritableDirectoryCountsEveryFailedStore)
{
    // A regular file where the directory should be.
    const std::string dir = "sweep_cache_not_a_dir";
    fs::remove_all(dir);
    std::ofstream(dir) << "not a directory\n";
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(6);

    sweep::SweepResult r = runSweep(grid, 2, dir);
    EXPECT_EQ(r.cacheHits(), 0u);
    EXPECT_EQ(r.cacheStoreFailures(), grid.size());
    expectSameBytes(r, runSweep(grid, 1));
    EXPECT_TRUE(fs::is_regular_file(dir));
}

TEST(SweepCache, SigkilledSweepResumesFromWhatItStored)
{
    const std::string dir = freshDir("sweep_cache_kill");
    std::vector<sweep::ScenarioSpec> grid = cacheGrid(20);
    sweep::SweepResult solo = runSweep(grid, 1);
    const std::size_t k = 3;

    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Single-threaded, so the fork copies no live pool. The child
        // freezes itself once k cells count as done, which pins the
        // kill below to mid-sweep; _exit skips the test harness's
        // teardown if it ever gets that far.
        sweep::SweepConfig cfg;
        cfg.threads = 1;
        cfg.cacheDir = dir;
        cfg.progress = [k](std::size_t done, std::size_t) {
            if (done == k)
                ::raise(SIGSTOP);
        };
        sweep::SweepDriver(cfg).run(grid);
        ::_exit(0);
    }

    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (cellFiles(dir) < k &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_EQ(cellFiles(dir), k);

    sweep::SweepResult resumed = runSweep(grid, 2, dir);
    EXPECT_EQ(resumed.cacheHits(), k);
    EXPECT_EQ(simulated(resumed), grid.size() - k);
    EXPECT_EQ(resumed.cacheStoreFailures(), 0u);
    expectSameBytes(resumed, solo);
    EXPECT_EQ(cellFiles(dir), grid.size());
}

TEST(SweepCache, SaltPinsCachedStats)
{
    // The cache serves encodeStats() bytes under a key that covers
    // the spec, the seed and kHarnessVersionSalt, but not the code
    // that produced them. A change to simulated behaviour or to a
    // kernel-cost counter that leaves the salt alone would make every
    // existing cache serve stale stats. This test pins the salt to a
    // hash over every field the cache stores, for a grid spanning all
    // five fabrics, the message-level model, a workload, a fault and
    // a traced cell:
    // when the hash moves, bump kHarnessVersionSalt and re-pin both.
    std::vector<sweep::ScenarioSpec> grid;
    {
        sweep::ScenarioSpec message; // Auto fidelity: message level.
        message.name = "pin_message";
        message.messages = 3;
        message.payloadBytes = 4;
        grid.push_back(message);
    }
    for (backend::BackendKind kind : benchutil::kFiveFabrics) {
        sweep::ScenarioSpec s;
        s.name = std::string("pin_") + backend::backendKindName(kind);
        s.backend = kind;
        s.fidelity = sweep::Fidelity::Edge;
        s.messages = 3;
        s.payloadBytes = 4;
        s.traffic = sweep::TrafficPattern::BroadcastMix;
        grid.push_back(s);
    }
    {
        sweep::ScenarioSpec w;
        w.name = "pin_workload";
        w.nodes = 4;
        w.powerGated = true;
        w.workload.name = "pin";
        w.workload.durationS = 0.2;
        workload::ActorSpec sensor;
        sensor.kind = workload::ActorKind::PeriodicSensor;
        sensor.name = "sensor";
        sensor.node = 1;
        sensor.dest = 0;
        sensor.periodS = 0.02;
        sensor.payloadBytes = 4;
        w.workload.actors.push_back(sensor);
        grid.push_back(w);
    }
    {
        sweep::ScenarioSpec f;
        f.name = "pin_fault";
        f.nodes = 4;
        f.messages = 4;
        f.payloadBytes = 3;
        fault::FaultEntry fe;
        fe.kind = fault::FaultKind::GlitchBurst;
        fe.endS = 2e-4;
        fe.count = 3;
        fe.pulses = 2;
        f.faults.entries.push_back(fe);
        f.faults.watchdogEpochs = 32;
        f.retry.maxRetries = 2;
        f.retry.backoffEpochs = 8;
        grid.push_back(f);
    }
    {
        // Traced: contending sensors and a stuck CLK segment fill the
        // tracer-only counts.
        sweep::ScenarioSpec t;
        t.name = "pin_traced";
        t.nodes = 4;
        t.trace.protocol = true;
        t.trace.flight = true;
        t.workload.name = "pin_traced";
        t.workload.durationS = 0.05;
        for (int n : {1, 2, 3}) {
            workload::ActorSpec sensor;
            sensor.kind = workload::ActorKind::PeriodicSensor;
            sensor.name = "s" + std::to_string(n);
            sensor.node = n;
            sensor.periodS = 0.01;
            sensor.jitterFrac = 0;
            sensor.payloadBytes = 4;
            t.workload.actors.push_back(sensor);
        }
        fault::FaultEntry stuck;
        stuck.kind = fault::FaultKind::StuckAt0;
        stuck.node = 1;
        stuck.startS = 2e-5;
        stuck.endS = 4e-5;
        stuck.durationS = 5e-4;
        t.faults.entries.push_back(stuck);
        t.faults.watchdogEpochs = 16;
        grid.push_back(t);
    }

    sweep::SweepResult r = runSweep(grid, 1);
    ASSERT_EQ(r.cell(0).stats.fidelity, sweep::Fidelity::Message);
    ASSERT_EQ(r.cell(1).stats.fidelity, sweep::Fidelity::Edge);
    ASSERT_GT(r.cell(6).stats.samplesDelivered, 0);
    ASSERT_GT(r.cell(7).stats.faultEvents, 0);
    const sweep::ScenarioStats &traced = r.cell(8).stats;
    ASSERT_GT(traced.watchdogRescues, 0u);
    ASSERT_GT(traced.arbLosses, 0u);
    ASSERT_GT(traced.interjectRequests, 0u);

    std::string bytes;
    for (const sweep::CellResult &c : r.cells())
        bytes += sweep::encodeStats(c.stats);
    using Pin = std::pair<std::uint64_t, std::uint64_t>;
    EXPECT_EQ(Pin(sweep::kHarnessVersionSalt, sim::fnv1a(bytes)),
              Pin(0x4d425553'00000006ULL, 0x82c0b115'b9f93121ULL));
}
