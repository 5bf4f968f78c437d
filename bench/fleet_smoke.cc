/**
 * @file
 * CI fleet smoke: the distributed-sweep contract, end to end.
 *
 * Legs (all on the shared faulty five-fabric grid):
 *  1. 3 processes x 2 threads vs 1 process x 1 thread: CSV, JSON,
 *     and fingerprint byte-identical. Runs fork+exec of the real
 *     fleet_runner when --runner is given (the CI shape), plain
 *     fork workers otherwise.
 *  2. Warm cache: an immediate re-sweep simulates zero cells (its
 *     wall clock against the cold run is reported, not asserted).
 *  3. One-axis grid extension: only the new cells simulate.
 *  4. Harness-version salt bump: everything misses again.
 *  5. SIGKILL a worker mid-sweep: zero cells lost, bytes identical,
 *     and no cell appears in any journal twice.
 *  6. Coordinator abort + resume from the shard journals: the
 *     resumed merge is byte-identical and recovered cells were not
 *     re-simulated.
 *  7. 1 -> 4 process scaling, recorded to the bench trajectory
 *     (report-only: a wall-clock ratio on a shared host is not a
 *     correctness property).
 *
 * Artifacts: merged CSV (--out) and a cache/scaling stats JSON
 * (--cache-stats), both via the crash-safe writer; --bench appends a
 * run entry. Exits non-zero on any
 * broken correctness leg, so CI fails the PR; wall-clock legs never
 * decide the exit status.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "bench/bench_util.hh"
#include "fleet/fleet.hh"
#include "sim/fsio.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

int gFailures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
    if (!ok)
        ++gFailures;
}

/** A wall-clock expectation: printed, never counted as a failure. */
void
report(bool met, const char *what)
{
    std::printf("  [%s] %s (report-only)\n", met ? "ok" : "miss", what);
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Recreate @p dir empty (remove regular files one level deep). */
void
freshDir(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name == "." || name == "..")
                continue;
            ::unlink((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::mkdir(dir.c_str(), 0777);
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

/** Collect every journaled cell index under @p dir; duplicates
 *  across shard files land in @p dupes. */
std::set<std::uint64_t>
journaledIndices(const std::string &dir, std::size_t &dupes)
{
    std::set<std::uint64_t> seen;
    dupes = 0;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return seen;
    while (struct dirent *e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.rfind("shard_", 0) != 0 ||
            name.size() < 9 ||
            name.compare(name.size() - 8, 8, ".journal") != 0)
            continue;
        std::ifstream in(dir + "/" + name);
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("cell|", 0) != 0)
                continue;
            std::uint64_t idx =
                std::strtoull(line.c_str() + 5, nullptr, 10);
            if (!seen.insert(idx).second)
                ++dupes;
        }
    }
    ::closedir(d);
    return seen;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out = "fleet_smoke.csv";
    const char *cacheStatsOut = "fleet_cache_stats.json";
    std::string runner;
    std::string benchOut;
    std::size_t cells = 25;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
        else if (std::strcmp(argv[i], "--cache-stats") == 0)
            cacheStatsOut = argv[i + 1];
        else if (std::strcmp(argv[i], "--runner") == 0)
            runner = argv[i + 1];
        else if (std::strcmp(argv[i], "--bench") == 0)
            benchOut = argv[i + 1];
        else if (std::strcmp(argv[i], "--cells") == 0)
            cells = std::strtoull(argv[i + 1], nullptr, 10);
    }

    benchutil::banner(
        "Fleet smoke: multi-process byte identity, kill/resume, "
        "content-addressed cache",
        "distributed sweep fleet self-check (CI gate)");

    std::vector<sweep::ScenarioSpec> grid =
        benchutil::faultyFiveFabricGrid(cells);

    const std::string cacheDir = "fleet_smoke_cache";
    const std::string ckptIdentity = "fleet_smoke_ckpt_identity";
    const std::string ckptKill = "fleet_smoke_ckpt_kill";
    const std::string ckptResume = "fleet_smoke_ckpt_resume";
    freshDir(cacheDir);
    freshDir(ckptIdentity);
    freshDir(ckptKill);
    freshDir(ckptResume);

    // --- Leg 0: the 1-process x 1-thread truth -----------------------
    benchutil::section("solo baseline (1 process x 1 thread)");
    sweep::SweepConfig soloCfg;
    soloCfg.threads = 1;
    double t0 = now();
    sweep::SweepResult solo = sweep::SweepDriver(soloCfg).run(grid);
    double soloWall = now() - t0;
    const std::string soloCsv = csvOf(solo);
    const std::string soloJson = jsonOf(solo);
    std::printf("  %zu cells, %.3f s, fingerprint=%016llx\n",
                solo.size(), soloWall,
                static_cast<unsigned long long>(solo.fingerprint()));

    // --- Leg 1: 3 processes x 2 threads, byte identity ---------------
    benchutil::section(runner.empty()
                           ? "fleet 3x2 (fork workers), cold cache"
                           : "fleet 3x2 (exec fleet_runner), cold "
                             "cache");
    fleet::FleetConfig identityCfg;
    identityCfg.workers = 3;
    identityCfg.threadsPerWorker = 2;
    identityCfg.cacheDir = cacheDir;
    identityCfg.checkpointDir = ckptIdentity;
    identityCfg.workerExe = runner;
    t0 = now();
    fleet::FleetResult cold = fleet::runFleet(grid, identityCfg);
    double coldWall = now() - t0;
    check(cold.complete, "all cells merged");
    check(csvOf(cold.result) == soloCsv, "CSV byte-identical to solo");
    check(jsonOf(cold.result) == soloJson,
          "JSON byte-identical to solo");
    check(cold.result.fingerprint() == solo.fingerprint(),
          "fingerprints equal");
    check(cold.stats.cacheHits == 0 &&
              cold.stats.cacheMisses == cells &&
              cold.stats.cellsSimulated == cells,
          "cold cache: every cell simulated");
    std::printf("  %.3f s, stolen=%llu, spawned=%llu\n", coldWall,
                static_cast<unsigned long long>(cold.stats.cellsStolen),
                static_cast<unsigned long long>(
                    cold.stats.workersSpawned));

    // --- Leg 2: warm cache -------------------------------------------
    benchutil::section("warm cache re-sweep");
    fleet::FleetConfig warmCfg = identityCfg;
    warmCfg.checkpointDir.clear(); // The cache alone must carry it.
    t0 = now();
    fleet::FleetResult warm = fleet::runFleet(grid, warmCfg);
    double warmWall = now() - t0;
    check(warm.complete, "all cells merged");
    check(csvOf(warm.result) == soloCsv,
          "cache-served CSV byte-identical");
    check(warm.stats.cacheHits == cells &&
              warm.stats.cellsSimulated == 0,
          "warm cache: zero cells simulated");
    report(warmWall < coldWall, "warm run beats cold wall clock");
    std::printf("  %.3f s vs %.3f s cold (%.1fx)\n", warmWall,
                coldWall, coldWall / std::max(warmWall, 1e-9));

    // --- Leg 3: one-axis extension simulates only new cells ----------
    benchutil::section("one-axis grid extension");
    std::vector<sweep::ScenarioSpec> grown =
        benchutil::faultyFiveFabricGrid(cells + 5);
    fleet::FleetResult grownRun = fleet::runFleet(grown, warmCfg);
    check(grownRun.complete, "all cells merged");
    check(grownRun.stats.cacheHits == cells &&
              grownRun.stats.cellsSimulated == 5,
          "extension: exactly the 5 new cells simulated");

    // --- Leg 4: harness-version salt bump invalidates ----------------
    benchutil::section("harness-version salt bump");
    fleet::FleetConfig saltCfg = warmCfg;
    saltCfg.cacheSalt = fleet::kHarnessVersionSalt + 1;
    fleet::FleetResult salted = fleet::runFleet(grid, saltCfg);
    check(salted.complete, "all cells merged");
    check(salted.stats.cacheHits == 0 &&
              salted.stats.cellsSimulated == cells,
          "salt bump: every cell re-simulated");

    // --- Leg 5: SIGKILL a worker mid-sweep ---------------------------
    benchutil::section("worker SIGKILL mid-sweep");
    fleet::FleetConfig killCfg;
    killCfg.workers = 2;
    killCfg.threadsPerWorker = 1;
    killCfg.checkpointDir = ckptKill; // No cache: force simulation.
    long victim = -1;
    bool killed = false;
    std::uint64_t merges = 0;
    killCfg.onWorkerSpawn = [&](unsigned id, long pid) {
        if (id == 0)
            victim = pid;
    };
    killCfg.onCellDone = [&](std::uint64_t) {
        if (++merges == 4 && victim > 0 && !killed) {
            killed = true;
            ::kill(static_cast<pid_t>(victim), SIGKILL);
        }
    };
    fleet::FleetResult survived = fleet::runFleet(grid, killCfg);
    check(killed, "a worker was SIGKILLed mid-sweep");
    check(survived.stats.workerDeaths >= 1, "the death was observed");
    check(survived.complete, "zero cells lost");
    check(csvOf(survived.result) == soloCsv,
          "post-kill CSV byte-identical");
    std::size_t dupes = 0;
    std::set<std::uint64_t> journaled =
        journaledIndices(ckptKill, dupes);
    check(dupes == 0, "no cell journaled twice");
    check(journaled.size() == cells, "every cell journaled once");

    // --- Leg 6: coordinator abort + resume ---------------------------
    benchutil::section("coordinator abort + journal resume");
    fleet::FleetConfig abortCfg;
    abortCfg.workers = 2;
    abortCfg.threadsPerWorker = 1;
    abortCfg.checkpointDir = ckptResume;
    abortCfg.stopAfterCells = 6;
    fleet::FleetResult aborted = fleet::runFleet(grid, abortCfg);
    check(aborted.stats.aborted && !aborted.complete,
          "first run aborted mid-sweep");
    fleet::FleetConfig resumeCfg = abortCfg;
    resumeCfg.stopAfterCells = 0;
    fleet::FleetResult resumed = fleet::runFleet(grid, resumeCfg);
    check(resumed.complete, "resume merged every cell");
    check(resumed.stats.cellsFromJournal >= 6,
          "recovered cells came from journals, not re-simulation");
    check(csvOf(resumed.result) == soloCsv &&
              jsonOf(resumed.result) == soloJson &&
              resumed.result.fingerprint() == solo.fingerprint(),
          "resumed merge byte-identical to uninterrupted solo");
    dupes = 0;
    journaled = journaledIndices(ckptResume, dupes);
    check(dupes == 0, "no cell journaled twice across abort+resume");
    check(journaled.size() == cells, "every cell journaled once");

    // --- Leg 7: 1 -> 4 process scaling -------------------------------
    benchutil::section("1 -> 4 process scaling (cells/s)");
    fleet::FleetConfig one;
    one.workers = 1;
    one.threadsPerWorker = 1;
    t0 = now();
    fleet::FleetResult r1 = fleet::runFleet(grid, one);
    double wall1 = now() - t0;
    fleet::FleetConfig four = one;
    four.workers = 4;
    t0 = now();
    fleet::FleetResult r4 = fleet::runFleet(grid, four);
    double wall4 = now() - t0;
    check(r1.complete && r4.complete, "both scaling runs merged");
    check(csvOf(r4.result) == soloCsv,
          "4-process CSV byte-identical");
    double rate1 = static_cast<double>(cells) / wall1;
    double rate4 = static_cast<double>(cells) / wall4;
    double scaling = rate4 / rate1;
    std::printf("  1p: %.1f cells/s   4p: %.1f cells/s   %.2fx\n",
                rate1, rate4, scaling);
    unsigned cores = std::thread::hardware_concurrency();
    report(cores >= 4 && scaling >= 2.0,
           "scaling >= 2x on a >=4-core host");

    // --- Artifacts ---------------------------------------------------
    bool wroteCsv = cold.result.writeCsvFile(out, true);
    std::printf("%s %s (atomic rename)\n",
                wroteCsv ? "wrote" : "FAILED TO WRITE", out);
    if (!wroteCsv)
        ++gFailures;

    std::ostringstream cs;
    cs << "{\n  \"cells\": " << cells << ",\n"
       << "  \"cold\": {\"hits\": " << cold.stats.cacheHits
       << ", \"misses\": " << cold.stats.cacheMisses
       << ", \"wall_s\": " << sim::formatDouble(coldWall) << "},\n"
       << "  \"warm\": {\"hits\": " << warm.stats.cacheHits
       << ", \"misses\": " << warm.stats.cacheMisses
       << ", \"wall_s\": " << sim::formatDouble(warmWall) << "},\n"
       << "  \"extension\": {\"hits\": " << grownRun.stats.cacheHits
       << ", \"simulated\": " << grownRun.stats.cellsSimulated
       << "},\n"
       << "  \"salt_bump\": {\"hits\": " << salted.stats.cacheHits
       << ", \"simulated\": " << salted.stats.cellsSimulated
       << "},\n"
       << "  \"kill\": {\"worker_deaths\": "
       << survived.stats.workerDeaths
       << ", \"journal_recovered\": "
       << survived.stats.cellsFromJournal << "},\n"
       << "  \"resume\": {\"journal_recovered\": "
       << resumed.stats.cellsFromJournal << "},\n"
       << "  \"scaling\": {\"cells_per_s_1p\": "
       << sim::formatDouble(rate1) << ", \"cells_per_s_4p\": "
       << sim::formatDouble(rate4) << ", \"ratio\": "
       << sim::formatDouble(scaling) << "}\n}\n";
    bool wroteStats = sim::atomicWriteFile(cacheStatsOut, cs.str());
    std::printf("%s %s (atomic rename)\n",
                wroteStats ? "wrote" : "FAILED TO WRITE",
                cacheStatsOut);
    if (!wroteStats)
        ++gFailures;

    if (!benchOut.empty()) {
        std::ostringstream entry;
        entry << "{\"mode\": \"fleet_smoke\", \"cores\": " << cores
              << ", \"cells\": " << cells << ", \"cells_per_s_1p\": "
              << sim::formatDouble(rate1)
              << ", \"cells_per_s_4p\": " << sim::formatDouble(rate4)
              << ", \"scaling_x\": " << sim::formatDouble(scaling)
              << ", \"warm_cache_speedup_x\": "
              << sim::formatDouble(coldWall /
                                   std::max(warmWall, 1e-9))
              << "}";
        bool appended =
            benchutil::appendRunEntry(benchOut, entry.str());
        std::printf("%s run entry -> %s\n",
                    appended ? "appended" : "FAILED TO APPEND",
                    benchOut.c_str());
        if (!appended)
            ++gFailures;
    }

    if (gFailures != 0) {
        std::printf("FLEET SMOKE FAILED (%d)\n", gFailures);
        return 1;
    }
    std::printf("FLEET SMOKE OK\n");
    return 0;
}
