/**
 * @file
 * CI fault-injection smoke: a faulty grid spanning all five fabrics
 * runs on 2 worker threads and is re-run single-threaded, with the
 * shard-determinism property checked end-to-end on the fault axis
 * (byte-identical CSV + equal fingerprints). Health checks: zero
 * wedges (the watchdog reclaimed every hang), every planned
 * transaction terminal, and the schedule actually fired. A cache leg
 * sweeps the same grid through a fresh cell cache under the working
 * directory: cold is byte-identical to the solo run, warm simulates
 * no cell, and the grid grown by 5 cells simulates exactly 5. Exits
 * non-zero on any divergence, so CI fails the PR. The report lands
 * via the crash-safe writer (temp file + atomic rename).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"

using namespace mbus;

int
main(int argc, char **argv)
{
    const char *out = "fault_smoke.csv";
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];

    benchutil::banner(
        "Fault smoke: shard determinism on a faulty five-fabric grid",
        "fault engine + watchdog + retry self-check (CI gate)");

    std::vector<sweep::ScenarioSpec> grid =
        benchutil::faultyFiveFabricGrid(25);

    sweep::SweepConfig sharded;
    sharded.threads = 2;
    sweep::SweepConfig solo;
    solo.threads = 1;
    sweep::SweepResult a = sweep::SweepDriver(sharded).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(solo).run(grid);

    std::ostringstream csvA, csvB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    bool identical = csvA.str() == csvB.str() &&
                     a.fingerprint() == b.fingerprint();

    // Per-fabric survivability summary (grid order is fabric-cyclic).
    std::printf("%-10s %7s %7s %7s %7s %7s %7s %11s\n", "fabric",
                "faults", "bresets", "tresets", "retries", "recov",
                "abandon", "acked/plan");
    for (int f = 0; f < 5; ++f) {
        std::uint64_t faults = 0, bresets = 0, retries = 0;
        int tresets = 0, recov = 0, abandon = 0, acked = 0, planned = 0;
        for (std::size_t i = f; i < a.size(); i += 5) {
            const sweep::ScenarioStats &st = a.cell(i).stats;
            faults += st.faultEvents;
            bresets += st.busResets;
            tresets += st.txResets;
            retries += st.retries;
            recov += st.recoveredTx;
            abandon += st.abandonedTx;
            acked += st.acked + st.broadcasts;
            planned += st.planned;
        }
        std::printf("%-10s %7llu %7llu %7d %7llu %7d %7d %6d/%-4d\n",
                    backend::backendKindName(benchutil::kFiveFabrics[f]),
                    static_cast<unsigned long long>(faults),
                    static_cast<unsigned long long>(bresets), tresets,
                    static_cast<unsigned long long>(retries), recov,
                    abandon, acked, planned);
    }

    sweep::SweepAggregate agg = a.aggregate();
    std::printf("fingerprint=%016llx (2 threads) vs %016llx (1 "
                "thread): %s\n",
                static_cast<unsigned long long>(a.fingerprint()),
                static_cast<unsigned long long>(b.fingerprint()),
                identical ? "IDENTICAL" : "DIVERGED");
    std::printf("wall: %.3f s across %zu cells (2 threads)\n",
                a.totalWallSeconds(), a.size());

    // Cache leg. Counts and bytes only: wall-clock ratios on a
    // shared host are not a correctness property.
    const std::string cacheDir = "fault_smoke_cache";
    std::filesystem::remove_all(cacheDir);
    sweep::SweepConfig cached = sharded;
    cached.cacheDir = cacheDir;
    sweep::SweepResult cold = sweep::SweepDriver(cached).run(grid);
    sweep::SweepResult warm = sweep::SweepDriver(cached).run(grid);
    std::vector<sweep::ScenarioSpec> grown =
        benchutil::faultyFiveFabricGrid(grid.size() + 5);
    sweep::SweepResult ext = sweep::SweepDriver(cached).run(grown);
    sweep::SweepResult extSolo = sweep::SweepDriver(solo).run(grown);
    auto csvOf = [](const sweep::SweepResult &r) {
        std::ostringstream os;
        r.writeCsv(os);
        return os.str();
    };
    auto simulated = [](const sweep::SweepResult &r) {
        return r.size() - r.cacheHits();
    };
    std::size_t failedStores = cold.cacheStoreFailures() +
                               warm.cacheStoreFailures() +
                               ext.cacheStoreFailures();
    bool cacheOk = csvOf(cold) == csvB.str() &&
                   csvOf(warm) == csvB.str() &&
                   csvOf(ext) == csvOf(extSolo) &&
                   simulated(cold) == grid.size() &&
                   simulated(warm) == 0 && simulated(ext) == 5 &&
                   failedStores == 0;
    std::printf("cache: simulated cold %zu/%zu, warm %zu, +5 grid %zu; "
                "failed stores %zu: %s\n",
                simulated(cold), cold.size(), simulated(warm),
                simulated(ext), failedStores,
                cacheOk ? "OK" : "FAILED");

    bool wrote = a.writeCsvFile(out, /*includeWallTime=*/true);
    std::printf("%s %s (atomic rename)\n",
                wrote ? "wrote" : "FAILED TO WRITE", out);

    // Corrupted-but-delivered payloads are legitimate physics under
    // glitch injection (MBus carries no payload CRC), so mismatches
    // are reported, not gated on. The hard invariants: no wedges,
    // conservation of transaction outcomes, and a schedule that
    // actually fired.
    std::printf("corrupted deliveries under fault: %llu\n",
                static_cast<unsigned long long>(agg.mismatches));
    bool healthy =
        agg.wedgedCells == 0 && agg.faultEvents > 0 &&
        agg.planned == agg.acked + agg.naked + agg.broadcasts +
                           agg.interrupted + agg.rxAborts + agg.failed;
    if (!identical || !healthy || !cacheOk || !wrote) {
        std::printf("FAULT SMOKE FAILED\n");
        return 1;
    }
    std::printf("FAULT SMOKE OK\n");
    return 0;
}
