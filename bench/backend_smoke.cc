/**
 * @file
 * CI smoke for the pluggable bus-backend layer: the canonical
 * sensing+imaging+storm mix swept across all five fabrics
 * (hardware MBus, standard I2C, oracle I2C, and the mixed ring with
 * the software member under both its labels, bitbang and firmware)
 * in one SweepDriver grid, run on 2 worker threads and re-run
 * single-threaded, with end-to-end byte identity (CSV + JSON +
 * fingerprint) and per-cell health asserted. Exits non-zero on
 * divergence, wedge, corruption, or a silent backend (no samples
 * delivered), so CI fails the PR -- the backend twin of sweep_smoke
 * and workload_smoke.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;

int
main(int argc, char **argv)
{
    const char *out = "backend_smoke.csv";
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];

    benchutil::banner(
        "Backend smoke: one workload, every fabric, 2-thread vs "
        "1-thread byte identity",
        "pluggable bus-backend layer self-check (CI gate)");

    // One WorkloadSpec, five fabrics; quiet and stormy variants.
    std::vector<sweep::ScenarioSpec> grid;
    for (backend::BackendKind kind : benchutil::kFiveFabrics) {
        for (double storm : {0.0, 0.15}) {
            sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
                /*nodes=*/3, /*clockHz=*/400e3, storm, /*smoke=*/true);
            s.workload.durationS = 6.0;
            s.backend = kind;
            s.name = std::string(backend::backendKindName(kind)) +
                     (storm > 0 ? "_storm" : "_quiet");
            grid.push_back(std::move(s));
        }
    }

    sweep::SweepConfig sharded;
    sharded.threads = 2;
    sweep::SweepConfig solo;
    solo.threads = 1;
    sweep::SweepResult a = sweep::SweepDriver(sharded).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(solo).run(grid);

    std::ostringstream csvA, csvB, jsonA, jsonB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    a.writeJson(jsonA);
    b.writeJson(jsonB);
    bool identical = csvA.str() == csvB.str() &&
                     jsonA.str() == jsonB.str() &&
                     a.fingerprint() == b.fingerprint();

    std::printf("%-18s %9s %9s %12s %12s %12s %10s\n", "cell",
                "samples", "missed", "e/sample[J]", "lat_p99[s]",
                "lifetime[d]", "wedged");
    bool healthy = true;
    for (const sweep::CellResult &c : a.cells()) {
        const sweep::ScenarioStats &s = c.stats;
        std::printf("%-18s %5d/%-3d %9d %12.3e %12.3e %12.1f %10s\n",
                    c.spec.name.c_str(), s.samplesDelivered,
                    s.samplesPlanned, s.missedDeadlines,
                    s.energyPerSampleJ, s.latencyP99S, s.lifetimeDays,
                    s.wedged ? "WEDGED" : "no");
        if (s.wedged || s.payloadMismatches != 0 ||
            s.samplesDelivered == 0)
            healthy = false;
        if (s.planned != s.acked + s.naked + s.broadcasts +
                             s.interrupted + s.rxAborts + s.failed)
            healthy = false;
    }
    std::printf("fingerprint=%016llx (2 threads) vs %016llx (1 "
                "thread): %s\n",
                static_cast<unsigned long long>(a.fingerprint()),
                static_cast<unsigned long long>(b.fingerprint()),
                identical ? "IDENTICAL" : "DIVERGED");
    std::printf("wall: %.3f s across %zu cells (2 threads)\n",
                a.totalWallSeconds(), a.size());

    std::ofstream os(out);
    a.writeCsv(os, /*includeWallTime=*/true);
    std::printf("wrote %s\n", out);

    if (!identical || !healthy) {
        std::printf("BACKEND SMOKE FAILED\n");
        return 1;
    }
    std::printf("BACKEND SMOKE OK\n");
    return 0;
}
