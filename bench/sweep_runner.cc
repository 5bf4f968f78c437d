/**
 * @file
 * sweep_runner: run a preset grid through SweepDriver, optionally
 * through the content-addressed cell cache, and emit CSV/JSON plus
 * the fingerprint.
 *
 * With --cache DIR every finished cell is stored under DIR before it
 * counts as done, so a sweep that is interrupted (Ctrl-C, SIGKILL,
 * a crashed cell) resumes by re-running the same command: stored
 * cells are served, the rest simulated, and the bytes are identical
 * to an uninterrupted uncached run.
 *
 * Usage:
 *   sweep_runner [--grid faulty|mix] [--cells N] [--threads M]
 *                [--seed S] [--cache DIR] [--csv PATH] [--json PATH]
 *                [--progress]
 *
 * Exit status: 0 iff every requested report was written and (with
 * --cache) every simulated cell was stored.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

std::vector<sweep::ScenarioSpec>
buildGrid(const std::string &kind, std::size_t cells)
{
    if (kind == "mix") {
        std::vector<sweep::ScenarioSpec> grid;
        for (std::size_t i = 0; i < cells; ++i) {
            int nodes = 3 + static_cast<int>(i % 6);
            double clock = (i % 2) != 0 ? 1e6 : 400e3;
            double storm = (i % 4) == 3 ? 0.10 : 0.0;
            sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
                nodes, clock, storm, /*smoke=*/true);
            s.name = "sweep_mix" + std::to_string(i);
            grid.push_back(std::move(s));
        }
        return grid;
    }
    return benchutil::faultyFiveFabricGrid(cells, "sweep_cell");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string gridKind = "faulty";
    std::size_t cells = 25;
    sweep::SweepConfig cfg;
    cfg.threads = 2;
    std::string csvPath;
    std::string jsonPath;

    for (int i = 1; i < argc; ++i) {
        auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--grid"))
            gridKind = argv[++i];
        else if (arg("--cells"))
            cells = std::strtoull(argv[++i], nullptr, 10);
        else if (arg("--threads"))
            cfg.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (arg("--seed"))
            cfg.masterSeed = std::strtoull(argv[++i], nullptr, 0);
        else if (arg("--cache"))
            cfg.cacheDir = argv[++i];
        else if (arg("--csv"))
            csvPath = argv[++i];
        else if (arg("--json"))
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--progress") == 0)
            cfg.progress = sweep::stderrProgress();
    }

    benchutil::banner("sweep_runner: cached, resumable sweeps",
                      "cached == uncached, by byte");

    std::vector<sweep::ScenarioSpec> grid = buildGrid(gridKind, cells);
    std::printf("grid=%s cells=%zu threads=%u%s%s\n", gridKind.c_str(),
                grid.size(), cfg.threads,
                cfg.cacheDir.empty() ? "" : " cache=",
                cfg.cacheDir.c_str());

    sweep::SweepResult r = sweep::SweepDriver(cfg).run(grid);
    std::printf("%zu cells  fingerprint=%016llx\n", r.size(),
                static_cast<unsigned long long>(r.fingerprint()));
    bool ok = true;
    if (!cfg.cacheDir.empty()) {
        std::printf("cache: %zu served, %zu simulated, %zu failed "
                    "stores\n",
                    r.cacheHits(), r.size() - r.cacheHits(),
                    r.cacheStoreFailures());
        ok = r.cacheStoreFailures() == 0;
    }

    if (!csvPath.empty()) {
        bool wrote = r.writeCsvFile(csvPath);
        std::printf("csv %s: %s\n", csvPath.c_str(),
                    wrote ? "written" : "FAILED");
        ok = ok && wrote;
    }
    if (!jsonPath.empty()) {
        bool wrote = r.writeJsonFile(jsonPath);
        std::printf("json %s: %s\n", jsonPath.c_str(),
                    wrote ? "written" : "FAILED");
        ok = ok && wrote;
    }
    return ok ? 0 : 1;
}
