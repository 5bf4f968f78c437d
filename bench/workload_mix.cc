/**
 * @file
 * workload_mix: the canonical application-mix sweep.
 *
 * Runs the sensing+imaging+storm mix (1 Hz duty-cycled sensor, 4 KB
 * imager burst every 30 s, mediator-targeted control traffic, a 10%
 * interjection-storm window) across a >= 20-cell SweepDriver grid
 * (ring size x bus clock x storm on/off x gating), prints per-actor
 * latency percentiles and energy per delivered sample, projects a
 * paper-style lifetime (analysis/lifetime, the abstract's 0.6 uAh
 * cell) and goodput efficiency (analysis/goodput), and, given
 * --out, appends an events_per_bit/latency entry to that file's
 * runs[] history.
 *
 * Usage: workload_mix [--smoke] [--out PATH] [--csv PATH]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/goodput.hh"
#include "analysis/lifetime.hh"
#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool progress = false;
    std::string outPath;
    std::string csvPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--progress") == 0)
            progress = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            outPath = argv[++i];
        else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc)
            csvPath = argv[++i];
    }

    benchutil::banner(
        "workload_mix: canonical sensing+imaging+storm application mix",
        "Sec 6.3 application claims (energy/sample, latency, "
        "lifetime) on realistic nanopower traffic");

    // 5 ring sizes x 2 clocks x {storm, quiet} = 20 cells.
    std::vector<sweep::ScenarioSpec> grid;
    for (int nodes : {3, 4, 5, 6, 8}) {
        for (double clock : {400e3, 1e6}) {
            for (double storm : {0.0, 0.10}) {
                sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
                    nodes, clock, storm, smoke);
                s.name += storm > 0 ? "_storm" : "_quiet";
                s.name += clock > 500e3 ? "_1M" : "_400k";
                grid.push_back(std::move(s));
            }
        }
    }

    sweep::SweepConfig cfg;
    cfg.threads = smoke ? 2 : 0;
    if (progress)
        cfg.progress = sweep::stderrProgress();
    sweep::SweepResult result = sweep::SweepDriver(cfg).run(grid);

    benchutil::section("per-cell application outcomes");
    std::printf("%-18s %8s %8s %7s %10s %12s %12s\n", "cell",
                "samples", "missed", "intj", "events/bit",
                "lat_p95_s", "J/sample");
    double epbSum = 0, p95Max = 0, p99Max = 0;
    double sensorEnergySum = 0;
    int sensorEnergyCells = 0;
    bool healthy = true;
    for (const sweep::CellResult &c : result.cells()) {
        const sweep::ScenarioStats &s = c.stats;
        double cellP95 = 0, sensorEpj = 0;
        for (const workload::ActorStats &a : s.actorStats) {
            if (a.latencyP95S > cellP95)
                cellP95 = a.latencyP95S;
            if (a.latencyP99S > p99Max)
                p99Max = a.latencyP99S;
            if (a.name == "sensor" && a.energyPerSampleJ > 0) {
                sensorEpj = a.energyPerSampleJ;
                sensorEnergySum += a.energyPerSampleJ;
                ++sensorEnergyCells;
            }
        }
        if (cellP95 > p95Max)
            p95Max = cellP95;
        epbSum += s.eventsPerBit;
        std::printf("%-18s %4d/%-3d %8d %7d %10.3f %12.3g %12.3g\n",
                    c.spec.name.c_str(), s.samplesDelivered,
                    s.samplesPlanned, s.missedDeadlines,
                    s.stormInterjections, s.eventsPerBit, cellP95,
                    sensorEpj);
        bool cellHealthy =
            !s.wedged && s.payloadMismatches == 0 &&
            s.acked + s.naked + s.broadcasts + s.interrupted +
                    s.rxAborts + s.failed ==
                s.planned &&
            s.samplesDelivered > 0;
        if (!cellHealthy) {
            std::printf("  ^^ UNHEALTHY CELL\n");
            healthy = false;
        }
    }
    double meanEpb = epbSum / static_cast<double>(result.size());

    // --- Paper-style projections ------------------------------------
    benchutil::section(
        "projections (analysis/lifetime + analysis/goodput)");
    const sweep::CellResult &ref = result.cell(0);
    double activeS = sim::toSeconds(ref.stats.simTime);
    double totalJ = ref.stats.switchingJ + ref.stats.leakageJ;
    double days = analysis::projectedLifetimeDays(totalJ, activeS);
    std::printf("reference cell %s: %.3g J over %.1f s -> %.1f days "
                "on the 0.6 uAh cell\n",
                ref.spec.name.c_str(), totalJ, activeS, days);
    double modelBps = analysis::parallelGoodputBps(
        ref.spec.busClockHz, /*payloadBytes=*/128, /*lanes=*/1);
    std::printf("imager goodput vs back-to-back model: %.0f bps "
                "achieved burst-average vs %.0f bps model ceiling\n",
                ref.stats.goodputBps, modelBps);

    sweep::SweepAggregate agg = result.aggregate();
    std::printf("\naggregate: cells=%llu samples=%llu/%llu "
                "missed=%llu faults=%llu mean events/bit=%.3f "
                "lat p95 max=%.4g s\n",
                static_cast<unsigned long long>(agg.cells),
                static_cast<unsigned long long>(agg.samplesDelivered),
                static_cast<unsigned long long>(agg.samplesPlanned),
                static_cast<unsigned long long>(agg.missedDeadlines),
                static_cast<unsigned long long>(agg.faultsInjected),
                meanEpb, p95Max);

    if (!csvPath.empty()) {
        std::ofstream os(csvPath);
        result.writeCsv(os, /*includeWallTime=*/true);
        std::printf("wrote %s\n", csvPath.c_str());
    }

    // Append this run to the shared trajectory history.
    std::ostringstream entry;
    entry << "{\"mode\": \"workload_mix"
          << (smoke ? "_smoke" : "")
          << "\", \"cells\": " << result.size()
          << ", \"events_per_bit\": " << meanEpb
          << ", \"lat_p50_s\": " << agg.latencyP50S
          << ", \"lat_p95_s\": " << agg.latencyP95S
          << ", \"lat_p99_s\": " << agg.latencyP99S
          << ", \"samples\": " << agg.samplesDelivered
          << ", \"missed_deadlines\": " << agg.missedDeadlines
          << ", \"sensor_energy_per_sample_j\": "
          << (sensorEnergyCells > 0
                  ? sensorEnergySum / sensorEnergyCells
                  : 0)
          << ", \"lifetime_days_0p6uah\": " << days << "}";
    if (!outPath.empty()) {
        if (benchutil::appendRunEntry(outPath, entry.str()))
            std::printf("appended run entry to %s\n", outPath.c_str());
        else
            std::printf("WARN: could not update %s\n", outPath.c_str());
    }

    if (!healthy || agg.wedgedCells != 0 || agg.mismatches != 0 ||
        agg.samplesDelivered == 0) {
        std::printf("WORKLOAD MIX FAILED\n");
        return 1;
    }
    std::printf("WORKLOAD MIX OK\n");
    return 0;
}
