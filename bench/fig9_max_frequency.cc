/**
 * @file
 * Regenerates Figure 9: maximum MBus clock vs node count.
 *
 * Prints the paper's one-hop-per-node-per-period curve (7.1 MHz at
 * 14 nodes) alongside our simulator's conservative settle-before-
 * latch limit, and validates the latter by running real messages at
 * the limit frequency for each population.
 *
 * The 13 validation cells run as one sharded sweep through the
 * SweepDriver (one independent Simulator+MBusSystem per cell), which
 * also reports per-cell wall time.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/frequency.hh"
#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;

int
main(int argc, char **argv)
{
    bool progress = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--progress") == 0)
            progress = true;

    benchutil::banner("Figure 9: Maximum MBus Clock vs Node Count",
                      "Pannuto et al., ISCA'15, Fig 9 (10 ns/hop)");

    // One validation cell per ring population: a real 4-byte message
    // at 99.9% of the conservative limit frequency must be delivered
    // intact and ACKed.
    std::vector<sweep::ScenarioSpec> grid;
    for (int n = 2; n <= 14; ++n) {
        sweep::ScenarioSpec s;
        s.name = "fig9_n" + std::to_string(n);
        s.nodes = n;
        s.busClockHz = analysis::conservativeMaxClockHz(n) * 0.999;
        s.traffic = sweep::TrafficPattern::SingleSender;
        s.messages = 1;
        s.payloadBytes = 4;
        // An edge-level check: the bits must survive the real ring.
        s.fidelity = sweep::Fidelity::Edge;
        grid.push_back(std::move(s));
    }
    sweep::SweepConfig cfg;
    cfg.threads = 4;
    if (progress)
        cfg.progress = sweep::stderrProgress();
    sweep::SweepResult result = sweep::SweepDriver(cfg).run(grid);

    std::printf("%6s %18s %24s %10s %12s\n", "nodes",
                "paper fmax [MHz]", "conservative fmax [MHz]",
                "sim check", "cell [ms]");
    for (const sweep::CellResult &cell : result.cells()) {
        int n = cell.spec.nodes;
        bool ok = !cell.stats.wedged && cell.stats.acked == 1 &&
                  cell.stats.payloadMismatches == 0 &&
                  cell.stats.bytesDelivered == 4;
        std::printf("%6d %18.2f %24.2f %10s %12.3f\n", n,
                    analysis::paperMaxClockHz(n) / 1e6,
                    analysis::conservativeMaxClockHz(n) / 1e6,
                    ok ? "ACK" : "FAIL", cell.wallSeconds * 1e3);
    }
    std::printf("sweep total: %zu cells, %.3f s cell wall time\n",
                result.size(), result.totalWallSeconds());

    std::printf("\nPaper anchors: 14 nodes -> 7.1 MHz; 2 nodes -> 50 "
                "MHz.\n");
    std::printf("The conservative column is our edge-level "
                "simulator's functional limit (a bit driven on a "
                "falling edge must settle at wrap-around receivers "
                "before the rising-edge latch), which costs a factor "
                "2(n+2)/n against the paper's one-hop-per-node budget.\n");
    return 0;
}
