/**
 * @file
 * Regenerates Figure 14: saturating transaction rate vs payload
 * length at 100 kHz / 400 kHz / 1 MHz / 7.1 MHz, from the closed
 * form, with an edge-level simulator validation column at 400 kHz.
 *
 * The validation column runs as one sharded sweep (11 cells of 25
 * back-to-back transactions each) through the SweepDriver, with
 * per-cell wall time reported.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/transaction_rate.hh"
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

    benchutil::banner(
        "Figure 14: Saturating Transaction Rate vs Payload",
        "Pannuto et al., ISCA'15, Fig 14");

    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t n = 0; n <= 40; n += 4) {
        sweep::ScenarioSpec s;
        s.name = "fig14_b" + std::to_string(n);
        s.nodes = 3;
        s.busClockHz = 400e3;
        s.traffic = sweep::TrafficPattern::SingleSender;
        s.messages = 25;
        s.payloadBytes = n;
        s.fidelity = sweep::Fidelity::Edge; // Edge-level validation.
        grid.push_back(std::move(s));
    }
    sweep::SweepConfig cfg;
    cfg.threads = 4;
    if (progress)
        cfg.progress = sweep::stderrProgress();
    sweep::SweepResult result = sweep::SweepDriver(cfg).run(grid);

    std::printf("%6s %12s %12s %12s %12s | %14s %10s\n", "bytes",
                "100kHz", "400kHz", "1MHz", "7.1MHz", "sim@400kHz",
                "cell [ms]");
    for (const sweep::CellResult &cell : result.cells()) {
        std::size_t n = cell.spec.payloadBytes;
        std::printf(
            "%6zu %12.0f %12.0f %12.0f %12.0f | %14.0f %10.3f\n", n,
            analysis::saturatingTransactionRate(100e3, n),
            analysis::saturatingTransactionRate(400e3, n),
            analysis::saturatingTransactionRate(1e6, n),
            analysis::saturatingTransactionRate(7.1e6, n),
            cell.stats.txPerSecond, cell.wallSeconds * 1e3);
    }
    std::printf("sweep total: %zu cells, %.3f s cell wall time\n",
                result.size(), result.totalWallSeconds());

    std::printf("\nShape: rate = f / (19 + 8n + idle), hyperbolic in "
                "payload, linear in clock -- the Fig 14 family. The "
                "simulator column can sit slightly above the closed "
                "form: back-to-back senders overlap the next "
                "arbitration with the idle-return cycles the ideal "
                "model charges in full.\n");
    std::printf("For bursts beyond saturation MBus offers physical "
                "(priority arbitration) and logical (interjection) "
                "federation mechanisms (Sec 6.4).\n");
    return 0;
}
