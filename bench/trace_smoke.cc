/**
 * @file
 * Traced-grid artifact writer: a traced faulty grid spanning all
 * five fabrics runs once, and its CSV (trace and metrics columns
 * included) and cell 0's Chrome trace JSON land via the crash-safe
 * writer, so CI can upload a Perfetto-loadable trace from every run.
 * Exits non-zero if a file could not be written. The trace
 * determinism contract and the per-cell health checks are asserted
 * in ctest (TraceDeterminism.*).
 *
 * Usage: trace_smoke [--out PATH] [--trace-out PATH]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/fsio.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"

using namespace mbus;

int
main(int argc, char **argv)
{
    const char *out = "trace_smoke.csv";
    const char *traceOut = "trace_smoke_cell0.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
        if (std::strcmp(argv[i], "--trace-out") == 0)
            traceOut = argv[i + 1];
    }

    benchutil::banner(
        "Trace smoke: a traced five-fabric grid and its trace JSON",
        "protocol tracer + flight recorder artifact");

    sim::Random rng(0x7124CE00ULL);
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < 25; ++i) {
        sweep::ScenarioSpec s;
        s.name = "trace_smoke" + std::to_string(i);
        s.backend = benchutil::kFiveFabrics[i % 5];
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.payloadBytes = rng.below(9);
        s.messages = static_cast<int>(rng.between(2, 4));
        s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
        s.powerGated = rng.chance(0.3);
        s.interjectRate = rng.chance(0.5) ? 0.4 : 0.0;
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;

        fault::FaultEntry e;
        e.kind = static_cast<fault::FaultKind>(rng.below(6));
        e.count = 1 + static_cast<int>(rng.below(2));
        e.endS = 1.5e-3;
        e.durationS = 1e-4 + 9e-4 * rng.uniform();
        e.jitterFrac = 0.3;
        e.pulses = 1 + static_cast<int>(rng.below(4));
        e.driftFrac = 0.05;
        s.faults.name = "smoke";
        s.faults.watchdogEpochs = 32;
        s.faults.entries.push_back(e);

        s.trace.protocol = true;
        s.trace.flight = true;
        grid.push_back(std::move(s));
    }

    sweep::SweepResult a = sweep::SweepDriver().run(grid);

    std::uint64_t events = 0, dumps = 0;
    for (const sweep::CellResult &c : a.cells()) {
        events += c.stats.traceEvents;
        dumps += c.stats.flightDumps.size();
    }
    std::printf("grid: %zu cells, %llu trace events, %llu flight "
                "dumps, fingerprint %016llx\n",
                a.size(), static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(dumps),
                static_cast<unsigned long long>(a.fingerprint()));

    bool ok = true;
    if (!a.writeCsvFile(out)) {
        std::fprintf(stderr, "FAIL: could not write %s\n", out);
        ok = false;
    }
    if (!sim::atomicWriteFile(traceOut, a.cell(0).stats.traceJson)) {
        std::fprintf(stderr, "FAIL: could not write %s\n", traceOut);
        ok = false;
    }
    std::printf("wrote %s and %s\n", out, traceOut);
    std::printf(ok ? "TRACE SMOKE OK\n" : "TRACE SMOKE FAILED\n");
    return ok ? 0 : 1;
}
