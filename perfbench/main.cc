/**
 * @file
 * The repository benchmark binary (run it through perfbench/run.py,
 * which builds it first).
 *
 *   perfbench --workload mix|faulty_grid|fig9_stream --seed N
 *             --seconds S --trace 0|1 [--ref-dir DIR] [--scratch DIR]
 *             [--write-reference]
 *
 * --trace 0 measures the end-to-end metrics: rounds of the workload
 * grid (one sweep per fabric, one worker thread) until the time budget
 * is spent, reporting medians over rounds. --trace 1 runs the traced
 * per-layer table instead (layers.cc). Every cell is checked; the last
 * stdout line is one JSON object {correct, attempted, failed, metrics}.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hh"
#include "refloop.hh"
#include "sim/types.hh"

using namespace perfbench;

namespace {

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 15;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--ref-dir DIR] "
                 "[--scratch DIR] [--write-reference]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (a == "--trace")
            o.trace = value() != "0";
        else if (a == "--ref-dir")
            o.refDir = value();
        else if (a == "--scratch")
            o.scratchDir = value();
        else if (a == "--write-reference")
            o.writeRef = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown or missing --workload");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

std::string
refPath(const Options &o)
{
    return o.refDir + "/" + o.workload + ".tsv";
}

/** Throughput of one round over the cells @p keep admits: their
 *  count, completed wire bits and simulated seconds over the timed
 *  region minus the host time of the cells left out. */
struct Throughput
{
    double cellsPerS = 0;
    double bitsPerS = 0;
    double simPerWall = 0;
    std::vector<double> simPerWallFabric; ///< Grid range order.
};

Throughput
throughputOf(const Grid &grid, const Round &round,
             const std::vector<bool> &keep)
{
    Throughput t;
    double wall = 0, simS = 0, cells = 0;
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < grid.ranges.size(); ++k) {
        const FabricRange &r = grid.ranges[k];
        double fabricWall = round.sweeps[k].totalS();
        double fabricSim = 0;
        for (std::size_t i = r.first; i < r.first + r.count; ++i) {
            const CellResult &c = round.cells[i];
            if (!keep[i]) {
                fabricWall -= c.wallSeconds;
                continue;
            }
            fabricSim += mbus::sim::toSeconds(c.stats.simTime);
            bits += recoverBits(c.stats.eventsExecuted, c.stats.eventsPerBit);
            cells += 1;
        }
        wall += fabricWall;
        simS += fabricSim;
        t.simPerWallFabric.push_back(fabricSim / fabricWall);
    }
    t.cellsPerS = cells / wall;
    t.bitsPerS = static_cast<double>(bits) / wall;
    t.simPerWall = simS / wall;
    return t;
}

/** Per-round end-to-end figures; the run reports their medians. */
struct RoundFigures
{
    Throughput bulk; ///< Without the round's slowest 1% of cells.
    Throughput all;  ///< Every cell (tail included).
    double p50Ms = 0, p90Ms = 0, p99Ms = 0;
    double timeScale = 1; ///< Host time -> normalized time (refloop.hh).
};

RoundFigures
figuresOf(const Grid &grid, const Round &round)
{
    RoundFigures f;
    std::vector<double> walls;
    walls.reserve(round.cells.size());
    for (const CellResult &c : round.cells)
        walls.push_back(c.wallSeconds);
    f.bulk = throughputOf(grid, round, outsideSlowest(walls, kTailFrac));
    f.all = throughputOf(grid, round, std::vector<bool>(walls.size(), true));
    f.p50Ms = 1e3 * percentile(walls, 0.50);
    f.p90Ms = 1e3 * percentile(walls, 0.90);
    f.p99Ms = 1e3 * percentile(walls, 0.99);
    f.timeScale = round.timeScale();
    return f;
}

int
writeReferenceMode(const Options &opt, const Grid &grid)
{
    if (opt.seed != kDefaultSeed)
        usage("--write-reference needs the default seed");
    Round round = runRound(grid, opt.seed);
    Tally tally;
    for (const CellResult &c : round.cells)
        tally.add(checkCell(c.spec, c.stats));
    if (tally.failed != 0) {
        std::fprintf(stderr, "perfbench: %llu cells fail their checks; "
                             "not writing a reference\n",
                     static_cast<unsigned long long>(tally.failed));
        return 1;
    }
    if (!writeReference(refPath(opt), round)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     refPath(opt).c_str());
        return 1;
    }
    std::printf("wrote %s (%zu cells)\n", refPath(opt).c_str(),
                round.cells.size());
    return 0;
}

/**
 * The end-to-end table. Throughput comes three ways: over each round's
 * cells without the slowest 1% (the faulty grid's straggler tail swings
 * the whole-grid figure by tens of percent from seed to seed), with
 * every cell (".with_tail"), and the first normalized to the reference
 * host speed (".norm", the gated figures: see refloop.hh).
 */
void
reportEndToEnd(const Grid &grid0, const std::vector<RoundFigures> &figs,
               MetricSet &out)
{
    auto med = [&](auto field) {
        std::vector<double> v;
        for (const RoundFigures &f : figs)
            v.push_back(field(f));
        return median(v);
    };
    std::string rounds =
        "median of " + std::to_string(figs.size()) + " rounds";
    enum Variant { kBulk, kWithTail, kNorm };
    for (Variant v : {kBulk, kWithTail, kNorm}) {
        std::string sfx = v == kWithTail ? ".with_tail"
                          : v == kNorm   ? ".norm"
                                         : "";
        std::string note = std::string(v == kWithTail ? "all cells"
                                                      : "slowest 1% left "
                                                        "out") +
                           ", " + rounds;
        // A rate in the chosen variant: normalized rates divide by the
        // round's time scale.
        auto rate = [v](const RoundFigures &f, auto get) {
            const Throughput &t = v == kWithTail ? f.all : f.bulk;
            return get(t) / (v == kNorm ? f.timeScale : 1.0);
        };
        out.add("cells_per_s" + sfx, med([&](const RoundFigures &f) {
                    return rate(f, [](const Throughput &t) {
                        return t.cellsPerS;
                    });
                }),
                "1/s", note);
        out.add("wire_bits_per_s" + sfx, med([&](const RoundFigures &f) {
                    return rate(f, [](const Throughput &t) {
                        return t.bitsPerS;
                    });
                }),
                "bit/s", note);
        out.add("sim_s_per_wall_s" + sfx, med([&](const RoundFigures &f) {
                    return rate(f, [](const Throughput &t) {
                        return t.simPerWall;
                    });
                }),
                "s/s", note);
        for (std::size_t k = 0; k < grid0.ranges.size(); ++k) {
            out.add(std::string("sim_s_per_wall_s.") +
                        mbus::backend::backendKindName(grid0.ranges[k].kind) +
                        sfx,
                    med([&](const RoundFigures &f) {
                        return rate(f, [k](const Throughput &t) {
                            return t.simPerWallFabric[k];
                        });
                    }),
                    "s/s", note);
        }
    }

    std::size_t n = grid0.cells.size();
    std::string cellNote = "n=" + std::to_string(n) + " cells/round, " +
                           rounds;
    for (bool norm : {false, true}) {
        std::string sfx = norm ? ".norm" : "";
        auto ms = [norm](const RoundFigures &f, double v) {
            return v * (norm ? f.timeScale : 1.0);
        };
        out.add("cell_ms_p50" + sfx, med([&](const RoundFigures &f) {
                    return ms(f, f.p50Ms);
                }),
                "ms", cellNote);
        out.add("cell_ms_p90" + sfx, med([&](const RoundFigures &f) {
                    return ms(f, f.p90Ms);
                }),
                "ms", cellNote);
        if (percentileReportable(n, 0.99)) {
            out.add("cell_ms_p99" + sfx, med([&](const RoundFigures &f) {
                        return ms(f, f.p99Ms);
                    }),
                    "ms", cellNote);
        }
    }
    out.add("host.ref_loop_ns", med([](const RoundFigures &f) {
                return refloop::kNominalNs / f.timeScale;
            }),
            "ns", "reference loop after each sweep, " + rounds);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    capMemory();

    // Set-up: grid generation plus the one-time reference load (every
    // seed loads it, so set-up does the same work on every seed), done
    // several times after one untimed warm-up. setup_s is the median
    // set-up time normalized like the ".norm" figures, each repetition
    // scaled by a reference measurement taken right after it.
    std::vector<double> setupTimes;
    Grid grid0;
    Reference ref;
    for (int k = -1; k < kSetupReps; ++k) {
        auto t0 = Clock::now();
        Grid g = makeGrid(opt.workload, roundSeed(opt.seed, 0));
        Reference r;
        if (!opt.writeRef && !loadReference(refPath(opt), r)) {
            std::fprintf(stderr, "perfbench: missing or malformed %s\n",
                         refPath(opt).c_str());
            return 1;
        }
        double s = since(t0);
        if (k >= 0)
            setupTimes.push_back(s *
                                 refloop::timeScale(refloop::nsPerEvent()));
        grid0 = std::move(g);
        ref = std::move(r);
    }
    double setupS = median(setupTimes);

    if (opt.writeRef)
        return writeReferenceMode(opt, grid0);

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "cells/round=%zu fabrics=%zu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, grid0.cells.size(), grid0.ranges.size());

    Tally tally;
    MetricSet out;
    // The reference pins round 0 of the default seed only.
    const Reference *pinned = opt.seed == kDefaultSeed ? &ref : nullptr;
    std::string setupNote = "median of " + std::to_string(kSetupReps) +
                            " set-ups, normalized";
    if (opt.trace) {
        runLayers(opt, grid0, pinned, tally, out);
    } else {
        std::vector<RoundFigures> figs;
        unsigned skipped = forEachRound(
            opt, grid0, opt.seconds,
            [&](unsigned r, const Grid &grid, const Round &round) {
                checkRound(grid, round, r == 0 ? pinned : nullptr, tally);
                figs.push_back(figuresOf(grid, round));
                std::fprintf(stderr,
                             "perfbench: round %u: %.3f s, ref %.1f "
                             "ns/event\n",
                             r, round.wallS(),
                             refloop::kNominalNs / round.timeScale());
            });
        reportEndToEnd(grid0, figs, out);
        out.add("rounds_skipped", skipped, "count",
                "rounds with a cell past the memory cap");
    }
    out.add("setup_s", setupS, "s", setupNote);
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("cells_failed_frac", tally.failedFrac(), "fraction",
            std::to_string(tally.failed) + " of " +
                std::to_string(tally.attempted) + " cells");
    out.add("cells_wedged_under_faults",
            static_cast<double>(tally.faultWedges), "count",
            "faulty cells the recovery machinery did not rescue");
    out.add("cells_mismatch_unacked",
            static_cast<double>(tally.unackedMismatches), "count",
            "fault-free cells with a corrupted delivery its sender saw "
            "go un-ACKed");
    out.printTable();
    if (tally.failed != 0) {
        std::printf("perfbench: failing checks mask 0x%x (1 sum, 2 wedge, "
                    "4 mismatch, 8 replay, 16 reference, 32 fidelity)\n",
                    tally.reasons);
    }
    out.printJson(tally);
    return 0;
}
