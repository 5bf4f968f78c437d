#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <new>
#include <sstream>

#include <sys/resource.h>

#include "analysis/frequency.hh"
#include "bench.hh"
#include "bench/bench_util.hh"
#include "refloop.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace perfbench {

namespace {

/** Cells of the faulty five-fabric grid. */
constexpr std::size_t kFaultyCells = 4000;

/** fig9_stream: cells per ring size, messages per cell, payload. */
constexpr int kFig9CellsPerSize = 8;
constexpr int kFig9Messages = 32;
constexpr std::size_t kFig9PayloadBytes = 64;

/**
 * mix: the canonical sense+image+storm application mix (full 90 s of
 * simulated time) on all five fabrics x ring sizes 3-8 x {400 kHz,
 * 1 MHz} x {storm, quiet}. The only load where the workload engine,
 * power gating and the software fabrics carry real traffic.
 */
std::vector<ScenarioSpec>
mixCells()
{
    std::vector<ScenarioSpec> cells;
    for (BackendKind kind : mbus::benchutil::kFiveFabrics) {
        for (int nodes = 3; nodes <= 8; ++nodes) {
            for (double clock : {400e3, 1e6}) {
                for (double storm : {0.10, 0.0}) {
                    ScenarioSpec s = mbus::benchutil::canonicalWorkloadCell(
                        nodes, clock, storm, /*smoke=*/false);
                    s.backend = kind;
                    s.name = std::string("mix_") +
                             mbus::backend::backendKindName(kind) + "_n" +
                             std::to_string(nodes) +
                             (storm > 0 ? "_storm" : "_quiet") +
                             (clock > 500e3 ? "_1M" : "_400k");
                    cells.push_back(std::move(s));
                }
            }
        }
    }
    return cells;
}

/**
 * faulty_grid: the faulty five-fabric recipe (benchutil's
 * faultyFiveFabricGrid draw order and smokeFaults), drawn from the
 * workload seed and scaled to thousands of short cells. Per-cell setup
 * and the fault/retry/watchdog paths dominate; the workload engine is
 * bypassed.
 */
std::vector<ScenarioSpec>
faultyCells(std::uint64_t seed)
{
    mbus::sim::Random rng(seed);
    std::vector<ScenarioSpec> cells;
    cells.reserve(kFaultyCells);
    for (std::size_t i = 0; i < kFaultyCells; ++i) {
        ScenarioSpec s;
        s.name = "faulty" + std::to_string(i);
        s.backend = mbus::benchutil::kFiveFabrics[i % 5];
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.payloadBytes = rng.below(9);
        s.messages = static_cast<int>(rng.between(2, 4));
        s.traffic = static_cast<mbus::sweep::TrafficPattern>(rng.below(4));
        s.powerGated = rng.chance(0.3);
        s.faults = mbus::benchutil::smokeFaults(rng);
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;
        cells.push_back(std::move(s));
    }
    return cells;
}

/**
 * fig9_stream: hardware MBus only, ring sizes 2-14 at 0.999 x the
 * conservative max clock, one sender streaming long messages with no
 * gating and no faults. Net drive/fanout, kernel trains and the bus
 * controller's data phase do almost all the work.
 */
std::vector<ScenarioSpec>
fig9Cells()
{
    std::vector<ScenarioSpec> cells;
    for (int n = 2; n <= 14; ++n) {
        for (int k = 0; k < kFig9CellsPerSize; ++k) {
            ScenarioSpec s;
            s.name = "fig9_n" + std::to_string(n) + "_" + std::to_string(k);
            s.nodes = n;
            s.busClockHz =
                mbus::analysis::conservativeMaxClockHz(n) * 0.999;
            s.traffic = mbus::sweep::TrafficPattern::SingleSender;
            s.messages = kFig9Messages;
            s.payloadBytes = kFig9PayloadBytes;
            cells.push_back(std::move(s));
        }
    }
    return cells;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mix", "faulty_grid",
                                                   "fig9_stream"};
    return names;
}

// --- Arithmetic -------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return mbus::sweep::nearestRankPercentile(v, q);
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    return n - std::min(rank, n);
}

bool
percentileReportable(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

std::uint64_t
recoverBits(std::uint64_t events, double eventsPerBit)
{
    if (eventsPerBit <= 0)
        return 0;
    return static_cast<std::uint64_t>(
        std::llround(static_cast<double>(events) / eventsPerBit));
}

namespace {

std::size_t
tailCount(std::size_t n, double frac)
{
    return static_cast<std::size_t>(
        std::ceil(frac * static_cast<double>(n)));
}

} // namespace

double
stragglerShare(std::vector<double> walls)
{
    std::size_t k = tailCount(walls.size(), kTailFrac);
    std::sort(walls.begin(), walls.end(), std::greater<double>());
    double top = 0, all = 0;
    for (std::size_t i = 0; i < walls.size(); ++i) {
        all += walls[i];
        if (i < k)
            top += walls[i];
    }
    return all > 0 ? top / all : 0;
}

std::vector<bool>
outsideSlowest(const std::vector<double> &walls, double frac)
{
    std::vector<std::size_t> order(walls.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return walls[a] > walls[b];
                     });
    std::vector<bool> keep(walls.size(), true);
    std::size_t k = std::min(tailCount(walls.size(), frac), walls.size());
    for (std::size_t i = 0; i < k; ++i)
        keep[order[i]] = false;
    return keep;
}

// --- Grids ------------------------------------------------------------

Grid
groupByFabric(std::vector<ScenarioSpec> cells)
{
    Grid g;
    g.cells.reserve(cells.size());
    for (BackendKind kind : mbus::benchutil::kFiveFabrics) {
        FabricRange r;
        r.kind = kind;
        r.first = g.cells.size();
        for (ScenarioSpec &s : cells) {
            if (s.backend == kind)
                g.cells.push_back(std::move(s));
        }
        r.count = g.cells.size() - r.first;
        if (r.count > 0)
            g.ranges.push_back(r);
    }
    if (g.cells.size() != cells.size())
        mbus_fatal("perfbench: grid holds a fabric outside the five");
    return g;
}

Grid
makeGrid(const std::string &workload, std::uint64_t seed)
{
    if (workload == "mix")
        return groupByFabric(mixCells());
    if (workload == "faulty_grid")
        return groupByFabric(faultyCells(seed));
    if (workload == "fig9_stream")
        return groupByFabric(fig9Cells());
    mbus_fatal("perfbench: unknown workload '", workload, "'");
}

std::uint64_t
roundSeed(std::uint64_t seed, unsigned round)
{
    if (round == 0)
        return seed;
    return mbus::sim::Random(seed).split(round).next();
}

mbus::backend::BusParams
busParams(const ScenarioSpec &spec)
{
    mbus::backend::BusParams p;
    p.nodes = spec.nodes;
    p.busClockHz = spec.busClockHz;
    p.hopDelayNs = spec.hopDelayNs;
    p.wireCapF = spec.wireLengthMm * spec.wireCapFPerMm;
    p.dataLanes = spec.dataLanes;
    p.powerGated = spec.powerGated;
    p.edgeTrains = spec.edgeTrains;
    p.chunkedDispatch = spec.chunkedDispatch;
    p.softRxCapacity = spec.softRxCapacity;
    return p;
}

int
faultableNodes(const ScenarioSpec &spec)
{
    bool soft = spec.backend == BackendKind::Bitbang ||
                spec.backend == BackendKind::Firmware;
    return soft ? spec.nodes - 1 : spec.nodes;
}

// --- One timed round ----------------------------------------------------

double
Round::wallS() const
{
    double s = 0;
    for (const SweepTiming &t : sweeps)
        s += t.totalS();
    return s;
}

double
Round::timeScale() const
{
    double scaled = 0;
    for (const SweepTiming &t : sweeps)
        scaled += t.totalS() * refloop::timeScale(t.refNs);
    return scaled / wallS();
}

Round
runRound(const Grid &grid, std::uint64_t masterSeed, unsigned threads)
{
    mbus::sweep::SweepConfig cfg;
    cfg.masterSeed = masterSeed;
    cfg.threads = threads;
    mbus::sweep::SweepDriver driver(cfg);

    Round round;
    round.masterSeed = masterSeed;
    round.cells.reserve(grid.cells.size());
    for (const FabricRange &r : grid.ranges) {
        SweepTiming t;
        t.kind = r.kind;
        t.cells = r.count;

        auto t0 = Clock::now();
        mbus::sweep::SweepResult res =
            driver.runRange(grid.cells, r.first, r.count);
        t.runS = since(t0);

        t0 = Clock::now();
        mbus::sweep::SweepAggregate agg = res.aggregate();
        t.aggregateS = since(t0);

        t0 = Clock::now();
        std::ostringstream csv;
        res.writeCsv(csv);
        std::string csvBytes = csv.str();
        t.csvS = since(t0);

        t0 = Clock::now();
        std::ostringstream json;
        res.writeJson(json);
        std::string jsonBytes = json.str();
        t.jsonS = since(t0);

        t0 = Clock::now();
        t.fingerprint = res.fingerprint();
        t.fingerprintS = since(t0);

        if (agg.cells != r.count)
            mbus_fatal("perfbench: aggregate lost cells");
        t.reportBytes = csvBytes.size() + jsonBytes.size();
        t.refNs = refloop::nsPerEvent();
        round.sweeps.push_back(t);
        for (const CellResult &c : res.cells())
            round.cells.push_back(c);
    }
    return round;
}

void
capMemory()
{
    struct rlimit lim;
    lim.rlim_cur = lim.rlim_max = kMemoryCapBytes;
    if (setrlimit(RLIMIT_AS, &lim) != 0)
        mbus_fatal("perfbench: cannot cap the address space");
}

unsigned
forEachRound(
    const Options &opt, const Grid &grid0, double budgetS,
    const std::function<void(unsigned, const Grid &, const Round &)> &visit)
{
    auto start = Clock::now();
    unsigned visited = 0, skipped = 0;
    for (unsigned r = 0;; ++r) {
        auto roundStart = Clock::now();
        std::uint64_t seed = roundSeed(opt.seed, r);
        Grid regenerated;
        if (r > 0 && opt.workload == "faulty_grid")
            regenerated = makeGrid(opt.workload, seed);
        const Grid &grid = regenerated.cells.empty() ? grid0 : regenerated;
        try {
            visit(r, grid, runRound(grid, seed));
            ++visited;
        } catch (const std::bad_alloc &) {
            // A runaway cell hit capMemory()'s cap; every object it
            // built has been unwound. See README.md, "Known runaway".
            ++skipped;
            resetPeakRss();
            std::printf("perfbench: round %u skipped: a cell ran past the "
                        "%llu MiB memory cap\n",
                        r,
                        static_cast<unsigned long long>(kMemoryCapBytes >>
                                                        20));
        }
        if (visited > 0 && since(start) + since(roundStart) > budgetS)
            return skipped;
    }
}

} // namespace perfbench
