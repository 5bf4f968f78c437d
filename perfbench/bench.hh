/**
 * @file
 * Shared pieces of the repository benchmark: workload grids, the
 * timed per-fabric sweep round, the benchmark's own arithmetic, and
 * the per-cell correctness checks.
 *
 * A workload is a grid of ScenarioSpecs sorted into one contiguous
 * range per fabric. A round runs each range as its own sweep
 * (SweepDriver::runRange, one worker thread, closed loop) and times it
 * from outside, through aggregate(), writeCsv(), writeJson() and
 * fingerprint() with the reports written to memory. Because runRange
 * keeps global cell indices and seeds, the per-fabric sweeps merge
 * back into exactly the whole-grid sweep (pinned by the self-test).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "sweep/sweep.hh"

namespace perfbench {

using mbus::backend::BackendKind;
using mbus::sweep::CellResult;
using mbus::sweep::ScenarioSpec;
using mbus::sweep::ScenarioStats;

using Clock = std::chrono::steady_clock;

/** Host seconds since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The seed whose round-0 outcomes are pinned in perfbench/reference. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Every workload the benchmark knows, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

// --- Arithmetic -------------------------------------------------------

/** Median of @p v (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile of unsorted @p v, q in (0, 1]. */
double percentile(std::vector<double> v, double q);

/** Samples strictly above the nearest-rank q-percentile of n samples. */
std::size_t samplesBeyond(std::size_t n, double q);

/** The reporting rule: a percentile is reported only when at least ten
 *  samples lie beyond it. */
bool percentileReportable(std::size_t n, double q);

/** Completed wire data bits recovered from a cell's kernel events and
 *  its events/bit ratio (0 when the cell completed no bits). */
std::uint64_t recoverBits(std::uint64_t events, double eventsPerBit);

/** The straggler tail: the slowest ceil(1%) of a round's cells. */
constexpr double kTailFrac = 0.01;

/** Host-time share of the slowest ceil(kTailFrac) of @p walls. */
double stragglerShare(std::vector<double> walls);

/** Per cell: true unless it is one of the slowest ceil(@p frac * n)
 *  cells of @p walls (among equal times the lower index goes first). */
std::vector<bool> outsideSlowest(const std::vector<double> &walls,
                                 double frac);

// --- Grids ------------------------------------------------------------

/** One fabric's contiguous cell range inside a grid. */
struct FabricRange
{
    BackendKind kind = BackendKind::Mbus;
    std::size_t first = 0;
    std::size_t count = 0;
};

/** A workload grid, one contiguous range per fabric present. */
struct Grid
{
    std::vector<ScenarioSpec> cells;
    std::vector<FabricRange> ranges;
};

/** Stable-partition @p cells by fabric (five-fabric order) and record
 *  the ranges of the fabrics present. */
Grid groupByFabric(std::vector<ScenarioSpec> cells);

/** The grid of @p workload for generator seed @p seed (only
 *  faulty_grid draws from it). Fatal on an unknown workload name. */
Grid makeGrid(const std::string &workload, std::uint64_t seed);

/** The seed of round @p round: the workload seed itself for round 0,
 *  a split stream of it afterwards. */
std::uint64_t roundSeed(std::uint64_t seed, unsigned round);

/** The BusParams runScenario derives from @p spec. */
mbus::backend::BusParams busParams(const ScenarioSpec &spec);

/** Nodes a FaultEngine may target in @p spec (runScenario's rule). */
int faultableNodes(const ScenarioSpec &spec);

// --- One timed round ----------------------------------------------------

/** Host time of one per-fabric sweep, split by the calls it made. */
struct SweepTiming
{
    BackendKind kind = BackendKind::Mbus;
    std::size_t cells = 0;
    double runS = 0;         ///< SweepDriver::runRange.
    double aggregateS = 0;   ///< SweepResult::aggregate.
    double csvS = 0;         ///< writeCsv into memory.
    double jsonS = 0;        ///< writeJson into memory.
    double fingerprintS = 0; ///< fingerprint().
    std::size_t reportBytes = 0;
    std::uint64_t fingerprint = 0;
    double refNs = 0; ///< Reference loop ns/event right after the sweep.

    double totalS() const
    {
        return runS + aggregateS + csvS + jsonS + fingerprintS;
    }
};

/** A finished round: every cell in grid order plus the sweep timings. */
struct Round
{
    std::uint64_t masterSeed = 0;
    std::vector<CellResult> cells;
    std::vector<SweepTiming> sweeps;

    double wallS() const;

    /** Host time -> normalized time (refloop.hh): each sweep's scale,
     *  weighted by the sweep's host time. */
    double timeScale() const;
};

/** Run @p grid as one sweep per fabric range, back to back, on
 *  @p threads worker threads under @p masterSeed. */
Round runRound(const Grid &grid, std::uint64_t masterSeed,
               unsigned threads = 1);

struct Options;

/** The address-space cap capMemory() sets: normal runs peak near
 *  20 MB, so only a runaway cell comes near it. */
constexpr unsigned long long kMemoryCapBytes = 1ull << 30;

/** Cap this process's address space at kMemoryCapBytes, so a cell
 *  that allocates without bound throws std::bad_alloc instead of
 *  exhausting the machine. */
void capMemory();

/**
 * The closed measuring loop: round r runs under roundSeed(seed, r)
 * (faulty_grid also regenerates its grid from that seed; the other
 * grids do not depend on the seed) and is handed to @p visit. Rounds
 * continue while the next one is predicted to end within
 * @p budgetS seconds of the first; at least one round completes. A
 * round in which a cell runs past the memory cap is skipped.
 *
 * @return the number of skipped rounds.
 */
unsigned forEachRound(
    const Options &opt, const Grid &grid0, double budgetS,
    const std::function<void(unsigned, const Grid &, const Round &)> &visit);

// --- Correctness ------------------------------------------------------

/** Reasons a cell fails the benchmark's correctness check (bit set). */
enum CheckFailure : unsigned {
    kOutcomeSum = 1u << 0, ///< Outcome counts do not sum to planned.
    kWedged = 1u << 1,     ///< Hit the wedge guard.
    kMismatch = 1u << 2,   ///< Fault-free cell: more payload mismatches
                           ///< than transactions not ACKed.
    kReplay = 1u << 3,     ///< Solo replay differs from the sweep.
    kReference = 1u << 4,  ///< Differs from the stored reference.
    kFidelity = 1u << 5,   ///< A rebuilt or traced run diverged.
};

/** The invariant checks every cell must pass (a CheckFailure mask).
 *  A cell under injected faults may wedge: that is a simulated outcome
 *  (only its finished messages then have a terminal status). In a
 *  fault-free cell each mismatched payload must be matched by a
 *  transaction its sender saw end without an ACK (NAK, interrupted,
 *  receiver abort, general error): only an ACK promises delivery. */
unsigned checkCell(const ScenarioSpec &spec, const ScenarioStats &st);

/** Attempted/failed cell counts: a cell that fails several checks
 *  counts once. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    unsigned reasons = 0; ///< Union of every failure mask seen.
    std::uint64_t faultWedges = 0; ///< Faulty cells that wedged (not
                                   ///< failures: a simulated outcome).
    std::uint64_t unackedMismatches = 0; ///< Fault-free cells whose
                                         ///< mismatches all went un-ACKed.

    void add(unsigned mask)
    {
        ++attempted;
        if (mask) {
            ++failed;
            reasons |= mask;
        }
    }
    double failedFrac() const
    {
        return attempted ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/** A cell's simulated outcome as pinned by the reference: every count,
 *  byte total, simulated time and latency exactly (tab-separated), and
 *  the energies separately for the tolerance check. Kernel-cost
 *  counters (events, trains, dispatch calls) are left out on purpose:
 *  a faster simulator may change them. */
struct Outcome
{
    std::string exact;
    double switchingJ = 0;
    double leakageJ = 0;
};

Outcome outcomeOf(const ScenarioStats &st);

/** Relative tolerance on reference energies. */
constexpr double kEnergyRelTol = 1e-9;

/** True when @p got matches @p want under the reference rules. */
bool outcomeMatches(const Outcome &want, const Outcome &got);

/** One reference file: cell name -> outcome, in grid order. */
struct Reference
{
    std::vector<std::string> names;
    std::vector<Outcome> outcomes;
};

/** Load perfbench/reference/<workload>.tsv. @return false when the
 *  file is missing or malformed. */
bool loadReference(const std::string &path, Reference &out);

/** Write @p round (grid order) as a reference file. */
bool writeReference(const std::string &path, const Round &round);

/**
 * Check every cell of @p round into @p tally: the invariants, a solo
 * replay of one sampled cell per fabric range (its encodeStats() bytes
 * must equal the sweep's), and, when @p ref is given, the stored
 * reference outcome of each cell.
 */
void checkRound(const Grid &grid, const Round &round, const Reference *ref,
                Tally &tally);

// --- Reporting --------------------------------------------------------

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note; ///< Sample counts and the like (table only).
};

/** Metrics in report order: printed as a table, then as the JSON line
 *  perfbench/run.py filters down to the names BENCHMARK.json lists. */
struct MetricSet
{
    std::vector<Metric> items;

    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = std::string())
    {
        items.push_back({name, value, unit, note});
    }

    void printTable() const;
    void printJson(const Tally &tally) const;
};

/** Command-line options of the benchmark binary. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    bool writeRef = false;
    std::string refDir = "perfbench/reference";
    std::string scratchDir = ".bench_build/scratch";
};

/** The traced run (per-layer table); see layers.cc. @p ref, when
 *  given, pins round 0. */
void runLayers(const Options &opt, const Grid &grid0, const Reference *ref,
               Tally &tally, MetricSet &out);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Return freed heap to the system and restart the peak resident set
 *  from the current one, so a skipped runaway round does not stand in
 *  for the run's peak. */
void resetPeakRss();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
