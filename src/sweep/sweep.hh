/**
 * @file
 * The sharded multi-bus sweep engine.
 *
 * A SweepDriver takes a grid of ScenarioSpecs, derives one RNG seed
 * per cell from a splittable master seed (Random::split), fans the
 * cells across a worker-thread pool -- one fully independent
 * Simulator + MBusSystem per cell -- and reduces the per-run stats
 * into a SweepResult with CSV/JSON emission.
 *
 * Determinism contract: every deterministic byte of a SweepResult
 * (the CSV without wall times, the JSON without wall times, and the
 * fingerprint) depends only on (masterSeed, grid). Thread count,
 * scheduling order, and machine load never leak in, so a sweep
 * sharded across 8 threads is byte-identical to the same sweep run
 * single-threaded -- and any one cell can be replayed solo with
 * runCell() to reproduce its exact waveform.
 */

#ifndef MBUS_SWEEP_SWEEP_HH
#define MBUS_SWEEP_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sweep/scenario.hh"

namespace mbus {
namespace sweep {

/** Driver-level knobs. */
struct SweepConfig
{
    /** Master seed; cell i runs with Random(master).split(i). */
    std::uint64_t masterSeed = 0x6d627573ULL;

    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;

    /**
     * Optional progress hook, invoked under an internal mutex after
     * each cell completes with (cells done, cells total). Off (empty)
     * by default; wall-clock side effects here never reach the
     * deterministic output (see stderrProgress()).
     */
    std::function<void(std::size_t, std::size_t)> progress;

    /**
     * Content-addressed cell cache directory (sweep/cache.hh); empty
     * (the default) turns caching off. When set, each cell is looked
     * up before it is simulated, and a simulated cell is stored
     * before it counts as done, so a sweep that is aborted or killed
     * resumes when it is re-run on the same directory. Missing
     * parent directories are created. Cached and uncached sweeps of
     * one grid produce identical deterministic bytes.
     */
    std::string cacheDir;
};

/**
 * A ready-made SweepConfig::progress hook: one stderr line per
 * completed cell with done/total, throughput, and ETA, e.g.
 * "sweep: 12/48 cells (3.4 cells/s, eta 11s)". Stderr-only and
 * wall-clock based, so reports (and fingerprints) are untouched.
 */
std::function<void(std::size_t, std::size_t)> stderrProgress();

/** One finished cell: its spec, seed, stats, and (non-deterministic)
 *  wall time. */
struct CellResult
{
    ScenarioSpec spec;
    std::uint64_t index = 0;
    std::uint64_t seed = 0;
    ScenarioStats stats;
    double wallSeconds = 0; ///< Excluded from deterministic output;
                            ///< 0 for a cell served from the cache.
};

/** Grid-order reduction of a whole sweep. */
struct SweepAggregate
{
    std::uint64_t cells = 0;
    std::uint64_t planned = 0;
    std::uint64_t acked = 0;
    std::uint64_t naked = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t interrupted = 0;
    std::uint64_t rxAborts = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t wedgedCells = 0;
    std::uint64_t bytesDelivered = 0;
    std::uint64_t events = 0;
    std::uint64_t trainEdges = 0;
    std::uint64_t dispatchCalls = 0;
    double switchingJ = 0;
    double leakageJ = 0;
    double meanGoodputBps = 0;
    double minGoodputBps = 0;
    double maxGoodputBps = 0;
    double meanEventsPerBit = 0;

    /** Nearest-rank percentiles over every completed transaction's
     *  latency, pooled across all cells in grid order. */
    double latencyP50S = 0;
    double latencyP95S = 0;
    double latencyP99S = 0;

    /** Per-node event breakdown summed index-wise across cells
     *  (index i = ring position i; shorter rings contribute to the
     *  prefix they populate). */
    std::vector<std::uint64_t> perNodeEdges;

    // Application-mix reductions (zero unless cells carry workloads).
    std::uint64_t samplesPlanned = 0;
    std::uint64_t samplesDelivered = 0;
    std::uint64_t missedDeadlines = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t retimings = 0;

    // Physical-fault survivability reductions (zero unless cells
    // carry a FaultSpec and/or retry policies).
    std::uint64_t faultEvents = 0;
    std::uint64_t busResets = 0;
    std::uint64_t txResets = 0;
    std::uint64_t retriesUsed = 0;
    std::uint64_t recoveredTx = 0;
    std::uint64_t abandonedTx = 0;

    // Observability reductions (trace counters are zero unless cells
    // enable tracing; kernel occupancy is always populated).
    std::uint64_t traceEvents = 0;
    std::uint64_t flightDumps = 0;
    std::uint64_t heapCallbacks = 0;
    std::uint64_t liveHighWaterMax = 0; ///< Max across cells.
};

/** The aggregated outcome of one sweep. */
class SweepResult
{
  public:
    /** Per-cell results, in grid order regardless of shard count. */
    const std::vector<CellResult> &cells() const { return cells_; }
    const CellResult &cell(std::size_t i) const { return cells_.at(i); }
    std::size_t size() const { return cells_.size(); }

    /** Grid-order reduction (deterministic, including FP ordering). */
    SweepAggregate aggregate() const;

    /**
     * CSV emission: header plus one row per cell.
     *
     * @param includeWallTime Append the (non-deterministic) per-cell
     *        wall-time column; leave off for replay comparisons.
     */
    void writeCsv(std::ostream &os, bool includeWallTime = false) const;

    /** JSON emission: {config, aggregate, cells:[...]}. */
    void writeJson(std::ostream &os, bool includeWallTime = false) const;

    /**
     * Crash-safe CSV emission: the bytes go to `path + ".tmp"` and
     * the file is atomically renamed into place only after a clean
     * close, so a killed sweep never leaves a truncated report where
     * a complete one is expected.
     *
     * @return true when the rename landed.
     */
    bool writeCsvFile(const std::string &path,
                      bool includeWallTime = false) const;

    /** Crash-safe JSON emission (same temp-file + rename contract). */
    bool writeJsonFile(const std::string &path,
                       bool includeWallTime = false) const;

    /** FNV-1a over the deterministic CSV bytes, streamed column by
     *  column: no CSV string or stream is built. */
    std::uint64_t fingerprint() const;

    /** Total wall-clock seconds across all cells (diagnostic). */
    double totalWallSeconds() const;

    /**
     * Cells served from SweepConfig::cacheDir rather than simulated
     * (0 when caching is off). Like wall time, never part of the
     * CSV, JSON, or fingerprint.
     */
    std::size_t cacheHits() const { return cacheHits_; }

    /**
     * Simulated cells the cache failed to store (0 when caching is
     * off): an unwritable cacheDir makes every store fail, so a
     * non-zero count means the sweep would not resume. Never part of
     * the CSV, JSON, or fingerprint.
     */
    std::size_t cacheStoreFailures() const { return cacheStoreFailures_; }

    /**
     * Assemble a SweepResult from already-finished cells, e.g. the
     * results of several runRange() calls over disjoint ranges.
     * Cells must be complete and carry their grid indices; they are
     * sorted into grid order here, so the CSV/JSON/fingerprint bytes
     * are identical to a run() of the same grid under @p cfg.
     */
    static SweepResult fromCells(const SweepConfig &cfg,
                                 std::vector<CellResult> cells);

  private:
    friend class SweepDriver;
    std::vector<CellResult> cells_;
    SweepConfig cfg_;
    std::size_t cacheHits_ = 0;
    std::size_t cacheStoreFailures_ = 0;
};

/** Fans a grid of scenarios across a worker-thread pool. */
class SweepDriver
{
  public:
    explicit SweepDriver(SweepConfig cfg = {}) : cfg_(cfg) {}

    /** The seed cell @p index runs with (pure in masterSeed, index). */
    std::uint64_t cellSeed(std::uint64_t index) const;

    /**
     * Run every cell of @p grid and reduce.
     *
     * Cells are claimed from an atomic cursor by min(threads, cells)
     * workers; results land in grid slots, so output order -- and
     * every deterministic byte -- is shard-count independent.
     */
    SweepResult run(const std::vector<ScenarioSpec> &grid) const;

    /**
     * Replay one cell solo (no pool), with the identical seed the
     * sharded sweep used. The hook the replay property tests ride on.
     */
    CellResult runCell(const ScenarioSpec &spec,
                       std::uint64_t index) const;

    /**
     * Run the contiguous cell range [first, first + count) of
     * @p grid across the pool, e.g. one sub-grid at a time or one
     * share of a grid split across machines by hand. Cells keep
     * their *global* indices and seeds, so concatenating the cells
     * of disjoint ranges and merging via SweepResult::fromCells
     * reproduces run()'s bytes exactly.
     */
    SweepResult runRange(const std::vector<ScenarioSpec> &grid,
                         std::size_t first, std::size_t count) const;

  private:
    SweepConfig cfg_;
};

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_SWEEP_HH
