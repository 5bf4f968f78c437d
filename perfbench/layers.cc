/**
 * @file
 * The traced run: a per-layer cost table built from spans the
 * benchmark records around its own calls into each module's public
 * functions. Nothing inside src/ is instrumented.
 *
 *  - sweep / sim / wire / mbus / fault / workload counts come from
 *    timed rounds of the workload, exactly as in the untraced run;
 *  - backend / fault / codec / fleet set-up costs are spans around
 *    makeBackend, FaultEngine, the codec and the cell cache on the
 *    round-0 cells;
 *  - workload-engine cells are rebuilt from public calls (Simulator,
 *    makeBackend, WorkloadEngine, drive) and must reproduce
 *    runScenario's stats byte for byte;
 *  - isolated shapes time the kernel, Net, and energy ledger alone,
 *    next to a frozen reference loop that tracks host speed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unistd.h>

#include "analysis/lifetime.hh"
#include "bench.hh"
#include "bench/bench_util.hh"
#include "fault/fault.hh"
#include "power/energy.hh"
#include "refloop.hh"
#include "sweep/codec.hh"
#include "wire/net.hh"
#include "workload/workload.hh"

#if __has_include("fleet/cache.hh")
#include "fleet/cache.hh"
#define PERFBENCH_HAVE_CELL_CACHE 1
#endif

namespace perfbench {

namespace {

namespace sim = mbus::sim;
namespace sweep = mbus::sweep;
namespace wire = mbus::wire;
using mbus::backend::backendKindName;

/** Median over @p reps runs of @p fn, which returns seconds per op. */
template <typename F>
double
medianNs(int reps, F fn)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(1e9 * fn());
    return median(v);
}

// --- Isolated shapes --------------------------------------------------

constexpr int kMicroReps = 5;

struct SlabTick
{
    sim::Simulator *sim;
    std::uint64_t *remaining;

    void
    operator()() const
    {
        if (--*remaining > 0)
            sim->schedule(1000, SlabTick{sim, remaining});
    }
};

/** Tick chain through Simulator::schedule: seconds per kernel step. */
double
stepSeconds()
{
    const std::uint64_t n = 1000000;
    sim::Simulator s;
    std::uint64_t remaining = n;
    auto t0 = Clock::now();
    s.schedule(1000, SlabTick{&s, &remaining});
    s.run();
    return since(t0) / static_cast<double>(s.eventsExecuted());
}

/** Self edge trains (the mediator's clock shape): seconds per edge. */
double
trainEdgeSeconds()
{
    const std::uint64_t n = 1000000;
    sim::Simulator s;
    mbus::benchutil::TrainTickDriver drv;
    drv.sim = &s;
    drv.remaining = n;
    auto t0 = Clock::now();
    drv.arm();
    s.run();
    return since(t0) / static_cast<double>(n);
}

/** Schedule/cancel churn (the watchdog pattern): seconds per tick. */
double
cancelSeconds()
{
    const std::uint64_t n = 300000;
    sim::Simulator s;
    std::uint64_t remaining = n;
    sim::EventHandle lastTimeout;
    std::function<void()> tick = [&] {
        lastTimeout.cancel();
        lastTimeout = s.schedule(2500, [] {});
        if (--remaining > 0)
            s.schedule(1000, tick);
    };
    auto t0 = Clock::now();
    s.schedule(1000, tick);
    s.run();
    return since(t0) / static_cast<double>(n);
}

/** One Net::drive fanned out per edge to @p listeners subscribers:
 *  seconds per drive (delivery included). */
double
edgeSeconds(int listeners)
{
    struct Counter final : wire::EdgeListener
    {
        std::uint64_t edges = 0;
        void onNetEdge(wire::Net &, bool) override { ++edges; }
    };
    const std::uint64_t n = 200000;
    sim::Simulator s;
    wire::Net net(s, "fanout", 10 * sim::kNanosecond, true);
    std::vector<Counter> subs(static_cast<std::size_t>(listeners));
    for (Counter &c : subs)
        net.listen(wire::Edge::Any, c);
    bool next = false; // Nets start high: every drive is an edge.
    auto t0 = Clock::now();
    for (std::uint64_t e = 0; e < n;) {
        for (int burst = 0; burst < 100 && e < n; ++burst, ++e) {
            net.drive(next);
            next = !next;
        }
        s.run();
    }
    double secs = since(t0);
    if (subs.front().edges != n)
        mbus_fatal("perfbench: fanout lost edges");
    return secs / static_cast<double>(n);
}

/** The 14-hop forwarding ring with net trains: seconds per edge per
 *  hop. */
double
forwardRingSeconds()
{
    const std::uint32_t edges = 20000;
    mbus::benchutil::ForwardRing ring(/*trains=*/true);
    auto t0 = Clock::now();
    ring.pump(edges);
    return since(t0) / (static_cast<double>(edges) *
                        mbus::benchutil::ForwardRing::kHops);
}

/** EnergyLedger::charge over rotating nodes and categories. */
double
chargeSeconds()
{
    const std::uint64_t n = 4000000;
    mbus::power::EnergyLedger ledger(8);
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        ledger.charge(i & 7,
                      static_cast<mbus::power::EnergyCategory>(i % 6),
                      1e-15);
    }
    double secs = since(t0);
    if (!(ledger.total() > 0))
        mbus_fatal("perfbench: ledger lost charges");
    return secs / static_cast<double>(n);
}

// --- Rebuilt workload cells -----------------------------------------

/** Spans of one rebuilt workload cell, seconds. */
struct RebuildSpans
{
    double backend = 0;
    double compile = 0;
    double drive = 0;
    double total = 0;
    std::size_t ops = 0;
};

/**
 * runScenario's workload-cell path, rebuilt from public calls with a
 * span around each. Valid for workload cells without faults, VCD or
 * tracing (the mix cells); the result must equal runScenario's.
 */
ScenarioStats
rebuildWorkloadCell(const ScenarioSpec &spec, std::uint64_t seed,
                    RebuildSpans &sp)
{
    auto t0 = Clock::now();
    sim::Simulator simulator;
    simulator.seedRng(seed);

    auto t = Clock::now();
    std::unique_ptr<mbus::backend::BusBackend> backend =
        mbus::backend::makeBackend(spec.backend, simulator, busParams(spec));
    sp.backend = since(t);

    t = Clock::now();
    mbus::workload::WorkloadEngine engine(spec.workload, seed, spec.nodes);
    sp.compile = since(t);
    sp.ops = engine.plan().size();

    sim::SimTime limit = std::max(
        spec.timeLimit, sim::fromSeconds(spec.workload.durationS) +
                            sim::kSecond);
    t = Clock::now();
    mbus::workload::WorkloadRunStats w =
        engine.drive(*backend, simulator, limit);
    sp.drive = since(t);

    ScenarioStats st;
    st.planned = w.planned;
    st.acked = w.acked;
    st.naked = w.naked;
    st.broadcasts = w.broadcasts;
    st.interrupted = w.interrupted;
    st.rxAborts = w.rxAborts;
    st.failed = w.failed;
    st.bytesDelivered = w.bytesDelivered;
    st.payloadMismatches = w.payloadMismatches;
    st.arbitrationRetries = w.arbitrationRetries;
    st.firstTxLatencyS = w.firstTxLatencyS;
    st.wedged = w.wedged;
    st.actorStats = std::move(w.actors);
    st.missedDeadlines = w.missedDeadlines;
    st.samplesPlanned = w.samplesPlanned;
    st.samplesDelivered = w.samplesDelivered;
    st.stormInterjections = w.stormInterjections;
    st.gateWindows = w.gateWindows;
    st.faultsInjected = w.faultsInjected;
    st.faultsRecovered = w.faultsRecovered;
    st.retimings = w.retimings;
    st.txResets = w.txResets;
    st.deliveredOk = w.deliveredOk;
    st.deliveredInterrupted = w.deliveredInterrupted;
    st.deliveredOverflow = w.deliveredOverflow;

    std::vector<double> lat = std::move(w.txLatenciesS);
    int done = static_cast<int>(lat.size());
    double elapsedS = sim::toSeconds(w.lastCompletion);
    if (done > 0 && elapsedS > 0) {
        st.txPerSecond = static_cast<double>(done) / elapsedS;
        st.goodputBps =
            8.0 * static_cast<double>(st.bytesDelivered) / elapsedS;
        st.avgTxLatencyS = w.latencySumS / done;
        st.avgCyclesPerTx = st.avgTxLatencyS * backend->busClockHz();
    }
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        st.latencyP50S = sweep::nearestRankPercentile(lat, 0.50);
        st.latencyP95S = sweep::nearestRankPercentile(lat, 0.95);
        st.latencyP99S = sweep::nearestRankPercentile(lat, 0.99);
        st.txLatenciesS = lat;
    }
    st.eventsExecuted = simulator.eventsExecuted();
    if (w.completedWireBits > 0)
        st.eventsPerBit = static_cast<double>(st.eventsExecuted) /
                          static_cast<double>(w.completedWireBits);
    st.trainEdges = simulator.queue().trainEdgesDelivered();
    st.trainsScheduled = simulator.queue().trainsScheduled();
    st.dispatchCalls = backend->dispatchCalls();
    st.perNodeEdges.resize(static_cast<std::size_t>(spec.nodes), 0);
    for (int i = 0; i < spec.nodes; ++i) {
        auto idx = static_cast<std::size_t>(i);
        st.perNodeEdges[idx] = backend->nodeEdges(idx);
    }
    st.clockCycles = backend->clockCycles();
    st.switchingJ = backend->switchingJ();
    st.leakageJ = backend->leakageJ();
    st.simTime = simulator.now();
    st.busResets = backend->busResets();
    st.retries = w.retries;
    st.recoveredTx = w.recoveredTx;
    st.abandonedTx = w.abandonedTx;
    std::vector<double> rec = std::move(w.recoveryS);
    if (!rec.empty()) {
        std::sort(rec.begin(), rec.end());
        st.recoveryP50S = sweep::nearestRankPercentile(rec, 0.50);
        st.recoveryP95S = sweep::nearestRankPercentile(rec, 0.95);
        st.recoveryP99S = sweep::nearestRankPercentile(rec, 0.99);
    }
    double totalJ = st.switchingJ + st.leakageJ;
    if (st.samplesDelivered > 0)
        st.energyPerSampleJ =
            totalJ / static_cast<double>(st.samplesDelivered);
    st.lifetimeDays = mbus::analysis::projectedLifetimeDays(
        totalJ, sim::toSeconds(st.simTime));
    st.slabSlots = static_cast<std::uint64_t>(simulator.queue().slabSlots());
    st.liveHighWater = simulator.queue().liveHighWater();
    st.heapCallbacks = simulator.queue().heapCallbackCount();
    sp.total = since(t0);
    return st;
}

/** Sums over a set of cells, for per-layer ratios. */
struct Sums
{
    std::uint64_t cells = 0;
    std::uint64_t events = 0, bits = 0, dispatch = 0;
    std::uint64_t trainEdges = 0, trains = 0;
    std::uint64_t arbRetries = 0, planned = 0;
    std::uint64_t faultEvents = 0, busResets = 0, retries = 0;
    std::uint64_t recovered = 0, abandoned = 0;
    std::uint64_t samplesPlanned = 0, samplesDelivered = 0;
    double wallS = 0;

    void
    add(const CellResult &c)
    {
        const ScenarioStats &s = c.stats;
        ++cells;
        events += s.eventsExecuted;
        bits += recoverBits(s.eventsExecuted, s.eventsPerBit);
        dispatch += s.dispatchCalls;
        trainEdges += s.trainEdges;
        trains += s.trainsScheduled;
        arbRetries += s.arbitrationRetries;
        planned += static_cast<std::uint64_t>(s.planned);
        faultEvents += static_cast<std::uint64_t>(s.faultEvents);
        busResets += s.busResets;
        retries += s.retries;
        recovered += static_cast<std::uint64_t>(s.recoveredTx);
        abandoned += static_cast<std::uint64_t>(s.abandonedTx);
        samplesPlanned += static_cast<std::uint64_t>(s.samplesPlanned);
        samplesDelivered += static_cast<std::uint64_t>(s.samplesDelivered);
        wallS += c.wallSeconds;
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
faultKinds(const ScenarioSpec &spec)
{
    std::string out;
    for (const mbus::fault::FaultEntry &e : spec.faults.entries) {
        if (!out.empty())
            out += '+';
        out += mbus::fault::faultKindName(e.kind);
    }
    return out.empty() ? "-" : out;
}

/** A deterministic, evenly strided sample of up to @p want cells from
 *  each fabric range. */
std::vector<std::size_t>
strideSample(const Grid &grid, const std::vector<std::size_t> &perFabric)
{
    std::vector<std::size_t> out;
    for (std::size_t k = 0; k < grid.ranges.size(); ++k) {
        const FabricRange &r = grid.ranges[k];
        std::size_t want = std::min(perFabric[k], r.count);
        for (std::size_t j = 0; j < want; ++j)
            out.push_back(r.first + j * r.count / want);
    }
    return out;
}

} // namespace

void
runLayers(const Options &opt, const Grid &grid0, const Reference *ref,
          Tally &tally, MetricSet &out)
{
    // --- Timed rounds (as untraced) ---------------------------------
    // round0 / firstGrid: the first round that completed (round 0
    // unless it was skipped), which the per-cell spans below reuse.
    std::vector<Round> rounds;
    Grid firstGrid;
    unsigned skipped = forEachRound(
        opt, grid0, 0.4 * opt.seconds,
        [&](unsigned r, const Grid &grid, const Round &round) {
            checkRound(grid, round, r == 0 ? ref : nullptr, tally);
            if (rounds.empty())
                firstGrid = grid;
            rounds.push_back(round);
        });
    const Round &round0 = rounds.front();
    out.add("rounds_skipped", skipped, "count",
            "rounds with a cell past the memory cap");

    Sums all;
    std::map<BackendKind, Sums> byFabric;
    Sums faulty, workloadCells;
    std::vector<const CellResult *> allCells;
    for (const Round &rd : rounds) {
        for (const CellResult &c : rd.cells) {
            all.add(c);
            byFabric[c.spec.backend].add(c);
            if (c.spec.faults.enabled())
                faulty.add(c);
            if (c.spec.workload.enabled())
                workloadCells.add(c);
            allCells.push_back(&c);
        }
    }

    // sim / wire / mbus: counts measured where the work happens.
    out.add("sim.ns_per_event", 1e9 * ratio(all.wallS, all.events), "ns",
            "cell host time / kernel events");
    out.add("sim.edges_per_train", ratio(all.trainEdges, all.trains),
            "count");
    for (const auto &[kind, s] : byFabric) {
        out.add(std::string("sim.events_per_bit.") + backendKindName(kind),
                ratio(s.events, s.bits), "count");
    }
    for (const auto &[kind, s] : byFabric) {
        if (s.dispatch > 0)
            out.add(std::string("wire.dispatch_per_bit.") +
                        backendKindName(kind),
                    ratio(s.dispatch, s.bits), "count");
    }
    if (byFabric.count(BackendKind::Mbus)) {
        const Sums &m = byFabric[BackendKind::Mbus];
        out.add("mbus.ns_per_bit", 1e9 * ratio(m.wallS, m.bits), "ns");
        out.add("mbus.arb_retries_per_tx", ratio(m.arbRetries, m.planned),
                "count");
    }
    if (faulty.cells > 0) {
        double n = static_cast<double>(faulty.cells);
        out.add("fault.events_per_cell", faulty.faultEvents / n, "count");
        out.add("fault.bus_resets_per_cell", faulty.busResets / n, "count");
        out.add("fault.retries_per_cell", faulty.retries / n, "count");
        out.add("fault.recovered_frac",
                ratio(faulty.recovered, faulty.recovered + faulty.abandoned),
                "fraction", "recovered / (recovered + abandoned)");
    }
    if (workloadCells.cells > 0) {
        out.add("workload.samples_delivered_frac",
                ratio(workloadCells.samplesDelivered,
                      workloadCells.samplesPlanned),
                "fraction");
    }

    // sweep: the driver's own share, reduction and serialization.
    std::vector<double> overhead, reduceMs, csvMs, jsonMs, fpMs, bytes,
        straggler;
    for (const Round &rd : rounds) {
        double runS = 0, cellS = 0, agg = 0, csv = 0, json = 0, fp = 0;
        std::size_t rb = 0;
        for (const SweepTiming &t : rd.sweeps) {
            runS += t.runS;
            agg += t.aggregateS;
            csv += t.csvS;
            json += t.jsonS;
            fp += t.fingerprintS;
            rb += t.reportBytes;
        }
        std::vector<double> walls;
        for (const CellResult &c : rd.cells) {
            cellS += c.wallSeconds;
            walls.push_back(c.wallSeconds);
        }
        overhead.push_back(ratio(runS - cellS, runS));
        reduceMs.push_back(1e3 * agg);
        csvMs.push_back(1e3 * csv);
        jsonMs.push_back(1e3 * json);
        fpMs.push_back(1e3 * fp);
        bytes.push_back(static_cast<double>(rb));
        straggler.push_back(stragglerShare(walls));
    }
    std::string rn = "median of " + std::to_string(rounds.size()) +
                     " rounds";
    out.add("sweep.driver_overhead_frac", median(overhead), "fraction",
            "(runRange wall - cell wall) / runRange wall");
    out.add("sweep.reduce_ms", median(reduceMs), "ms", rn);
    out.add("sweep.csv_ms", median(csvMs), "ms", rn);
    out.add("sweep.json_ms", median(jsonMs), "ms", rn);
    out.add("sweep.fingerprint_ms", median(fpMs), "ms", rn);
    out.add("sweep.report_bytes", median(bytes), "bytes", "CSV + JSON");
    out.add("sweep.straggler_share", median(straggler), "fraction",
            "host share of the slowest 1% of cells");

    // Same round-0 grid at 2 worker threads; bytes must not change.
    {
        Round two = runRound(firstGrid, round0.masterSeed, 2);
        for (std::size_t k = 0; k < two.sweeps.size(); ++k) {
            bool same =
                two.sweeps[k].fingerprint == round0.sweeps[k].fingerprint;
            for (std::size_t i = 0; i < two.sweeps[k].cells; ++i)
                tally.add(same ? 0u : unsigned(kFidelity));
        }
        out.add("sweep.speedup_2t", ratio(round0.wallS(), two.wallS()), "x",
                "round 0 at 1 thread / at 2 threads");
    }

    // backend / fault / codec: spans around set-up calls, round 0.
    {
        std::map<BackendKind, std::pair<double, std::size_t>> build;
        double armS = 0;
        std::size_t armed = 0;
        double encSpec = 0, encStats = 0, decStats = 0;
        for (const CellResult &c : round0.cells) {
            sim::Simulator simulator;
            simulator.seedRng(c.seed);
            auto t0 = Clock::now();
            auto backend = mbus::backend::makeBackend(
                c.spec.backend, simulator, busParams(c.spec));
            auto &b = build[c.spec.backend];
            b.first += since(t0);
            ++b.second;
            if (c.spec.faults.enabled()) {
                t0 = Clock::now();
                mbus::fault::FaultEngine engine(c.spec.faults, c.seed,
                                                faultableNodes(c.spec));
                engine.arm(*backend, simulator);
                armS += since(t0);
                ++armed;
            }

            t0 = Clock::now();
            std::string specBytes = sweep::encodeSpec(c.spec);
            encSpec += since(t0);
            t0 = Clock::now();
            std::string statBytes = sweep::encodeStats(c.stats);
            encStats += since(t0);
            ScenarioStats back;
            t0 = Clock::now();
            bool ok = sweep::decodeStats(statBytes, back);
            decStats += since(t0);
            tally.add(ok && sweep::encodeStats(back) == statBytes
                          ? 0u
                          : unsigned(kFidelity));
        }
        for (const auto &[kind, b] : build) {
            out.add(std::string("backend.build_us.") + backendKindName(kind),
                    1e6 * b.first / static_cast<double>(b.second), "us",
                    "makeBackend, mean of " + std::to_string(b.second));
        }
        if (armed > 0)
            out.add("fault.arm_us", 1e6 * armS / static_cast<double>(armed),
                    "us", "FaultEngine ctor + arm");
        double n = static_cast<double>(round0.cells.size());
        out.add("codec.encode_spec_us", 1e6 * encSpec / n, "us");
        out.add("codec.encode_stats_us", 1e6 * encStats / n, "us");
        out.add("codec.decode_stats_us", 1e6 * decStats / n, "us");
    }

#ifdef PERFBENCH_HAVE_CELL_CACHE
    // fleet: the content-addressed cell cache on a scratch directory
    // inside the build tree, removed afterwards.
    {
        std::string dir = opt.scratchDir + "/cell_cache_" +
                          std::to_string(static_cast<long>(getpid()));
        std::filesystem::remove_all(dir);
        mbus::fleet::CellCache cache(dir);
        std::size_t n = std::min<std::size_t>(round0.cells.size(), 200);
        double storeS = 0, lookupS = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const CellResult &c = round0.cells[i * round0.cells.size() / n];
            std::uint64_t key =
                cache.key(sweep::encodeSpec(c.spec), c.seed);
            std::string bytes = sweep::encodeStats(c.stats);
            auto t0 = Clock::now();
            bool stored = cache.store(key, bytes);
            storeS += since(t0);
            std::string got;
            t0 = Clock::now();
            bool hit = cache.lookup(key, got);
            lookupS += since(t0);
            tally.add(stored && hit && got == bytes ? 0u
                                                    : unsigned(kFidelity));
        }
        std::filesystem::remove_all(dir);
        out.add("fleet.cache_store_us", 1e6 * storeS / n, "us");
        out.add("fleet.cache_lookup_us", 1e6 * lookupS / n, "us");
    }
#endif

    // trace + workload: sampled cells, run untraced, traced, and (for
    // workload cells) rebuilt from public calls.
    {
        std::vector<std::size_t> perFabric;
        double sampleBudgetS = 0.1 * opt.seconds;
        for (std::size_t k = 0; k < firstGrid.ranges.size(); ++k) {
            const FabricRange &r = firstGrid.ranges[k];
            double cellS = round0.sweeps[k].runS / r.count;
            double perCell = 3 * std::max(cellS, 1e-6);
            auto want = static_cast<std::size_t>(
                sampleBudgetS / firstGrid.ranges.size() / perCell);
            perFabric.push_back(std::max<std::size_t>(want, 1));
        }
        double offS = 0, onS = 0, rebuiltS = 0, rebuiltBaseS = 0;
        double compileS = 0, driveS = 0;
        std::uint64_t traceEvents = 0, ops = 0;
        std::size_t sampled = 0, rebuilt = 0;
        for (std::size_t i : strideSample(firstGrid, perFabric)) {
            const CellResult &c = round0.cells[i];
            auto t0 = Clock::now();
            ScenarioStats off = sweep::runScenario(c.spec, c.seed);
            double offCell = since(t0);
            offS += offCell;

            ScenarioSpec traced = c.spec;
            traced.trace.protocol = true;
            traced.trace.flight = true;
            t0 = Clock::now();
            ScenarioStats on = sweep::runScenario(traced, c.seed);
            onS += since(t0);
            traceEvents += on.traceEvents;
            ++sampled;

            unsigned mask = 0;
            std::string want = sweep::encodeStats(c.stats);
            if (sweep::encodeStats(off) != want ||
                outcomeOf(on).exact != outcomeOf(off).exact)
                mask |= kFidelity;
            if (c.spec.workload.enabled() && !c.spec.faults.enabled() &&
                !c.spec.captureVcd) {
                RebuildSpans sp;
                ScenarioStats again =
                    rebuildWorkloadCell(c.spec, c.seed, sp);
                if (sweep::encodeStats(again) != want)
                    mask |= kFidelity;
                rebuiltS += sp.total;
                rebuiltBaseS += offCell;
                compileS += sp.compile;
                driveS += sp.drive;
                ops += sp.ops;
                ++rebuilt;
            }
            tally.add(mask);
        }
        out.add("trace.overhead_x", ratio(onS, offS), "x",
                "runScenario traced / untraced, " + std::to_string(sampled) +
                    " cells");
        out.add("trace.events_per_cell",
                ratio(static_cast<double>(traceEvents), sampled), "count");
        if (rebuilt > 0) {
            double n = static_cast<double>(rebuilt);
            out.add("workload.compile_us", 1e6 * compileS / n, "us",
                    "WorkloadEngine ctor, " + std::to_string(rebuilt) +
                        " rebuilt cells");
            out.add("workload.drive_share", ratio(driveS, rebuiltS),
                    "fraction", "drive() / rebuilt cell host time");
            out.add("workload.ops_per_cell", static_cast<double>(ops) / n,
                    "count", "compiled plan operations");
            out.add("trace.span_overhead_x", ratio(rebuiltS, rebuiltBaseS),
                    "x", "rebuilt cell with spans / runScenario");
        }
    }

    // Isolated shapes through public APIs, and the host reference.
    out.add("sim.step_ns", medianNs(kMicroReps, stepSeconds), "ns",
            "tick chain, per event");
    out.add("sim.train_edge_ns", medianNs(kMicroReps, trainEdgeSeconds),
            "ns", "self edge train, per edge");
    out.add("sim.cancel_ns", medianNs(kMicroReps, cancelSeconds), "ns",
            "schedule+cancel churn, per tick");
    for (int l : {1, 4, 16}) {
        out.add("wire.edge_ns.l" + std::to_string(l),
                medianNs(kMicroReps, [l] { return edgeSeconds(l); }), "ns",
                "Net::drive to " + std::to_string(l) + " listeners");
    }
    out.add("wire.forward_ring_ns_per_edge",
            medianNs(kMicroReps, forwardRingSeconds), "ns",
            "14-hop ring with net trains, per edge per hop");
    out.add("power.charge_ns", medianNs(kMicroReps, chargeSeconds), "ns",
            "EnergyLedger::charge");
    out.add("host.ref_loop_ns", refloop::nsPerEvent(), "ns",
            "frozen seed-kernel replica, per event");

    // Straggler report: the slowest cells of every round.
    std::sort(allCells.begin(), allCells.end(),
              [](const CellResult *a, const CellResult *b) {
                  return a->wallSeconds > b->wallSeconds;
              });
    std::size_t top = std::min<std::size_t>(allCells.size(), 10);
    std::printf("slowest %zu of %zu cells:\n", top, allCells.size());
    std::printf("  %-28s %-10s %-28s %12s %10s %10s\n", "cell", "fabric",
                "faults", "events", "sim_ms", "host_ms");
    for (std::size_t i = 0; i < top; ++i) {
        const CellResult &c = *allCells[i];
        std::printf("  %-28s %-10s %-28s %12llu %10.3f %10.3f\n",
                    c.spec.name.c_str(), backendKindName(c.spec.backend),
                    faultKinds(c.spec).c_str(),
                    static_cast<unsigned long long>(c.stats.eventsExecuted),
                    1e3 * sim::toSeconds(c.stats.simTime),
                    1e3 * c.wallSeconds);
    }
}

} // namespace perfbench
