#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/fsio.hh"
#include "sim/random.hh"
#include "sweep/cache.hh"
#include "sweep/codec.hh"

namespace mbus {
namespace sweep {

namespace {

/**
 * Byte-stable double formatting (17-digit std::to_chars, shared with
 * the trace layer): two runs that computed identical values print
 * identical bytes -- the property the shard-determinism tests and
 * fingerprint() rely on.
 */
std::string
fmt(double v)
{
    return sim::formatDouble(v);
}

/**
 * Cell names are free-form user strings; strip the characters that
 * would corrupt the CSV column structure or the JSON string literal
 * (RFC 8259 forbids raw control characters in strings).
 */
std::string
sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        if (c == ',' || c == '"' || c == '\\' ||
            static_cast<unsigned char>(c) < 0x20)
            c = '_';
    }
    return out;
}

} // namespace

// --- SweepResult -----------------------------------------------------

SweepAggregate
SweepResult::aggregate() const
{
    SweepAggregate a;
    a.cells = cells_.size();
    double goodputSum = 0, epbSum = 0;
    std::uint64_t goodputCells = 0;
    std::vector<double> latencies;
    for (const CellResult &c : cells_) {
        const ScenarioStats &s = c.stats;
        a.planned += static_cast<std::uint64_t>(s.planned);
        a.acked += static_cast<std::uint64_t>(s.acked);
        a.naked += static_cast<std::uint64_t>(s.naked);
        a.broadcasts += static_cast<std::uint64_t>(s.broadcasts);
        a.interrupted += static_cast<std::uint64_t>(s.interrupted);
        a.rxAborts += static_cast<std::uint64_t>(s.rxAborts);
        a.failed += static_cast<std::uint64_t>(s.failed);
        a.mismatches += s.payloadMismatches;
        a.wedgedCells += s.wedged ? 1 : 0;
        a.bytesDelivered += s.bytesDelivered;
        a.events += s.eventsExecuted;
        a.trainEdges += s.trainEdges;
        a.dispatchCalls += s.dispatchCalls;
        a.switchingJ += s.switchingJ;
        a.leakageJ += s.leakageJ;
        latencies.insert(latencies.end(), s.txLatenciesS.begin(),
                         s.txLatenciesS.end());
        if (s.perNodeEdges.size() > a.perNodeEdges.size())
            a.perNodeEdges.resize(s.perNodeEdges.size(), 0);
        for (std::size_t i = 0; i < s.perNodeEdges.size(); ++i)
            a.perNodeEdges[i] += s.perNodeEdges[i];
        a.samplesPlanned += static_cast<std::uint64_t>(s.samplesPlanned);
        a.samplesDelivered +=
            static_cast<std::uint64_t>(s.samplesDelivered);
        a.missedDeadlines +=
            static_cast<std::uint64_t>(s.missedDeadlines);
        a.faultsInjected += static_cast<std::uint64_t>(s.faultsInjected);
        a.retimings += static_cast<std::uint64_t>(s.retimings);
        a.faultEvents += static_cast<std::uint64_t>(s.faultEvents);
        a.busResets += s.busResets;
        a.txResets += static_cast<std::uint64_t>(s.txResets);
        a.retriesUsed += s.retries;
        a.recoveredTx += static_cast<std::uint64_t>(s.recoveredTx);
        a.abandonedTx += static_cast<std::uint64_t>(s.abandonedTx);
        a.traceEvents += s.traceEvents;
        a.flightDumps += s.flightDumps.size();
        a.heapCallbacks += s.heapCallbacks;
        a.liveHighWaterMax =
            std::max(a.liveHighWaterMax, s.liveHighWater);
        if (s.goodputBps > 0) {
            goodputSum += s.goodputBps;
            ++goodputCells;
            if (goodputCells == 1 || s.goodputBps < a.minGoodputBps)
                a.minGoodputBps = s.goodputBps;
            if (s.goodputBps > a.maxGoodputBps)
                a.maxGoodputBps = s.goodputBps;
        }
        epbSum += s.eventsPerBit;
    }
    if (goodputCells > 0)
        a.meanGoodputBps = goodputSum / static_cast<double>(goodputCells);
    if (a.cells > 0)
        a.meanEventsPerBit = epbSum / static_cast<double>(a.cells);
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        a.latencyP50S = nearestRankPercentile(latencies, 0.50);
        a.latencyP95S = nearestRankPercentile(latencies, 0.95);
        a.latencyP99S = nearestRankPercentile(latencies, 0.99);
    }
    return a;
}

namespace {

/** Per-node breakdown as a pipe-packed CSV/JSON-safe scalar field
 *  ("1024|988|1002"): one value per ring position. */
std::string
packPerNode(const std::vector<std::uint64_t> &edges)
{
    std::string out;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (i)
            out += '|';
        out += std::to_string(edges[i]);
    }
    return out;
}

/** Pipe-packed per-actor field ("v0|v1|v2"): one entry per actor of
 *  the cell's workload, formatted by @p f. Empty for classic cells. */
template <typename F>
std::string
packActors(const std::vector<workload::ActorStats> &actors, F f)
{
    std::string out;
    for (std::size_t i = 0; i < actors.size(); ++i) {
        if (i)
            out += '|';
        out += f(actors[i]);
    }
    return out;
}

/** The cell's metrics snapshot as one pipe-packed "name=value"
 *  column ("events_executed=420|goodput_bps=1.5e3"); empty for
 *  untraced cells. Names and values are registry-formatted, so the
 *  field is CSV/JSON-safe without further quoting. */
std::string
packMetrics(const std::vector<trace::MetricSample> &ms)
{
    std::string out;
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i)
            out += '|';
        out += ms[i].name;
        out += '=';
        out += ms[i].value;
    }
    return out;
}

} // namespace

void
SweepResult::writeCsv(std::ostream &os, bool includeWallTime) const
{
    os << "index,name,nodes,clock_hz,hop_delay_ns,wire_length_mm,"
          "wire_cap_f_per_mm,payload_bytes,messages,lanes,"
          "traffic,gated,full_addr,priority_rate,interject_rate,"
          "time_limit_ps,edge_trains,backend,fidelity,fault_spec,"
          "max_retries,"
          "seed,"
          "planned,acked,naked,broadcast,interrupted,rx_abort,failed,"
          "mismatches,wedged,bytes_delivered,tx_per_s,goodput_bps,events,"
          "events_per_bit,train_edges,dispatch_calls,clock_cycles,"
          "arb_retries,"
          "switching_j,"
          "leakage_j,energy_per_sample_j,lifetime_days,"
          "avg_tx_latency_s,first_tx_latency_s,"
          "lat_p50_s,lat_p95_s,lat_p99_s,"
          "avg_cycles_per_tx,sim_time_ps,per_node_edges,"
          "vcd_bytes,vcd_hash,"
          "workload,samples_planned,samples_delivered,"
          "missed_deadlines,storm_interjections,gate_windows,faults,"
          "faults_recovered,retimings,"
          "fault_events,bus_resets,tx_resets,retries_used,"
          "recovered_tx,abandoned_tx,recovery_p50_s,recovery_p95_s,"
          "recovery_p99_s,outcome_counts,actor_names,actor_samples,"
          "actor_missed,actor_lat_p50_s,actor_lat_p95_s,"
          "actor_lat_p99_s,actor_energy_per_sample_j,"
          "actor_duty_cycle,"
          "slab_slots,slab_live_peak,heap_callbacks,"
          "trace_events,trace_bytes,trace_hash,flight_dumps,metrics";
    if (includeWallTime)
        os << ",wall_s";
    os << "\n";
    for (const CellResult &c : cells_) {
        const ScenarioSpec &p = c.spec;
        const ScenarioStats &s = c.stats;
        os << c.index << ',' << sanitizeName(p.name) << ','
           << p.nodes << ','
           << fmt(p.busClockHz) << ',' << fmt(p.hopDelayNs) << ','
           << fmt(p.wireLengthMm) << ',' << fmt(p.wireCapFPerMm)
           << ',' << p.payloadBytes << ','
           << p.messages << ',' << p.dataLanes << ','
           << trafficPatternName(p.traffic) << ','
           << (p.powerGated ? 1 : 0) << ','
           << (p.fullAddressing ? 1 : 0) << ','
           << fmt(p.priorityRate) << ',' << fmt(p.interjectRate) << ','
           << p.timeLimit << ',' << (p.edgeTrains ? 1 : 0) << ','
           << backend::backendKindName(p.backend) << ','
           << fidelityName(s.fidelity) << ','
           << (p.faults.enabled()
                   ? (p.faults.name.empty() ? std::string("on")
                                            : sanitizeName(p.faults.name))
                   : std::string("-"))
           << ',' << p.retry.maxRetries << ','
           << c.seed << ',' << s.planned << ',' << s.acked << ','
           << s.naked << ',' << s.broadcasts << ',' << s.interrupted
           << ',' << s.rxAborts << ',' << s.failed << ','
           << s.payloadMismatches << ',' << (s.wedged ? 1 : 0) << ','
           << s.bytesDelivered << ',' << fmt(s.txPerSecond) << ','
           << fmt(s.goodputBps) << ','
           << s.eventsExecuted << ',' << fmt(s.eventsPerBit) << ','
           << s.trainEdges << ',' << s.dispatchCalls << ','
           << s.clockCycles << ',' << s.arbitrationRetries << ','
           << fmt(s.switchingJ) << ',' << fmt(s.leakageJ) << ','
           << fmt(s.energyPerSampleJ) << ',' << fmt(s.lifetimeDays)
           << ','
           << fmt(s.avgTxLatencyS) << ',' << fmt(s.firstTxLatencyS)
           << ',' << fmt(s.latencyP50S) << ',' << fmt(s.latencyP95S)
           << ',' << fmt(s.latencyP99S)
           << ',' << fmt(s.avgCyclesPerTx) << ',' << s.simTime << ','
           << packPerNode(s.perNodeEdges) << ','
           << s.vcdBytes << ',' << s.vcdHash << ','
           << (p.workload.enabled() ? sanitizeName(p.workload.name)
                                    : std::string("-"))
           << ',' << s.samplesPlanned << ',' << s.samplesDelivered
           << ',' << s.missedDeadlines << ',' << s.stormInterjections
           << ',' << s.gateWindows << ',' << s.faultsInjected << ','
           << s.faultsRecovered << ',' << s.retimings << ','
           << s.faultEvents << ',' << s.busResets << ','
           << s.txResets << ',' << s.retries << ','
           << s.recoveredTx << ',' << s.abandonedTx << ','
           << fmt(s.recoveryP50S) << ',' << fmt(s.recoveryP95S) << ','
           << fmt(s.recoveryP99S) << ','
           // ok|interrupted|overflow|reset: the pipe-packed
           // delivery/abort outcome census.
           << s.deliveredOk << '|' << s.deliveredInterrupted << '|'
           << s.deliveredOverflow << '|' << s.txResets << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             // Per-name sanitizing: '|' is this
                             // field's separator, so strip it too.
                             std::string n = sanitizeName(a.name);
                             for (char &ch : n)
                                 if (ch == '|')
                                     ch = '_';
                             return n;
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return std::to_string(a.samplesDelivered);
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return std::to_string(a.missedDeadlines);
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return fmt(a.latencyP50S);
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return fmt(a.latencyP95S);
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return fmt(a.latencyP99S);
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return fmt(a.energyPerSampleJ);
                         })
           << ','
           << packActors(s.actorStats,
                         [](const workload::ActorStats &a) {
                             return fmt(a.dutyCycle);
                         })
           << ',' << s.slabSlots << ',' << s.liveHighWater << ','
           << s.heapCallbacks << ',' << s.traceEvents << ','
           << s.traceJson.size() << ',' << s.traceHash << ','
           << s.flightDumps.size() << ',' << packMetrics(s.metrics);
        if (includeWallTime)
            os << ',' << fmt(c.wallSeconds);
        os << "\n";
    }
}

void
SweepResult::writeJson(std::ostream &os, bool includeWallTime) const
{
    SweepAggregate a = aggregate();
    os << "{\n  \"master_seed\": " << cfg_.masterSeed
       << ",\n  \"aggregate\": {"
       << "\"cells\": " << a.cells << ", \"planned\": " << a.planned
       << ", \"acked\": " << a.acked << ", \"naked\": " << a.naked
       << ", \"broadcast\": " << a.broadcasts
       << ", \"interrupted\": " << a.interrupted
       << ", \"rx_abort\": " << a.rxAborts
       << ", \"failed\": " << a.failed
       << ", \"mismatches\": " << a.mismatches
       << ", \"wedged_cells\": " << a.wedgedCells
       << ", \"bytes_delivered\": " << a.bytesDelivered
       << ", \"events\": " << a.events
       << ", \"train_edges\": " << a.trainEdges
       << ", \"dispatch_calls\": " << a.dispatchCalls
       << ", \"switching_j\": " << fmt(a.switchingJ)
       << ", \"leakage_j\": " << fmt(a.leakageJ)
       << ", \"mean_goodput_bps\": " << fmt(a.meanGoodputBps)
       << ", \"min_goodput_bps\": " << fmt(a.minGoodputBps)
       << ", \"max_goodput_bps\": " << fmt(a.maxGoodputBps)
       << ", \"mean_events_per_bit\": " << fmt(a.meanEventsPerBit)
       << ", \"lat_p50_s\": " << fmt(a.latencyP50S)
       << ", \"lat_p95_s\": " << fmt(a.latencyP95S)
       << ", \"lat_p99_s\": " << fmt(a.latencyP99S)
       << ", \"samples_planned\": " << a.samplesPlanned
       << ", \"samples_delivered\": " << a.samplesDelivered
       << ", \"missed_deadlines\": " << a.missedDeadlines
       << ", \"faults\": " << a.faultsInjected
       << ", \"retimings\": " << a.retimings
       << ", \"fault_events\": " << a.faultEvents
       << ", \"bus_resets\": " << a.busResets
       << ", \"tx_resets\": " << a.txResets
       << ", \"retries_used\": " << a.retriesUsed
       << ", \"recovered_tx\": " << a.recoveredTx
       << ", \"abandoned_tx\": " << a.abandonedTx
       << ", \"trace_events\": " << a.traceEvents
       << ", \"flight_dumps\": " << a.flightDumps
       << ", \"heap_callbacks\": " << a.heapCallbacks
       << ", \"slab_live_peak_max\": " << a.liveHighWaterMax
       << ", \"per_node_edges\": \"" << packPerNode(a.perNodeEdges)
       << "\"},\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellResult &c = cells_[i];
        const ScenarioStats &s = c.stats;
        os << "    {\"index\": " << c.index << ", \"name\": \""
           << sanitizeName(c.spec.name) << "\", \"backend\": \""
           << backend::backendKindName(c.spec.backend)
           << "\", \"fidelity\": \"" << fidelityName(s.fidelity)
           << "\", \"seed\": " << c.seed
           << ", \"acked\": " << s.acked
           << ", \"energy_per_sample_j\": " << fmt(s.energyPerSampleJ)
           << ", \"lifetime_days\": " << fmt(s.lifetimeDays)
           << ", \"goodput_bps\": " << fmt(s.goodputBps)
           << ", \"events_per_bit\": " << fmt(s.eventsPerBit)
           << ", \"train_edges\": " << s.trainEdges
           << ", \"dispatch_calls\": " << s.dispatchCalls
           << ", \"lat_p50_s\": " << fmt(s.latencyP50S)
           << ", \"lat_p95_s\": " << fmt(s.latencyP95S)
           << ", \"lat_p99_s\": " << fmt(s.latencyP99S)
           << ", \"per_node_edges\": \"" << packPerNode(s.perNodeEdges)
           << "\", \"switching_j\": " << fmt(s.switchingJ)
           << ", \"wedged\": " << (s.wedged ? "true" : "false")
           << ", \"fault_events\": " << s.faultEvents
           << ", \"bus_resets\": " << s.busResets
           << ", \"tx_resets\": " << s.txResets
           << ", \"retries_used\": " << s.retries
           << ", \"recovered_tx\": " << s.recoveredTx
           << ", \"abandoned_tx\": " << s.abandonedTx
           << ", \"outcome_counts\": \"" << s.deliveredOk << '|'
           << s.deliveredInterrupted << '|' << s.deliveredOverflow
           << '|' << s.txResets << "\""
           << ", \"slab_live_peak\": " << s.liveHighWater
           << ", \"trace_events\": " << s.traceEvents
           << ", \"trace_bytes\": " << s.traceJson.size()
           << ", \"trace_hash\": " << s.traceHash
           << ", \"flight_dumps\": " << s.flightDumps.size()
           << ", \"metrics\": \"" << packMetrics(s.metrics) << "\"";
        if (!s.actorStats.empty()) {
            os << ", \"workload\": \""
               << sanitizeName(c.spec.workload.name)
               << "\", \"samples_planned\": " << s.samplesPlanned
               << ", \"samples_delivered\": " << s.samplesDelivered
               << ", \"missed_deadlines\": " << s.missedDeadlines
               << ", \"faults\": " << s.faultsInjected
               << ", \"retimings\": " << s.retimings
               << ", \"actors\": [";
            for (std::size_t k = 0; k < s.actorStats.size(); ++k) {
                const workload::ActorStats &act = s.actorStats[k];
                os << (k ? ", " : "") << "{\"name\": \""
                   << sanitizeName(act.name) << "\", \"kind\": \""
                   << workload::actorKindName(act.kind)
                   << "\", \"node\": " << act.node
                   << ", \"samples\": " << act.samplesDelivered
                   << ", \"missed\": " << act.missedDeadlines
                   << ", \"lat_p50_s\": " << fmt(act.latencyP50S)
                   << ", \"lat_p95_s\": " << fmt(act.latencyP95S)
                   << ", \"lat_p99_s\": " << fmt(act.latencyP99S)
                   << ", \"energy_per_sample_j\": "
                   << fmt(act.energyPerSampleJ)
                   << ", \"duty_cycle\": " << fmt(act.dutyCycle)
                   << "}";
            }
            os << "]";
        }
        if (includeWallTime)
            os << ", \"wall_s\": " << fmt(c.wallSeconds);
        os << "}" << (i + 1 < cells_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

bool
SweepResult::writeCsvFile(const std::string &path,
                          bool includeWallTime) const
{
    return sim::atomicWriteFile(path, [&](std::ostream &os) {
        writeCsv(os, includeWallTime);
    });
}

bool
SweepResult::writeJsonFile(const std::string &path,
                           bool includeWallTime) const
{
    return sim::atomicWriteFile(path, [&](std::ostream &os) {
        writeJson(os, includeWallTime);
    });
}

std::uint64_t
SweepResult::fingerprint() const
{
    std::ostringstream os;
    writeCsv(os, /*includeWallTime=*/false);
    std::string bytes = os.str();
    return fnv1a(bytes.data(), bytes.size());
}

double
SweepResult::totalWallSeconds() const
{
    double total = 0;
    for (const CellResult &c : cells_)
        total += c.wallSeconds;
    return total;
}

std::function<void(std::size_t, std::size_t)>
stderrProgress()
{
    auto start =
        std::make_shared<std::chrono::steady_clock::time_point>(
            std::chrono::steady_clock::now());
    return [start](std::size_t done, std::size_t total) {
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - *start)
                       .count();
        double rate = s > 0 ? static_cast<double>(done) / s : 0;
        double eta =
            rate > 0 ? static_cast<double>(total - done) / rate : 0;
        std::fprintf(stderr,
                     "sweep: %zu/%zu cells (%.1f cells/s, eta %.0fs)\n",
                     done, total, rate, eta);
    };
}

SweepResult
SweepResult::fromCells(const SweepConfig &cfg,
                       std::vector<CellResult> cells)
{
    SweepResult r;
    r.cfg_ = cfg;
    r.cells_ = std::move(cells);
    std::sort(r.cells_.begin(), r.cells_.end(),
              [](const CellResult &a, const CellResult &b) {
                  return a.index < b.index;
              });
    return r;
}

// --- SweepDriver -----------------------------------------------------

std::uint64_t
SweepDriver::cellSeed(std::uint64_t index) const
{
    return sim::Random(cfg_.masterSeed).split(index).next();
}

CellResult
SweepDriver::runCell(const ScenarioSpec &spec, std::uint64_t index) const
{
    CellResult r;
    r.spec = spec;
    r.index = index;
    r.seed = cellSeed(index);
    auto t0 = std::chrono::steady_clock::now();
    r.stats = runScenario(spec, r.seed);
    auto t1 = std::chrono::steady_clock::now();
    r.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return r;
}

namespace {

/**
 * One cell of a cached sweep: served from @p cache when its key
 * resolves, otherwise simulated and stored before it is returned
 * (and so before the cell counts as done).
 */
CellResult
cachedCell(const SweepDriver &driver, CellCache &cache,
           const ScenarioSpec &spec, std::uint64_t index)
{
    std::uint64_t seed = driver.cellSeed(index);
    std::uint64_t key = cache.key(encodeSpec(spec), seed);
    std::string bytes;
    if (cache.lookup(key, bytes)) {
        CellResult r;
        r.spec = spec;
        r.index = index;
        r.seed = seed;
        decodeStats(bytes, r.stats); // lookup() validated the bytes.
        return r;
    }
    CellResult r = driver.runCell(spec, index);
    cache.store(key, encodeStats(r.stats));
    return r;
}

} // namespace

SweepResult
SweepDriver::run(const std::vector<ScenarioSpec> &grid) const
{
    return runRange(grid, 0, grid.size());
}

SweepResult
SweepDriver::runRange(const std::vector<ScenarioSpec> &grid,
                      std::size_t first, std::size_t count) const
{
    if (first > grid.size())
        first = grid.size();
    if (count > grid.size() - first)
        count = grid.size() - first;

    SweepResult result;
    result.cfg_ = cfg_;
    result.cells_.resize(count);
    if (count == 0)
        return result;

    unsigned want = cfg_.threads != 0
                        ? cfg_.threads
                        : std::thread::hardware_concurrency();
    if (want == 0)
        want = 1;
    std::size_t workers = std::min<std::size_t>(want, count);

    // Only a cached sweep builds a cache; an uncached one pays one
    // null check per cell and nothing else.
    std::unique_ptr<CellCache> cache;
    if (!cfg_.cacheDir.empty())
        cache = std::make_unique<CellCache>(cfg_.cacheDir);

    std::atomic<std::size_t> cursor{0};
    std::mutex progressMu;
    std::size_t completed = 0;
    auto work = [&] {
        for (;;) {
            std::size_t i = cursor.fetch_add(1);
            if (i >= count)
                return;
            // Cells keep their global grid index (and therefore
            // seed), so disjoint ranges merge byte-identically.
            const ScenarioSpec &spec = grid[first + i];
            auto index = static_cast<std::uint64_t>(first + i);
            result.cells_[i] = cache ? cachedCell(*this, *cache, spec, index)
                                     : runCell(spec, index);
            if (cfg_.progress) {
                std::lock_guard<std::mutex> lock(progressMu);
                cfg_.progress(++completed, count);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t)
        pool.emplace_back(work);
    work(); // The caller's thread is worker 0.
    for (auto &th : pool)
        th.join();
    if (cache) {
        result.cacheHits_ = cache->hits();
        result.cacheStoreFailures_ = cache->storeFailures();
    }
    return result;
}

} // namespace sweep
} // namespace mbus
