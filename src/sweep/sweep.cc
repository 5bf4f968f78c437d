#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>

#include "sim/fsio.hh"
#include "sim/hash.hh"
#include "sim/random.hh"
#include "sweep/cache.hh"
#include "sweep/codec.hh"

namespace mbus {
namespace sweep {

namespace {

/** Byte-stable double formatting for the JSON (sim::formatDouble). */
std::string
fmt(double v)
{
    return sim::formatDouble(v);
}

/**
 * Cell names are free-form user strings; strip the characters that
 * would corrupt the CSV column structure or the JSON string literal
 * (RFC 8259 forbids raw control characters in strings), and inside a
 * '|'-packed column (@p pipe) the separator too.
 */
char
cleanChar(char c, bool pipe = false)
{
    bool bad = c == ',' || c == '"' || c == '\\' || (pipe && c == '|') ||
               static_cast<unsigned char>(c) < 0x20;
    return bad ? '_' : c;
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

/** Append one CSV value to @p out: bools as 0/1, doubles via
 *  sim::formatDouble, integers in decimal, a packed column by calling
 *  it on @p out, and strings as they are. */
template <class T>
void
put(std::string &out, const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        out += v ? '1' : '0';
    } else if constexpr (std::is_same_v<T, double>) {
        char buf[sim::kDoubleChars];
        out.append(buf, sim::formatDouble(v, buf));
    } else if constexpr (std::is_integral_v<T>) {
        char buf[24];
        out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else if constexpr (std::is_invocable_v<const T &, std::string &>) {
        v(out);
    } else {
        out += v;
    }
}

/** A name column: @p name through cleanChar(). */
auto
clean(const std::string &name, bool pipe = false)
{
    return [&name, pipe](std::string &out) {
        for (char c : name)
            out += cleanChar(c, pipe);
    };
}

/** A '|'-packed column ("1024|988|1002"): @p item(out, x) for each x
 *  of @p items; empty for an empty vector. */
template <class T, class F>
auto
packed(const std::vector<T> &items, F item)
{
    return [&items, item](std::string &out) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += '|';
            item(out, items[i]);
        }
    };
}

/** Per-node breakdown: one value per ring position. */
auto
perNode(const std::vector<std::uint64_t> &edges)
{
    return packed(edges,
                  [](std::string &out, std::uint64_t e) { put(out, e); });
}

/** One member of every actor of the cell's workload (names lose '|',
 *  this column's separator, too); empty for classic cells. */
template <class M>
auto
perActor(const ScenarioStats &s, M workload::ActorStats::*m)
{
    return packed(s.actorStats,
                  [m](std::string &out, const workload::ActorStats &a) {
                      if constexpr (std::is_same_v<M, std::string>)
                          put(out, clean(a.*m, /*pipe=*/true));
                      else
                          put(out, a.*m);
                  });
}

/**
 * A traced cell's counters and gauges as "name=value" pairs
 * ("events_executed=420|...|goodput_bps=1.5e3|..."), rendered from
 * its record: integers in decimal, doubles via sim::formatDouble, and
 * the tx_latency_s_* nearest-rank summary only when the cell completed
 * a transaction. Empty for untraced cells. Names are fixed
 * snake_case and values numeric, so the field is CSV/JSON-safe
 * without further quoting.
 */
auto
metricsColumn(const CellResult &c)
{
    return [&c](std::string &out) {
        if (!c.spec.trace.enabled())
            return;
        const ScenarioStats &s = c.stats;
        bool first = true;
        auto metric = [&out, &first](const char *name, auto value) {
            if (!first)
                out += '|';
            first = false;
            out += name;
            out += '=';
            put(out, value);
        };
        metric("events_executed", s.eventsExecuted);
        metric("dispatch_calls", s.dispatchCalls);
        metric("train_edges", s.trainEdges);
        metric("trains_scheduled", s.trainsScheduled);
        metric("clock_cycles", s.clockCycles);
        metric("slab_slots", s.slabSlots);
        metric("slab_live_peak", s.liveHighWater);
        metric("heap_callbacks", s.heapCallbacks);
        metric("fault_events", s.faultEvents);
        metric("bus_resets", s.busResets);
        metric("retries", s.retries);
        metric("recovered_tx", s.recoveredTx);
        metric("abandoned_tx", s.abandonedTx);
        metric("trace_events", s.traceEvents);
        metric("flight_dumps", s.flightDumps.size());
        metric("watchdog_rescues", s.watchdogRescues);
        metric("arb_losses", s.arbLosses);
        metric("interjections", s.interjectRequests);
        metric("goodput_bps", s.goodputBps);
        metric("energy_per_sample_j", s.energyPerSampleJ);
        const std::vector<double> &lat = s.txLatenciesS;
        if (!lat.empty()) {
            metric("tx_latency_s_count", lat.size());
            metric("tx_latency_s_p50", nearestRankPercentile(lat, 0.50));
            metric("tx_latency_s_p95", nearestRankPercentile(lat, 0.95));
            metric("tx_latency_s_p99", nearestRankPercentile(lat, 0.99));
        }
        std::uint64_t edgeSum = 0;
        for (std::uint64_t e : s.perNodeEdges)
            edgeSum += e;
        metric("node_edges_total", edgeSum);
    };
}

/** ok|interrupted|overflow|reset: the delivery/abort outcome census. */
auto
outcomeCounts(const ScenarioStats &s)
{
    return [&s](std::string &out) {
        for (int n : {s.deliveredOk, s.deliveredInterrupted,
                      s.deliveredOverflow}) {
            put(out, n);
            out += '|';
        }
        put(out, s.txResets);
    };
}

/** A packed column's bytes, for the hand-written JSON. */
template <class F>
std::string
render(const F &column)
{
    std::string out;
    column(out);
    return out;
}

/**
 * The CSV schema: each column's name and cell @p c's value, in column
 * order. The header, the rows and fingerprint() all render this one
 * list, so they cannot drift apart.
 */
template <class V>
void
columns(V &v, const CellResult &c)
{
    const ScenarioSpec &p = c.spec;
    const ScenarioStats &s = c.stats;
    using A = workload::ActorStats;
    v("index", c.index);
    v("name", clean(p.name));
    v("nodes", p.nodes);
    v("clock_hz", p.busClockHz);
    v("hop_delay_ns", p.hopDelayNs);
    v("wire_length_mm", p.wireLengthMm);
    v("wire_cap_f_per_mm", p.wireCapFPerMm);
    v("payload_bytes", p.payloadBytes);
    v("messages", p.messages);
    v("lanes", p.dataLanes);
    v("traffic", trafficPatternName(p.traffic));
    v("gated", p.powerGated);
    v("full_addr", p.fullAddressing);
    v("priority_rate", p.priorityRate);
    v("interject_rate", p.interjectRate);
    v("time_limit_ps", p.timeLimit);
    v("edge_trains", p.edgeTrains);
    v("backend", backend::backendKindName(p.backend));
    v("fidelity", fidelityName(s.fidelity));
    v("fault_spec", [&p](std::string &out) {
        if (!p.faults.enabled())
            put(out, "-");
        else if (p.faults.name.empty())
            put(out, "on");
        else
            put(out, clean(p.faults.name));
    });
    v("max_retries", p.retry.maxRetries);
    v("seed", c.seed);
    v("planned", s.planned);
    v("acked", s.acked);
    v("naked", s.naked);
    v("broadcast", s.broadcasts);
    v("interrupted", s.interrupted);
    v("rx_abort", s.rxAborts);
    v("failed", s.failed);
    v("mismatches", s.payloadMismatches);
    v("wedged", s.wedged);
    v("bytes_delivered", s.bytesDelivered);
    v("tx_per_s", s.txPerSecond);
    v("goodput_bps", s.goodputBps);
    v("events", s.eventsExecuted);
    v("events_per_bit", s.eventsPerBit);
    v("train_edges", s.trainEdges);
    v("dispatch_calls", s.dispatchCalls);
    v("clock_cycles", s.clockCycles);
    v("arb_retries", s.arbitrationRetries);
    v("switching_j", s.switchingJ);
    v("leakage_j", s.leakageJ);
    v("energy_per_sample_j", s.energyPerSampleJ);
    v("lifetime_days", s.lifetimeDays);
    v("avg_tx_latency_s", s.avgTxLatencyS);
    v("first_tx_latency_s", s.firstTxLatencyS);
    v("lat_p50_s", s.latencyP50S);
    v("lat_p95_s", s.latencyP95S);
    v("lat_p99_s", s.latencyP99S);
    v("avg_cycles_per_tx", s.avgCyclesPerTx);
    v("sim_time_ps", s.simTime);
    v("per_node_edges", perNode(s.perNodeEdges));
    v("vcd_bytes", s.vcdBytes);
    v("vcd_hash", s.vcdHash);
    v("workload", [&p](std::string &out) {
        if (p.workload.enabled())
            put(out, clean(p.workload.name));
        else
            put(out, "-");
    });
    v("samples_planned", s.samplesPlanned);
    v("samples_delivered", s.samplesDelivered);
    v("missed_deadlines", s.missedDeadlines);
    v("storm_interjections", s.stormInterjections);
    v("gate_windows", s.gateWindows);
    v("faults", s.faultsInjected);
    v("faults_recovered", s.faultsRecovered);
    v("retimings", s.retimings);
    v("fault_events", s.faultEvents);
    v("bus_resets", s.busResets);
    v("tx_resets", s.txResets);
    v("retries_used", s.retries);
    v("recovered_tx", s.recoveredTx);
    v("abandoned_tx", s.abandonedTx);
    v("recovery_p50_s", s.recoveryP50S);
    v("recovery_p95_s", s.recoveryP95S);
    v("recovery_p99_s", s.recoveryP99S);
    v("outcome_counts", outcomeCounts(s));
    v("actor_names", perActor(s, &A::name));
    v("actor_samples", perActor(s, &A::samplesDelivered));
    v("actor_missed", perActor(s, &A::missedDeadlines));
    v("actor_lat_p50_s", perActor(s, &A::latencyP50S));
    v("actor_lat_p95_s", perActor(s, &A::latencyP95S));
    v("actor_lat_p99_s", perActor(s, &A::latencyP99S));
    v("actor_energy_per_sample_j", perActor(s, &A::energyPerSampleJ));
    v("actor_duty_cycle", perActor(s, &A::dutyCycle));
    v("slab_slots", s.slabSlots);
    v("slab_live_peak", s.liveHighWater);
    v("heap_callbacks", s.heapCallbacks);
    v("trace_events", s.traceEvents);
    v("trace_bytes", s.traceJson.size());
    v("trace_hash", s.traceHash);
    v("flight_dumps", s.flightDumps.size());
    v("metrics", metricsColumn(c));
}

/** Render the CSV into one reused line buffer and hand @p emit each
 *  line: the header, then one row per cell. The wall-time column is
 *  never part of columns(). */
template <class Emit>
void
csvLines(const std::vector<CellResult> &cells, bool wallTime, Emit emit)
{
    std::string line;
    auto csvLine = [&](const CellResult &c, bool header) {
        line.clear();
        bool first = true;
        auto column = [&](const char *name, const auto &value) {
            if (!first)
                line += ',';
            first = false;
            if (header)
                line += name;
            else
                put(line, value);
        };
        columns(column, c);
        if (wallTime)
            column("wall_s", c.wallSeconds);
        line += '\n';
        emit(line);
    };
    csvLine(CellResult(), /*header=*/true);
    for (const CellResult &c : cells)
        csvLine(c, /*header=*/false);
}

} // namespace

void
SweepResult::writeCsv(std::ostream &os, bool includeWallTime) const
{
    csvLines(cells_, includeWallTime, [&](const std::string &line) {
        os.write(line.data(), static_cast<std::streamsize>(line.size()));
    });
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
       << ", \"per_node_edges\": \"" << render(perNode(a.perNodeEdges))
       << "\"},\n  \"cells\": [\n";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const CellResult &c = cells_[i];
        const ScenarioStats &s = c.stats;
        os << "    {\"index\": " << c.index << ", \"name\": \""
           << render(clean(c.spec.name)) << "\", \"backend\": \""
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
           << ", \"per_node_edges\": \"" << render(perNode(s.perNodeEdges))
           << "\", \"switching_j\": " << fmt(s.switchingJ)
           << ", \"wedged\": " << (s.wedged ? "true" : "false")
           << ", \"fault_events\": " << s.faultEvents
           << ", \"bus_resets\": " << s.busResets
           << ", \"tx_resets\": " << s.txResets
           << ", \"retries_used\": " << s.retries
           << ", \"recovered_tx\": " << s.recoveredTx
           << ", \"abandoned_tx\": " << s.abandonedTx
           << ", \"outcome_counts\": \"" << render(outcomeCounts(s)) << "\""
           << ", \"slab_live_peak\": " << s.liveHighWater
           << ", \"trace_events\": " << s.traceEvents
           << ", \"trace_bytes\": " << s.traceJson.size()
           << ", \"trace_hash\": " << s.traceHash
           << ", \"flight_dumps\": " << s.flightDumps.size()
           << ", \"metrics\": \"" << render(metricsColumn(c)) << "\"";
        if (!s.actorStats.empty()) {
            os << ", \"workload\": \""
               << render(clean(c.spec.workload.name))
               << "\", \"samples_planned\": " << s.samplesPlanned
               << ", \"samples_delivered\": " << s.samplesDelivered
               << ", \"missed_deadlines\": " << s.missedDeadlines
               << ", \"faults\": " << s.faultsInjected
               << ", \"retimings\": " << s.retimings
               << ", \"actors\": [";
            for (std::size_t k = 0; k < s.actorStats.size(); ++k) {
                const workload::ActorStats &act = s.actorStats[k];
                os << (k ? ", " : "") << "{\"name\": \""
                   << render(clean(act.name)) << "\", \"kind\": \""
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
    // FNV-1a chained line by line: the same hash as over the whole
    // CSV, without ever holding it.
    std::uint64_t hash = sim::kFnvOffsetBasis;
    csvLines(cells_, /*wallTime=*/false, [&](const std::string &line) {
        hash = sim::fnv1a(line.data(), line.size(), hash);
    });
    return hash;
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
    CellResult r;
    if (cache.lookup(key, r.stats)) {
        r.spec = spec;
        r.index = index;
        r.seed = seed;
        return r;
    }
    r = driver.runCell(spec, index);
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
