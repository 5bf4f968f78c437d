/**
 * @file
 * Event-kernel throughput benchmark: the slab-allocated kernel
 * against the seed's shared_ptr/std::function design.
 *
 * The seed kernel (priority_queue of {time, seq, std::function,
 * shared_ptr<State>} entries) is replicated verbatim in the `legacy`
 * namespace below, so the before/after comparison stays reproducible
 * forever, independent of git history. Three workloads:
 *
 *  - tick_chain: one self-rescheduling event, the pattern behind the
 *    mediator's clock generation -- pure schedule/execute cost;
 *  - tick_train: the same edge stream carried by kernel edge trains
 *    (scheduleEdgeTrain): one slab event per chunk of edges instead
 *    of one per edge;
 *  - cancel_heavy: every event schedules a timeout it then cancels,
 *    the pattern behind ring checks and watchdogs;
 *  - net_chain: the real wire stack, 14 forwarding hops (a plausible
 *    ring), measuring delivered edges through Net fanout;
 *  - net_train: the same ring driven rhythmically with net-level
 *    edge-train batching enabled (the MBus CLK broadcast shape);
 *  - dispatch_fanout: one net fanning edges out to 1/4/16 listeners,
 *    per-edge onNetEdge delivery vs chunked onEdges runs -- the
 *    listener-side analogue of kernel edge trains. Reports delivered
 *    edges/sec and the deterministic listener calls per edge.
 *
 * Alongside throughput, the bench measures events/bit -- kernel
 * events retired per delivered edge, the scheduler-operation metric
 * the edge-train work reduces -- before (discrete) and after
 * (trains) on the tick and forwarding workloads.
 *
 * Results print as a table and are written as machine-readable JSON
 * (default BENCH_kernel.json). The JSON keeps a "runs" history:
 * existing entries in the output file are preserved and the new run
 * is appended, so the perf trajectory accumulates across commits.
 *
 * Usage: bench_kernel [--smoke] [--out PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/fsio.hh"
#include "sim/simulator.hh"
#include "wire/net.hh"

namespace legacy {

// ----------------------------------------------------------------- //
// Faithful replica of the seed event kernel (PR 1 refactored it      //
// away): one make_shared per schedule, std::function entries, a      //
// shared live counter, tombstone cancellation.                       //
// ----------------------------------------------------------------- //

using SimTime = mbus::sim::SimTime;
using EventFunction = std::function<void()>;
constexpr SimTime kTimeForever = mbus::sim::kTimeForever;

class EventQueue;

class EventHandle
{
  public:
    EventHandle() = default;

    void
    cancel()
    {
        if (auto s = state_.lock()) {
            if (!s->cancelled && !s->fired) {
                s->cancelled = true;
                if (auto live = s->liveCounter.lock())
                    --*live;
            }
        }
    }

    bool
    pending() const
    {
        auto s = state_.lock();
        return s && !s->cancelled && !s->fired;
    }

  private:
    friend class EventQueue;

    struct State
    {
        bool cancelled = false;
        bool fired = false;
        std::weak_ptr<std::uint64_t> liveCounter;
    };

    explicit EventHandle(std::shared_ptr<State> state)
        : state_(std::move(state))
    {}

    std::weak_ptr<State> state_;
};

class EventQueue
{
  public:
    EventHandle
    schedule(SimTime when, EventFunction fn)
    {
        auto state = std::make_shared<EventHandle::State>();
        state->liveCounter = live_;
        heap_.push(Entry{when, nextSeq_++, std::move(fn), state});
        ++*live_;
        return EventHandle(std::move(state));
    }

    bool empty() const { return *live_ == 0; }

    SimTime
    nextTime() const
    {
        skipCancelled();
        return heap_.empty() ? kTimeForever : heap_.top().when;
    }

    SimTime
    executeNext()
    {
        skipCancelled();
        Entry &top = const_cast<Entry &>(heap_.top());
        SimTime when = top.when;
        EventFunction fn = std::move(top.fn);
        auto state = std::move(top.state);
        heap_.pop();
        state->fired = true;
        --*live_;
        ++executed_;
        fn();
        return when;
    }

    std::uint64_t executedCount() const { return executed_; }

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t seq;
        EventFunction fn;
        std::shared_ptr<EventHandle::State> state;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    void
    skipCancelled() const
    {
        while (!heap_.empty() && heap_.top().state->cancelled)
            heap_.pop();
    }

    mutable std::priority_queue<Entry, std::vector<Entry>,
                                std::greater<Entry>> heap_;
    std::uint64_t nextSeq_ = 0;
    std::shared_ptr<std::uint64_t> live_ =
        std::make_shared<std::uint64_t>(0);
    std::uint64_t executed_ = 0;
};

class Simulator
{
  public:
    SimTime now() const { return now_; }

    EventHandle
    schedule(SimTime delay, EventFunction fn)
    {
        return queue_.schedule(now_ + delay, std::move(fn));
    }

    void
    run()
    {
        while (!queue_.empty())
            now_ = queue_.executeNext();
    }

    std::uint64_t eventsExecuted() const { return queue_.executedCount(); }

  private:
    EventQueue queue_;
    SimTime now_ = 0;
};

} // namespace legacy

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * One self-rescheduling tick chain of @p n events, scheduled through
 * each kernel's native callback interface: the seed kernel only
 * accepts std::function; the slab kernel takes the context-thunk
 * functor directly (the refactor's intended usage).
 */
double
runTickChainLegacy(std::uint64_t n)
{
    legacy::Simulator sim;
    std::uint64_t remaining = n;
    std::function<void()> tick = [&] {
        if (--remaining > 0)
            sim.schedule(1000, tick);
    };
    auto t0 = Clock::now();
    sim.schedule(1000, tick);
    sim.run();
    return static_cast<double>(n) / secondsSince(t0);
}

struct SlabTick
{
    mbus::sim::Simulator *sim;
    std::uint64_t *remaining;

    void
    operator()() const
    {
        if (--*remaining > 0)
            sim->schedule(1000, SlabTick{sim, remaining});
    }
};

double
runTickChainSlab(std::uint64_t n)
{
    mbus::sim::Simulator sim;
    std::uint64_t remaining = n;
    auto t0 = Clock::now();
    sim.schedule(1000, SlabTick{&sim, &remaining});
    sim.run();
    return static_cast<double>(n) / secondsSince(t0);
}

/**
 * The train flavor of the tick chain: the same number of edges, but
 * carried by self edge trains (the mediator's clock-generation shape
 * after the batching refactor). The chunked driver is shared with
 * perf_gate (bench_util.hh) so the regression baseline measures
 * exactly this workload.
 */
double
runTickTrainSlab(std::uint64_t n, double *eventsPerEdge = nullptr)
{
    mbus::sim::Simulator sim;
    mbus::benchutil::TrainTickDriver sink;
    sink.sim = &sim;
    sink.remaining = n;
    auto t0 = Clock::now();
    sink.arm();
    sim.run();
    double rate = static_cast<double>(n) / secondsSince(t0);
    if (eventsPerEdge) {
        *eventsPerEdge = static_cast<double>(sim.eventsExecuted()) /
                         static_cast<double>(n);
    }
    return rate;
}

/**
 * Schedule/cancel churn: each tick schedules a "timeout" two periods
 * out and cancels the one it scheduled last time (the ring-check /
 * watchdog pattern). Counts both the tick and the timeout handling.
 */
template <typename Simulator, typename Handle>
double
runCancelHeavy(std::uint64_t n)
{
    Simulator sim;
    std::uint64_t remaining = n;
    Handle lastTimeout;
    std::function<void()> tick = [&] {
        lastTimeout.cancel();
        lastTimeout = sim.schedule(2500, [] {});
        if (--remaining > 0)
            sim.schedule(1000, tick);
    };
    auto t0 = Clock::now();
    sim.schedule(1000, tick);
    sim.run();
    return static_cast<double>(n) / secondsSince(t0);
}

/** The real stack: a 14-hop forwarding chain of Nets. */
double
runNetChain(std::uint64_t rounds)
{
    namespace sim = mbus::sim;
    namespace wire = mbus::wire;

    sim::Simulator simulator;
    const int kHops = 14;
    std::vector<std::unique_ptr<wire::Net>> nets;
    nets.reserve(kHops);
    for (int i = 0; i < kHops; ++i) {
        nets.push_back(std::make_unique<wire::Net>(
            simulator, "hop" + std::to_string(i), 10 * sim::kNanosecond,
            true));
    }

    struct Forwarder final : wire::EdgeListener
    {
        wire::Net *next = nullptr;
        void onNetEdge(wire::Net &, bool v) override { next->drive(v); }
    };
    std::vector<Forwarder> fwd(kHops - 1);
    for (int i = 0; i + 1 < kHops; ++i) {
        fwd[static_cast<std::size_t>(i)].next = nets[i + 1].get();
        nets[i]->listen(wire::Edge::Any, fwd[i]);
    }

    auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (int e = 0; e < 100; ++e)
            nets[0]->drive(e % 2 == 0);
        simulator.run();
    }
    double events = static_cast<double>(rounds) * 100.0 * kHops;
    return events / secondsSince(t0);
}

/**
 * The MBus hot path proper: the shared 14-hop forwarding ring
 * (bench_util.hh) driven rhythmically, with or without net-level
 * edge-train batching. Reports delivered edges/second; optionally
 * kernel events per delivered edge -- the events/bit metric.
 */
double
runNetRing(std::uint64_t edges, bool trains,
           double *eventsPerEdge = nullptr)
{
    mbus::benchutil::ForwardRing ring(trains);
    std::uint64_t left = edges;
    auto t0 = Clock::now();
    bool first = false;
    while (left > 0) {
        auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, 100000));
        ring.pump(chunk, first);
        first = chunk % 2 ? !first : first;
        left -= chunk;
    }
    double delivered = static_cast<double>(edges) *
                       mbus::benchutil::ForwardRing::kHops;
    double rate = delivered / secondsSince(t0);
    if (eventsPerEdge)
        *eventsPerEdge = ring.eventsPerEdge(edges);
    return rate;
}

/**
 * Listener-dispatch fanout: one net, @p listeners subscribers, driven
 * with strictly alternating edges in 100-edge bursts. Per-edge mode
 * delivers every edge through onNetEdge (listeners calls per edge);
 * chunked mode registers the same subscribers through listenBatched
 * and flushes once per burst, so each burst costs one onEdges call
 * per listener. Returns delivered edges (edges x listeners) per
 * second; optionally the deterministic listener calls per edge.
 */
double
runDispatchFanout(std::uint64_t edges, int listeners, bool chunked,
                  double *callsPerEdge = nullptr)
{
    namespace sim = mbus::sim;
    namespace wire = mbus::wire;

    struct FanoutCounter final : wire::EdgeListener
    {
        std::uint64_t edges = 0;
        void onNetEdge(wire::Net &, bool) override { ++edges; }
        void
        onEdges(wire::Net &, wire::EdgeRun run) override
        {
            edges += run.count;
        }
    };

    sim::Simulator simulator;
    wire::Net net(simulator, "fanout", 10 * sim::kNanosecond, true);
    std::vector<FanoutCounter> subs(
        static_cast<std::size_t>(listeners));
    for (FanoutCounter &s : subs) {
        if (chunked)
            net.listenBatched(s);
        else
            net.listen(wire::Edge::Any, s);
    }
    net.setChunkedDispatch(chunked);

    auto t0 = Clock::now();
    bool next = false; // The net starts high: every drive edges.
    for (std::uint64_t e = 0; e < edges;) {
        for (int burst = 0; burst < 100 && e < edges; ++burst, ++e) {
            net.drive(next);
            next = !next;
        }
        simulator.run();
        net.flushDeferred();
    }
    double seconds = secondsSince(t0);

    std::uint64_t want = edges * static_cast<std::uint64_t>(listeners);
    std::uint64_t got = 0;
    for (const FanoutCounter &s : subs)
        got += s.edges;
    if (got != want) {
        std::fprintf(stderr,
                     "FAIL: dispatch_fanout delivered %llu edges, "
                     "expected %llu\n",
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
        std::exit(1);
    }
    if (callsPerEdge) {
        *callsPerEdge = static_cast<double>(net.dispatchCalls()) /
                        static_cast<double>(edges);
    }
    return static_cast<double>(want) / seconds;
}

struct Row
{
    std::string name;
    double legacyRate;
    double newRate;
};

/** One dispatch_fanout data point: delivered edges/sec and listener
 *  calls per edge, per-edge delivery vs chunked runs. */
struct FanoutRow
{
    int listeners;
    double perEdgeRate;
    double chunkedRate;
    double perEdgeCalls;
    double chunkedCalls;
};

/** One events/bit data point: kernel events per delivered edge,
 *  discrete path vs edge-train path. Deterministic (no wall clock). */
struct EpbRow
{
    std::string name;
    double before;
    double after;
};

/**
 * Pull the existing "runs" history entries (one per line) out of a
 * previous BENCH_kernel.json so the new run can be appended rather
 * than overwriting the trajectory. Returns an empty list when the
 * file is missing or predates the history format.
 */
std::vector<std::string>
readRunHistory(const std::string &path)
{
    std::vector<std::string> entries;
    std::ifstream in(path);
    if (!in)
        return entries;
    std::string line;
    bool inRuns = false;
    // Legacy (pre-history) files carry one run at the top level;
    // convert it into the first history entry so the data point from
    // earlier commits survives the format change.
    std::string legacyMode = "full";
    std::string legacySpeedups;
    while (std::getline(in, line)) {
        if (line.find("\"runs\": [") != std::string::npos) {
            inRuns = true;
            continue;
        }
        if (!inRuns) {
            std::size_t m = line.find("\"mode\": \"");
            if (m != std::string::npos) {
                std::string rest = line.substr(m + 9);
                legacyMode = rest.substr(0, rest.find('"'));
            }
            std::size_t n = line.find("{\"name\": \"");
            std::size_t s = line.find("\"speedup\": ");
            if (n != std::string::npos && s != std::string::npos) {
                std::string rest = line.substr(n + 10);
                std::string name = rest.substr(0, rest.find('"'));
                double speedup =
                    std::strtod(line.c_str() + s + 11, nullptr);
                std::ostringstream os;
                os << (legacySpeedups.empty() ? "" : ", ") << "\""
                   << name << "\": " << speedup;
                legacySpeedups += os.str();
            }
            continue;
        }
        std::size_t start = line.find('{');
        if (start == std::string::npos)
            break; // "]" (or anything else) closes the history.
        std::string entry = line.substr(start);
        while (!entry.empty() &&
               (entry.back() == ',' || entry.back() == ' '))
            entry.pop_back();
        entries.push_back(std::move(entry));
    }
    if (entries.empty() && !legacySpeedups.empty()) {
        entries.push_back("{\"mode\": \"" + legacyMode +
                          "\", \"speedups\": {" + legacySpeedups +
                          "}}");
    }
    return entries;
}

/** Best of three runs: damps scheduler/neighbour noise the same
 *  way for both kernels. */
template <typename Fn>
double
best3(Fn fn)
{
    double best = 0;
    for (int i = 0; i < 3; ++i) {
        double r = fn();
        if (r > best)
            best = r;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string outPath = "BENCH_kernel.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            outPath = argv[++i];
    }

    const std::uint64_t kChain = smoke ? 200000 : 4000000;
    const std::uint64_t kRounds = smoke ? 2000 : 30000;

    mbus::benchutil::banner(
        "bench_kernel: event-kernel throughput, slab vs. seed design",
        "ROADMAP north star (simulation rate); Secs 4.3-4.9 all ride "
        "this path");

    std::vector<Row> rows;
    rows.push_back({"tick_chain",
                    best3([&] { return runTickChainLegacy(kChain); }),
                    best3([&] { return runTickChainSlab(kChain); })});
    rows.push_back({"tick_train",
                    best3([&] { return runTickChainLegacy(kChain); }),
                    best3([&] { return runTickTrainSlab(kChain); })});
    rows.push_back(
        {"cancel_heavy",
         best3([&] {
             return runCancelHeavy<legacy::Simulator,
                                   legacy::EventHandle>(kChain);
         }),
         best3([&] {
             return runCancelHeavy<mbus::sim::Simulator,
                                   mbus::sim::EventHandle>(kChain);
         })});

    double netRate = best3([&] { return runNetChain(kRounds); });
    const std::uint64_t kRingEdges = smoke ? 20000 : 200000;
    double ringDiscreteRate =
        best3([&] { return runNetRing(kRingEdges, false); });
    double ringTrainRate =
        best3([&] { return runNetRing(kRingEdges, true); });

    const std::uint64_t kFanoutEdges = smoke ? 100000 : 1000000;
    std::vector<FanoutRow> fanout;
    for (int listeners : {1, 4, 16}) {
        FanoutRow row;
        row.listeners = listeners;
        row.perEdgeRate = best3([&] {
            return runDispatchFanout(kFanoutEdges, listeners, false);
        });
        row.chunkedRate = best3([&] {
            return runDispatchFanout(kFanoutEdges, listeners, true);
        });
        // calls/edge is deterministic: one small fixed-size run each.
        (void)runDispatchFanout(10000, listeners, false,
                                &row.perEdgeCalls);
        (void)runDispatchFanout(10000, listeners, true,
                                &row.chunkedCalls);
        fanout.push_back(row);
    }

    // events/bit: kernel events retired per delivered edge --
    // deterministic, measured once on a fixed-size run.
    std::vector<EpbRow> epb;
    {
        double tickAfter = 0;
        (void)runTickTrainSlab(100000, &tickAfter);
        // Discrete path: one kernel event per tick, by construction.
        epb.push_back({"tick", 1.0, tickAfter});
        double fwdBefore = 0, fwdAfter = 0;
        (void)runNetRing(10000, false, &fwdBefore);
        (void)runNetRing(10000, true, &fwdAfter);
        epb.push_back({"forward_ring", fwdBefore, fwdAfter});
    }

    // Pool behaviour on a steady-state run (for the JSON record).
    mbus::sim::Simulator poolSim;
    {
        std::uint64_t remaining = 10000;
        std::function<void()> tick = [&] {
            if (--remaining > 0)
                poolSim.schedule(1000, tick);
        };
        poolSim.schedule(1000, tick);
        poolSim.run();
    }

    mbus::benchutil::section("events/sec (higher is better)");
    std::printf("%-14s %15s %15s %9s\n", "workload", "seed-kernel",
                "slab-kernel", "speedup");
    for (const Row &r : rows) {
        std::printf("%-14s %15.0f %15.0f %8.2fx\n", r.name.c_str(),
                    r.legacyRate, r.newRate, r.newRate / r.legacyRate);
    }
    std::printf("%-14s %15s %15.0f %9s\n", "net_chain", "-", netRate,
                "-");
    std::printf("%-14s %15.0f %15.0f %8.2fx\n", "forward_ring",
                ringDiscreteRate, ringTrainRate,
                ringTrainRate / ringDiscreteRate);

    mbus::benchutil::section(
        "dispatch_fanout: delivered edges/sec, per-edge vs chunked "
        "listener delivery");
    std::printf("%-14s %15s %15s %9s %11s\n", "listeners", "per-edge",
                "chunked", "speedup", "calls/edge");
    for (const FanoutRow &r : fanout) {
        std::printf("%-14d %15.0f %15.0f %8.2fx %5.2f->%4.2f\n",
                    r.listeners, r.perEdgeRate, r.chunkedRate,
                    r.chunkedRate / r.perEdgeRate, r.perEdgeCalls,
                    r.chunkedCalls);
    }

    mbus::benchutil::section(
        "events/bit: kernel events per delivered edge (lower is "
        "better; deterministic)");
    std::printf("%-14s %12s %12s %11s\n", "workload", "discrete",
                "trains", "reduction");
    for (const EpbRow &r : epb) {
        std::printf("%-14s %12.4f %12.4f %10.2fx\n", r.name.c_str(),
                    r.before, r.after, r.before / r.after);
    }

    std::printf("\npool: slots=%zu heap-spilled callbacks=%llu "
                "(steady-state 10k-event run)\n",
                poolSim.queue().slabSlots(),
                static_cast<unsigned long long>(
                    poolSim.queue().heapCallbackCount()));

    // JSON record. The current run's numbers stay at the top level
    // (latest-run consumers keep working); the "runs" array carries
    // the whole trajectory, with any prior entries in the output file
    // preserved and this run appended.
    std::vector<std::string> history = readRunHistory(outPath);
    std::ostringstream runEntry;
    runEntry << "{\"mode\": \"" << (smoke ? "smoke" : "full")
             << "\", \"events_per_bit\": {";
    for (std::size_t i = 0; i < epb.size(); ++i) {
        runEntry << (i ? ", " : "") << "\"" << epb[i].name
                 << "\": {\"before\": " << epb[i].before
                 << ", \"after\": " << epb[i].after << "}";
    }
    runEntry << "}, \"speedups\": {";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        runEntry << (i ? ", " : "") << "\"" << rows[i].name
                 << "\": " << rows[i].newRate / rows[i].legacyRate;
    }
    runEntry << "}, \"dispatch_fanout\": {";
    for (std::size_t i = 0; i < fanout.size(); ++i) {
        runEntry << (i ? ", " : "") << "\"l"
                 << fanout[i].listeners
                 << "\": " << fanout[i].chunkedRate /
                                  fanout[i].perEdgeRate;
    }
    runEntry << "}}";
    history.push_back(runEntry.str());

    // This rewrites the accumulated trajectory file in place, so it
    // goes through the crash-safe temp-file + rename writer: a kill
    // mid-emission can never eat the history.
    std::ostringstream json;
    json << "{\n  \"bench\": \"bench_kernel\",\n  \"mode\": \""
         << (smoke ? "smoke" : "full") << "\",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        json << "    {\"name\": \"" << r.name
             << "\", \"seed_events_per_sec\": " << r.legacyRate
             << ", \"slab_events_per_sec\": " << r.newRate
             << ", \"speedup\": " << r.newRate / r.legacyRate << "}"
             << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    json << "  ],\n  \"events_per_bit\": [\n";
    for (std::size_t i = 0; i < epb.size(); ++i) {
        const EpbRow &r = epb[i];
        json << "    {\"name\": \"" << r.name
             << "\", \"before\": " << r.before
             << ", \"after\": " << r.after
             << ", \"reduction\": " << r.before / r.after << "}"
             << (i + 1 < epb.size() ? ",\n" : "\n");
    }
    json << "  ],\n  \"dispatch_fanout\": [\n";
    for (std::size_t i = 0; i < fanout.size(); ++i) {
        const FanoutRow &r = fanout[i];
        json << "    {\"listeners\": " << r.listeners
             << ", \"per_edge_events_per_sec\": " << r.perEdgeRate
             << ", \"chunked_events_per_sec\": " << r.chunkedRate
             << ", \"speedup\": " << r.chunkedRate / r.perEdgeRate
             << ", \"per_edge_calls_per_edge\": " << r.perEdgeCalls
             << ", \"chunked_calls_per_edge\": " << r.chunkedCalls
             << "}" << (i + 1 < fanout.size() ? ",\n" : "\n");
    }
    json << "  ],\n  \"net_chain_events_per_sec\": " << netRate
         << ",\n  \"forward_ring_events_per_sec\": {\"discrete\": "
         << ringDiscreteRate << ", \"trains\": " << ringTrainRate
         << "},\n  \"pool\": {\"slab_slots\": "
         << poolSim.queue().slabSlots()
         << ", \"heap_spilled_callbacks\": "
         << poolSim.queue().heapCallbackCount() << "},\n"
         << "  \"runs\": [\n";
    for (std::size_t i = 0; i < history.size(); ++i) {
        json << "    " << history[i]
             << (i + 1 < history.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    if (!mbus::sim::atomicWriteFile(outPath, json.str())) {
        std::fprintf(stderr, "FAIL: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    std::printf("\nwrote %s (%zu run%s in history)\n", outPath.c_str(),
                history.size(), history.size() == 1 ? "" : "s");

    // Regression gate for CI. Wall-clock comparisons on shared
    // runners are noisy, so only a collapse below half the seed
    // kernel's rate is treated as a real regression; smaller dips
    // warn without failing the build.
    for (const Row &r : rows) {
        if (r.newRate < 0.5 * r.legacyRate) {
            std::fprintf(stderr,
                         "FAIL: %s collapsed below half the seed "
                         "kernel's rate\n",
                         r.name.c_str());
            return 1;
        }
        if (r.newRate < r.legacyRate) {
            std::fprintf(stderr,
                         "WARN: %s slower than seed kernel this run "
                         "(likely runner noise)\n",
                         r.name.c_str());
        }
    }
    // events/bit is deterministic, so this gate is exact: trains must
    // at least halve the kernel events per edge on covered workloads.
    for (const EpbRow &r : epb) {
        if (r.after * 2.0 > r.before) {
            std::fprintf(stderr,
                         "FAIL: %s events/bit only %f -> %f (< 2x "
                         "reduction)\n",
                         r.name.c_str(), r.before, r.after);
            return 1;
        }
    }
    // Same for listener calls/edge: chunked runs must at least halve
    // the per-edge dispatch cost at every fanout width.
    for (const FanoutRow &r : fanout) {
        if (r.chunkedCalls * 2.0 > r.perEdgeCalls) {
            std::fprintf(stderr,
                         "FAIL: dispatch_fanout l%d calls/edge only "
                         "%f -> %f (< 2x reduction)\n",
                         r.listeners, r.perEdgeCalls, r.chunkedCalls);
            return 1;
        }
    }
    return 0;
}
