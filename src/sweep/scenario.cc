#include "sweep/scenario.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <vector>

#include "analysis/lifetime.hh"
#include "backend/backend.hh"
#include "backend/mbus_message_backend.hh"
#include "mbus/layer_controller.hh"
#include "mbus/message.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/vcd.hh"
#include "workload/traffic.hh"

namespace mbus {
namespace sweep {

const char *
trafficPatternName(TrafficPattern p)
{
    switch (p) {
    case TrafficPattern::SingleSender: return "single";
    case TrafficPattern::RandomPairs: return "pairs";
    case TrafficPattern::AllToOne: return "all_to_one";
    case TrafficPattern::BroadcastMix: return "bcast_mix";
    }
    return "?";
}

const char *
fidelityName(Fidelity f)
{
    switch (f) {
    case Fidelity::Auto: return "auto";
    case Fidelity::Edge: return "edge";
    case Fidelity::Message: return "message";
    }
    return "?";
}

bool
messageLevelEligible(const ScenarioSpec &spec)
{
    if (spec.fidelity != Fidelity::Auto ||
        spec.backend != backend::BackendKind::Mbus)
        return false;
    // Everything that perturbs the fixed transaction script, or asks
    // for per-edge output, needs the edge engine.
    if (spec.workload.enabled() || spec.faults.enabled() ||
        spec.trace.enabled() || spec.captureVcd || spec.powerGated ||
        spec.interjectRate > 0)
        return false;
    // The kernel A/B switches exist to study edge-engine cost.
    if (!spec.edgeTrains || !spec.chunkedDispatch)
        return false;
    if (spec.nodes < 2 || spec.nodes > 14 || spec.dataLanes < 1 ||
        spec.dataLanes > 4 || spec.busClockHz <= 0 ||
        spec.payloadBytes > bus::kMinMaxMessageBytes)
        return false;
    const sim::SimTime hop = backend::hopDelayFromNs(spec.hopDelayNs);
    const sim::SimTime period = sim::periodFromHz(spec.busClockHz);
    const sim::SimTime half = period / 2;
    const sim::SimTime flush =
        (static_cast<sim::SimTime>(spec.nodes) + 2) * hop;
    // Every edge must flush the ring before the next is driven; at
    // the exact safe-clock limit ring checks and ticks would tie.
    if (hop == 0 || half <= flush)
        return false;
    // A wedge guard that could cut a transaction mid-script needs the
    // edge engine's partial state: admit only plans whose worst-case
    // duration fits the limit, and an idle return well inside the 1 s
    // runUntilIdle window.
    const std::uint64_t lanes = static_cast<std::uint64_t>(spec.dataLanes);
    const std::uint64_t cycles =
        (spec.fullAddressing ? 32 : 8) +
        (8 * spec.payloadBytes + lanes - 1) / lanes;
    const double perMessage =
        static_cast<double>(2 * cycles + 24) * static_cast<double>(half) +
        2.0 * static_cast<double>(period) + 4.0 * static_cast<double>(flush);
    return static_cast<double>(spec.messages) * perMessage <=
               static_cast<double>(spec.timeLimit) &&
           2 * half + flush < sim::kSecond;
}

namespace {

/** One pre-generated transaction of the cell's traffic plan. */
struct PlannedTx
{
    std::size_t sender = 0;
    bus::Address dest;
    std::vector<std::uint8_t> payload;
    bool priority = false;
    // Fault schedule: a third party interjects mid-message.
    bool interject = false;
    std::size_t interjector = 0;
    double interjectFrac = 0;
};

/**
 * Generate the whole traffic plan up front, consuming the cell RNG
 * stream in one fixed order. Nothing downstream draws randomness, so
 * the plan -- and therefore the run -- is a pure function of the
 * seed regardless of how callbacks interleave.
 */
std::vector<PlannedTx>
makePlan(const ScenarioSpec &spec, backend::BusBackend &backend,
         sim::Random &rng)
{
    std::size_t n = static_cast<std::size_t>(spec.nodes);
    std::vector<PlannedTx> plan;
    plan.reserve(static_cast<std::size_t>(spec.messages));
    for (int k = 0; k < spec.messages; ++k) {
        PlannedTx tx;
        switch (spec.traffic) {
        case TrafficPattern::SingleSender:
            tx.sender = n >= 3 ? 1 : 0;
            tx.dest = backend.unicastAddress(n - 1, spec.fullAddressing,
                                             bus::kFuMailbox);
            break;
        case TrafficPattern::RandomPairs: {
            tx.sender = rng.below(n);
            std::size_t d = rng.below(n - 1);
            if (d >= tx.sender)
                ++d;
            tx.dest = backend.unicastAddress(d, spec.fullAddressing,
                                             bus::kFuMailbox);
            break;
        }
        case TrafficPattern::AllToOne:
            tx.sender = 1 + static_cast<std::size_t>(k) % (n - 1);
            tx.dest = backend.unicastAddress(0, spec.fullAddressing,
                                             bus::kFuMailbox);
            break;
        case TrafficPattern::BroadcastMix: {
            tx.sender = rng.below(n);
            if (rng.chance(0.25)) {
                tx.dest = bus::Address::broadcast(bus::kChannelUserBase);
            } else {
                std::size_t d = rng.below(n - 1);
                if (d >= tx.sender)
                    ++d;
                // Broadcast-mix unicasts stay short-addressed even in
                // full-addressing cells (matches the historical plan).
                tx.dest = backend.unicastAddress(
                    d, /*fullAddressing=*/false, bus::kFuMailbox);
            }
            break;
        }
        }
        tx.payload.resize(spec.payloadBytes);
        for (auto &b : tx.payload)
            b = rng.byte();
        tx.priority = rng.chance(spec.priorityRate);
        // Fault schedule draws happen unconditionally so the stream
        // position never depends on earlier outcomes.
        bool wantStorm = rng.chance(spec.interjectRate);
        std::size_t stormNode = rng.below(n - 1);
        double frac = 0.15 + 0.75 * rng.uniform();
        if (wantStorm) {
            tx.interject = true;
            tx.interjector =
                stormNode >= tx.sender ? stormNode + 1 : stormNode;
            tx.interjectFrac = frac;
        }
        plan.push_back(std::move(tx));
    }
    return plan;
}

/** The classic traffic driver: one planned message at a time from
 *  the makePlan() stream, each issued when the previous completes. */
workload::WorkloadRunStats
runClassicTraffic(const ScenarioSpec &spec, backend::BusBackend &backend,
                  sim::Simulator &simulator)
{
    auto plan = makePlan(spec, backend, simulator.rng());
    workload::TrafficRun traffic(backend, simulator, spec.timeLimit);
    traffic.stats.planned = spec.messages;
    traffic.stats.txLatenciesS.reserve(plan.size());

    int done = 0;
    auto finished = [&] { return done >= spec.messages; };
    std::function<void()> issueNext = [&] {
        if (finished())
            return;
        const PlannedTx &tx = plan[static_cast<std::size_t>(done)];
        bus::Message msg;
        msg.dest = tx.dest;
        msg.payload = tx.payload;
        msg.priority = tx.priority;
        if (tx.interject) {
            // Storm: a third party cuts the message after a fraction
            // of its modelled duration, timed on the clock the
            // fabric actually runs (clamped fabrics run slower than
            // the spec requests).
            sim::SimTime period =
                sim::periodFromHz(backend.busClockHz());
            auto cycles = static_cast<double>(msg.totalCycles());
            auto delay = static_cast<sim::SimTime>(
                tx.interjectFrac * cycles * static_cast<double>(period));
            std::size_t who = tx.interjector;
            simulator.schedule(delay,
                               [&backend, who] { backend.interject(who); });
        }
        traffic.send(tx.sender, std::move(msg), spec.retry,
                     [&](const bus::TxResult &, bool) {
                         ++done;
                         traffic.stopIf(finished());
                         issueNext();
                     });
    };
    issueNext();
    traffic.run(finished);
    return std::move(traffic.stats);
}

} // namespace

ScenarioStats
runScenario(const ScenarioSpec &spec, std::uint64_t seed,
            const CellHooks &hooks)
{
    if (spec.nodes < 2 || spec.nodes > 14)
        mbus_fatal("scenario needs 2..14 nodes, got ", spec.nodes);
    if (spec.messages < 0)
        mbus_fatal("scenario needs messages >= 0, got ",
                   spec.messages);

    sim::Simulator simulator;
    simulator.seedRng(seed);

    // Zero-overhead-when-off: the tracer only exists when asked for.
    // It observes (never schedules events, never draws RNG), so an
    // enabled tracer cannot perturb the simulation either -- pinned
    // by the trace-off golden-VCD test and the on/off identity test.
    std::unique_ptr<trace::Tracer> tracer;
    if (spec.trace.enabled()) {
        tracer = std::make_unique<trace::Tracer>(simulator, spec.trace,
                                                 spec.nodes);
        simulator.setTracer(tracer.get());
    }

    backend::BusParams params;
    params.nodes = spec.nodes;
    params.busClockHz = spec.busClockHz;
    params.hopDelayNs = spec.hopDelayNs;
    params.wireCapF = spec.wireLengthMm * spec.wireCapFPerMm;
    params.dataLanes = spec.dataLanes;
    params.powerGated = spec.powerGated;
    params.edgeTrains = spec.edgeTrains;
    params.chunkedDispatch = spec.chunkedDispatch;
    params.softRxCapacity = spec.softRxCapacity;
    // Edge fidelity simulates every edge: no fast-forward.
    params.fastForward = spec.fidelity != Fidelity::Edge;
    if (hooks.tune)
        hooks.tune(params);

    // Eligible cells run the message-level MBus model; makeBackend
    // always builds the edge-level fabric.
    const bool messageLevel = messageLevelEligible(spec);
    std::unique_ptr<backend::BusBackend> backend =
        messageLevel ? std::make_unique<backend::MbusMessageBackend>(
                           simulator, params)
                     : backend::makeBackend(spec.backend, simulator,
                                            params);

    sim::TraceRecorder recorder;
    if (spec.captureVcd)
        backend->attachTrace(recorder);

    // Fault engine: compiled on the same cell seed (disjoint split
    // streams) and armed before any traffic so injected events land
    // at absolute plan times. Nodes [1, faultable) are eligible;
    // mixed-ring fabrics exclude their software member, whose pins
    // the wire-level hooks cannot force.
    std::unique_ptr<fault::FaultEngine> faultEngine;
    if (spec.faults.enabled()) {
        int faultable = spec.nodes;
        if (spec.backend == backend::BackendKind::Bitbang ||
            spec.backend == backend::BackendKind::Firmware)
            --faultable;
        faultEngine = std::make_unique<fault::FaultEngine>(
            spec.faults, seed, faultable);
        faultEngine->arm(*backend, simulator);
    }

    // Application-mix cells run a plan compiled on the cell seed (the
    // messages/traffic knobs are ignored) under a guard raised to
    // cover the mix; classic cells stream the makePlan() messages.
    sim::SimTime mixLimit = std::max(
        spec.timeLimit,
        sim::fromSeconds(spec.workload.durationS) + sim::kSecond);
    workload::WorkloadRunStats w =
        spec.workload.enabled()
            ? workload::WorkloadEngine(spec.workload, seed, spec.nodes)
                  .drive(*backend, simulator, mixLimit)
            : runClassicTraffic(spec, *backend, simulator);

    ScenarioStats st;
    st.fidelity = messageLevel ? Fidelity::Message : Fidelity::Edge;
    static_cast<workload::TrafficCounts &>(st) = w;
    st.actorStats = std::move(w.actors);

    // --- Reduction ---------------------------------------------------
    int done = static_cast<int>(w.txLatenciesS.size());
    double elapsedS = sim::toSeconds(w.lastCompletion);
    if (done > 0 && elapsedS > 0) {
        st.txPerSecond = static_cast<double>(done) / elapsedS;
        st.goodputBps =
            8.0 * static_cast<double>(st.bytesDelivered) / elapsedS;
        st.avgTxLatencyS = w.latencySumS / done;
        st.avgCyclesPerTx = st.avgTxLatencyS * backend->busClockHz();
    }
    if (done > 0) {
        st.txLatenciesS = std::move(w.txLatenciesS);
        std::sort(st.txLatenciesS.begin(), st.txLatenciesS.end());
        st.latencyP50S = nearestRankPercentile(st.txLatenciesS, 0.50);
        st.latencyP95S = nearestRankPercentile(st.txLatenciesS, 0.95);
        st.latencyP99S = nearestRankPercentile(st.txLatenciesS, 0.99);
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

    // Fault and recovery reduction (all-zero with faults off).
    st.faultEvents = faultEngine ? faultEngine->injected() : 0;
    st.busResets = backend->busResets();
    if (!w.recoveryS.empty()) {
        std::sort(w.recoveryS.begin(), w.recoveryS.end());
        st.recoveryP50S = nearestRankPercentile(w.recoveryS, 0.50);
        st.recoveryP95S = nearestRankPercentile(w.recoveryS, 0.95);
        st.recoveryP99S = nearestRankPercentile(w.recoveryS, 0.99);
    }

    // Cross-backend headline numbers: energy per delivered sample
    // (workload cells) or per ACKed message, and the paper-style
    // battery-lifetime projection of the measured mix.
    double totalJ = st.switchingJ + st.leakageJ;
    int units = spec.workload.enabled() ? st.samplesDelivered
                                        : st.acked + st.broadcasts;
    if (units > 0)
        st.energyPerSampleJ = totalJ / static_cast<double>(units);
    st.lifetimeDays = analysis::projectedLifetimeDays(
        totalJ, sim::toSeconds(st.simTime));

    if (spec.captureVcd) {
        std::ostringstream os;
        recorder.writeVcd(os);
        st.vcd = os.str();
        st.vcdBytes = st.vcd.size();
        st.vcdHash = sim::fnv1a(st.vcd.data(), st.vcd.size());
    }

    st.slabSlots =
        static_cast<std::uint64_t>(simulator.queue().slabSlots());
    st.liveHighWater = simulator.queue().liveHighWater();
    st.heapCallbacks = simulator.queue().heapCallbackCount();

    if (tracer) {
        // A wedge trips the flight recorder before export: the dump
        // names whichever transactions were still open at the guard.
        if (st.wedged)
            tracer->trip("wedge-guard");
        st.traceEvents = tracer->recorded();
        if (spec.trace.protocol) {
            st.traceJson = tracer->chromeJson();
            st.traceHash =
                sim::fnv1a(st.traceJson.data(), st.traceJson.size());
        }
        st.flightDumps = tracer->dumps();

        st.watchdogRescues =
            tracer->countOf(trace::EventKind::WatchdogRescue);
        st.arbLosses = tracer->countOf(trace::EventKind::ArbLoss);
        st.interjectRequests =
            tracer->countOf(trace::EventKind::InterjectRequest);

        simulator.setTracer(nullptr);
    }
    if (hooks.inspect)
        hooks.inspect(*backend);
    return st;
}

} // namespace sweep
} // namespace mbus
