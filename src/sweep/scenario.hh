/**
 * @file
 * One sweep cell: a self-contained, replayable MBus scenario.
 *
 * A ScenarioSpec fully describes one simulated system (ring size,
 * wire electricals, clock, traffic pattern, fault schedule) *except*
 * for its RNG seed, which the sweep driver derives from a master seed
 * via Random::split. runScenario() builds a private Simulator and
 * MBusSystem, generates the whole traffic plan up front from the cell
 * stream, drives it, and reduces the run to a ScenarioStats record.
 *
 * Determinism contract: ScenarioStats (including the VCD bytes when
 * captured) is a pure function of (spec, seed). This is what lets the
 * driver shard cells across any number of threads and still replay
 * any single cell solo, bit for bit.
 */

#ifndef MBUS_SWEEP_SCENARIO_HH
#define MBUS_SWEEP_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "fault/fault.hh"
#include "fault/retry.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/trace.hh"
#include "workload/workload.hh"

namespace mbus {
namespace sweep {

/** Who talks to whom within a cell. */
enum class TrafficPattern : std::uint8_t {
    SingleSender, ///< One member streams to the last node (Fig 14/15).
    RandomPairs,  ///< Random (sender, dest) per message.
    AllToOne,     ///< Members take turns sending to node 0 (gateway).
    BroadcastMix, ///< Unicasts with random broadcasts mixed in.
};

/** @return a short printable name ("single", "pairs", ...). */
const char *trafficPatternName(TrafficPattern p);

/**
 * Which model simulates a cell. A spec asks for Auto or Edge;
 * ScenarioStats::fidelity records the model that actually ran.
 */
enum class Fidelity : std::uint8_t {
    Auto,    ///< Message level when messageLevelEligible(), else edge.
    Edge,    ///< The edge-level engine: every wire transition.
    Message, ///< The message-level MBus model (MbusMessageBackend).
};

/** @return a short printable name ("auto", "edge", "message"). */
const char *fidelityName(Fidelity f);

/** Everything that defines one sweep cell except its seed. */
struct ScenarioSpec
{
    std::string name;        ///< Cell label for reports ("n3_b8").
    int nodes = 3;           ///< Ring population (2..14).
    double busClockHz = 400e3;
    double hopDelayNs = 10.0;  ///< Node-to-node propagation delay.
    double wireLengthMm = 2.5; ///< Inter-chip wire length.
    double wireCapFPerMm = 0.1e-12; ///< Wire capacitance density.
    int dataLanes = 1;       ///< Parallel MBus lanes (1..4).
    bool powerGated = false; ///< Power-gate member nodes.
    bool fullAddressing = false; ///< 32-bit instead of 8-bit addresses.
    TrafficPattern traffic = TrafficPattern::SingleSender;
    int messages = 8;             ///< Transactions to issue.
    std::size_t payloadBytes = 4; ///< Payload length per message.
    double priorityRate = 0.0;    ///< P(message uses priority arb).
    double interjectRate = 0.0;   ///< P(third-party interjection storm).
    sim::SimTime timeLimit = 60 * sim::kSecond; ///< Wedge guard.
    bool captureVcd = false; ///< Retain the full VCD byte stream.
    bool edgeTrains = true;  ///< Batched edge delivery (A/B studies).
    bool chunkedDispatch = true; ///< Mute idle listeners (A/B).
    std::size_t softRxCapacity = 256; ///< Software member's receive
                                      ///< buffer (bitbang/firmware).

    /**
     * The bus fabric this cell runs on (a sweep grid axis): the
     * hardware MBus ring, transactional I2C with standard or oracle
     * pull-up sizing, or the mixed ring with a bit-banged software
     * member. Fabrics with a tighter clock envelope (bitbang, I2C)
     * clamp busClockHz; nodes must be >= 3 for bitbang cells.
     */
    backend::BackendKind backend = backend::BackendKind::Mbus;

    /**
     * Application-mix workload. When it has actors, the cell's
     * traffic comes from a WorkloadEngine compiled on the cell seed
     * instead of the messages/traffic knobs above (which are then
     * ignored), and per-actor stats flow into ScenarioStats. The
     * wedge guard is raised to cover the mix duration automatically.
     */
    workload::WorkloadSpec workload;

    /**
     * Physical-layer fault schedule (a sweep grid axis). When it has
     * entries, a FaultEngine compiled on the cell seed perturbs the
     * fabric (stuck segments, glitches, edge drops, clock drift,
     * brownouts) and the per-fabric watchdog is armed. Default: off,
     * and the cell's bytes are identical to a pre-fault-engine run.
     */
    fault::FaultSpec faults;

    /**
     * Retry policy for classic (non-workload) traffic: failed sends
     * re-attempt with exponential backoff, and recovered/abandoned
     * counts flow into the stats. Workload cells configure this per
     * actor (ActorSpec::retry) instead.
     */
    fault::RetryPolicy retry;

    /**
     * Protocol tracing and flight recording (off by default). When
     * enabled() a trace::Tracer is attached to the cell's Simulator
     * and the structured event log (exported as Chrome trace-event
     * JSON), its FNV hash, and any flight-recorder dumps flow into
     * ScenarioStats. When disabled the tracer is never constructed,
     * so the cell's bytes are identical to a pre-trace run.
     */
    trace::TraceConfig trace;

    /**
     * Simulation model. Auto runs eligible cells (see
     * messageLevelEligible) on the message-level MBus model and the
     * rest on the edge engine; Edge always runs the edge engine --
     * for waveform-level studies and the kernel-cost gates.
     */
    Fidelity fidelity = Fidelity::Auto;
};

/**
 * Deterministic per-run reduction of one scenario: the traffic census
 * (workload::TrafficCounts, copied from the traffic run as one
 * record) plus rates, costs, kernel counters and the cell's optional
 * waveform and trace payloads.
 */
struct ScenarioStats : workload::TrafficCounts
{
    // Rates and costs.
    double txPerSecond = 0;    ///< Completed transactions / active s.
    double goodputBps = 0;     ///< Delivered payload bits / active s.
    double eventsPerBit = 0;   ///< Kernel events per wire data bit.
    double switchingJ = 0;     ///< Ledger total (sim scale).
    double leakageJ = 0;       ///< Integrated idle leakage.
    double avgTxLatencyS = 0;  ///< Mean issue-to-completion.
    double avgCyclesPerTx = 0; ///< Mean bus cycles per transaction.

    /** (switching + leakage) per delivered sample for workload
     *  cells, per ACKed message otherwise -- the cross-backend
     *  energy headline (Secs 2.1, 6.2). */
    double energyPerSampleJ = 0;
    /** analysis::projectedLifetimeDays of the measured mix on the
     *  abstract's 0.6 uAh battery. */
    double lifetimeDays = 0;

    // Latency distribution (nearest-rank percentiles over the cell's
    // per-transaction issue-to-completion latencies). The sorted raw
    // latencies are retained so sweep reduction can pool true
    // percentiles across cells.
    double latencyP50S = 0;
    double latencyP95S = 0;
    double latencyP99S = 0;
    std::vector<double> txLatenciesS; ///< Sorted, one per completion.

    // Raw counters for cross-checks.
    std::uint64_t eventsExecuted = 0;
    std::uint64_t clockCycles = 0;
    std::uint64_t trainEdges = 0;   ///< Edges delivered via trains.
    std::uint64_t trainsScheduled = 0; ///< Kernel edge trains created.
    std::uint64_t dispatchCalls = 0; ///< Net listener virtual calls.
    sim::SimTime simTime = 0; ///< Final simulated timestamp.

    /** Per-node event breakdown: wire transitions each node drove
     *  onto its outbound ring segments (CLK + all DATA lanes). */
    std::vector<std::uint64_t> perNodeEdges;

    /** Per-actor outcome (workload cells; empty otherwise). */
    std::vector<workload::ActorStats> actorStats;

    // Fault injection and recovery (populated when spec.faults has
    // entries and/or a retry policy is active; zero otherwise).
    int faultEvents = 0;        ///< Fault primitives applied.
    std::uint64_t busResets = 0; ///< Watchdog/bus force-resets.
    double recoveryP50S = 0;   ///< Time-to-recovery percentiles
    double recoveryP95S = 0;   ///< (first failure to delivery) over
    double recoveryP99S = 0;   ///< the recovered transactions.

    // Waveform identity.
    std::size_t vcdBytes = 0;  ///< Length of the VCD dump.
    std::uint64_t vcdHash = 0; ///< FNV-1a over the VCD bytes.
    std::string vcd; ///< Full dump (only when spec.captureVcd).

    // Kernel occupancy (always collected; zero-cost counters).
    std::uint64_t slabSlots = 0;     ///< Final slab capacity.
    std::uint64_t liveHighWater = 0; ///< Peak live events in the heap.
    std::uint64_t heapCallbacks = 0; ///< Slow-path (non-slab) events.

    // Protocol trace (populated when spec.trace.enabled(); zero and
    // empty otherwise). The sweep's `metrics` column renders these
    // counts with the kernel, fault and rate fields above.
    std::uint64_t traceEvents = 0; ///< Events the tracer recorded.
    std::uint64_t traceHash = 0;   ///< FNV-1a over traceJson.
    std::string traceJson; ///< Chrome trace-event export (protocol).
    std::vector<std::string> flightDumps; ///< Flight-recorder dumps.
    std::uint64_t watchdogRescues = 0;   ///< WatchdogRescue events.
    std::uint64_t arbLosses = 0;         ///< ArbLoss events.
    std::uint64_t interjectRequests = 0; ///< InterjectRequest events.

    /** The model that produced this record (Edge or Message). On
     *  Message rows the kernel-cost fields count the model's own few
     *  events per transaction, not wire edges; they and this field are
     *  the model-cost set of the record-equality rule
     *  (tests/record_equality.hh). */
    Fidelity fidelity = Fidelity::Edge;
};

/**
 * True when @p spec runs on the message-level MBus model under
 * Fidelity::Auto: hardware MBus with classic traffic and no faults,
 * interjection storm, power gating, VCD or trace; the default kernel
 * batching (edge trains, chunked dispatch); a ring whose edges flush
 * within half a period; payloads within the mediator's watchdog
 * limit; and a plan that provably finishes inside the time limit.
 * Every such cell matches the edge engine exactly (outcomes, bytes,
 * latencies, simulated time, per-node edges, clock cycles, energy) --
 * the differential suite pins it.
 */
bool messageLevelEligible(const ScenarioSpec &spec);

/** Test hooks around one cell's fabric: @c tune edits its parameters
 *  before it is built (the software-member knobs a spec does not
 *  carry), and @c inspect reads it once the run is over. */
struct CellHooks
{
    std::function<void(backend::BusParams &)> tune;
    std::function<void(backend::BusBackend &)> inspect;
};

/**
 * Run one cell to completion.
 *
 * @param spec The scenario; node count is clamped-checked (2..14).
 * @param seed Cell RNG seed (from Random::split in sweeps).
 * @param hooks Optional fabric hooks (tests).
 * @return the deterministic stats record.
 */
ScenarioStats runScenario(const ScenarioSpec &spec, std::uint64_t seed,
                          const CellHooks &hooks = {});

/** The nearest-rank percentile per-cell stats and the sweep
 *  aggregate use. */
using sim::nearestRankPercentile;

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_SCENARIO_HH
