/**
 * @file
 * Application-mix workload generation for MBus system evaluation.
 *
 * The paper's headline claims (energy/bit, wakeup latency, lifetime
 * on a uAh-class battery) are made against *application* traffic --
 * duty-cycled sensing, bursty image readout, interjection-heavy
 * control -- not microbenches. This subsystem turns such mixes into
 * deterministic scenarios:
 *
 *  - a declarative WorkloadSpec names per-node *actors* (periodic
 *    sensor, bursty imager, event-driven interrupter, control-plane
 *    traffic targeted at the mediator host) and global *schedules*
 *    (interjection storms, power-gate windows, node fault/drop-out
 *    with recovery, clock retiming broadcasts);
 *  - a WorkloadEngine compiles the spec into a fully pre-drawn event
 *    plan, one Random::split stream per actor/schedule, so the plan
 *    -- and therefore the run -- is a pure function of (spec, seed)
 *    and any cell replays bit-for-bit through the sweep machinery;
 *  - driving any backend::BusBackend -- hardware MBus, I2C, or the
 *    mixed ring with a software member -- through its uniform
 *    application API, the engine reduces each run to per-actor
 *    outcome stats (latency percentiles, energy per delivered
 *    sample, missed deadlines, achieved duty cycle) that flow into
 *    the sweep CSV/JSON reducers and the analysis/lifetime
 *    projections. Its sends are counted, checked and cut off by the
 *    same workload::TrafficRun (traffic.hh) as classic sweep cells.
 *
 * Stream independence: actor i draws from Random(seed).split(1 + s)
 * where s is its stream id (ActorSpec::stream, defaulting to the
 * actor's index), and schedule j draws from split(kScheduleStreamBase
 * + j). An actor's planned ops therefore do not depend on which other
 * actors or schedules share the spec -- the property the plan tests
 * pin down.
 */

#ifndef MBUS_WORKLOAD_WORKLOAD_HH
#define MBUS_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/retry.hh"
#include "sim/types.hh"

namespace mbus {

namespace backend {
class BusBackend;
}
namespace sim {
class Simulator;
}

namespace workload {

/** The application behaviours an actor can embody. */
enum class ActorKind : std::uint8_t {
    PeriodicSensor, ///< Small sample every jittered period.
    BurstImager,    ///< Frame-sized multi-fragment burst per period.
    Interrupter,    ///< Event-driven priority messages, random gaps.
    ControlPlane,   ///< Mediator-host-targeted control messages.
};

/** @return a short printable name ("sensor", "imager", ...). */
const char *actorKindName(ActorKind k);

/** One application actor bound to a ring position. */
struct ActorSpec
{
    std::string name;  ///< Label for reports; "" = kind + node.
    ActorKind kind = ActorKind::PeriodicSensor;
    int node = 1; ///< Ring position running this actor.
    int dest = 0; ///< Destination ring position (gateway default).

    /** Sample period / burst period / mean event gap, seconds. */
    double periodS = 1.0;
    /** Uniform +/- jitter applied per event, fraction of period. */
    double jitterFrac = 0.05;

    /** Sample size, or fragment size for bursts (>= 1 byte: the
     *  first payload byte tags the owning actor for per-actor
     *  delivery accounting). */
    std::size_t payloadBytes = 4;
    /** Total burst (frame) bytes; 0 = single-message samples. */
    std::size_t burstBytes = 0;

    /** Completion deadline per sample, seconds; 0 = one period. */
    double deadlineS = 0;
    bool priority = false; ///< Use the priority-arbitration cycle.
    double startS = 0;     ///< Activation offset into the run.

    /** Gate the layer between samples on power-gated nodes (the
     *  nanopower duty-cycling rhythm; a no-op on always-on nodes). */
    bool dutyCycled = true;

    /** RNG stream id; -1 = the actor's index in the spec. Pin this
     *  when extracting an actor into a solo spec so it draws the
     *  identical plan (stream independence). */
    int stream = -1;

    /** Bounded-retry/backoff policy for this actor's sends (off by
     *  default: maxRetries == 0 is a plain send). Recovery counts
     *  flow into WorkloadRunStats and the sweep CSV. */
    fault::RetryPolicy retry;
};

/** Globally scheduled disturbances. */
enum class ScheduleKind : std::uint8_t {
    InterjectionStorm, ///< Randomly timed third-party interjections.
    PowerGateWindow,   ///< Target node's layer gated for a window.
    NodeFault,         ///< Node drops mid-transaction, later recovers.
    ClockRetiming,     ///< Config-channel busClockHz broadcast.
};

/** One global schedule entry. */
struct ScheduleSpec
{
    ScheduleKind kind = ScheduleKind::InterjectionStorm;
    /** Target ring position; -1 = drawn per event from the schedule
     *  stream. Gate/fault/retime schedules must target a member
     *  (node >= 1 or -1): the mediator host cannot drop out, and a
     *  retiming broadcast from it would never be heard. */
    int node = -1;
    double atS = 0;       ///< Window start, seconds.
    double durationS = 0; ///< Window length (storm/gate/fault).
    double rateHz = 0;    ///< Storm interjections per second.
    double clockHz = 0;   ///< ClockRetiming target frequency.
};

/** A complete application mix. */
struct WorkloadSpec
{
    std::string name = "mix";
    double durationS = 1.0; ///< Actors plan events in [0, durationS).
    std::vector<ActorSpec> actors;
    std::vector<ScheduleSpec> schedules;

    bool enabled() const { return !actors.empty(); }
};

/** Plan op kinds (compiled form of actors + schedules). */
enum class OpKind : std::uint8_t {
    Send,         ///< Actor message (one fragment of a sample).
    Interject,    ///< Storm third-party interjection.
    GateOff,      ///< Power-gate window opens (node sleeps).
    GateOn,       ///< Power-gate window closes (node wakes).
    FaultDrop,    ///< Node drops out (cuts its transaction, gates).
    FaultRecover, ///< Dropped node rejoins.
    Retime,       ///< Config-channel clock broadcast.
};

/** One pre-drawn operation of the compiled plan. */
struct PlannedOp
{
    sim::SimTime at = 0; ///< Intended execution time.
    OpKind kind = OpKind::Send;
    int actor = -1;    ///< Actor index (Send ops).
    int schedule = -1; ///< Schedule index (disturbance ops).
    std::size_t node = 0;
    std::size_t dest = 0;
    std::size_t bytes = 0;       ///< Fragment payload length.
    std::uint32_t burst = 0;     ///< Sample ordinal within the actor.
    std::uint16_t frag = 0;      ///< Fragment index within the sample.
    std::uint16_t fragCount = 1; ///< Fragments in this sample.
    bool priority = false;
    sim::SimTime sampleAt = 0;   ///< Sample start (frame plan time).
    sim::SimTime deadline = 0;   ///< Absolute completion deadline.
    std::uint64_t payloadSeed = 0; ///< Payload bytes drawn from here.
    double clockHz = 0;          ///< Retime target.

    // Deterministic ordering: (at, stream, seq) with stream/seq taken
    // from the drawing stream, so the merged plan never depends on
    // spec container order beyond the ids themselves.
    std::uint32_t stream = 0;
    std::uint32_t seq = 0;
};

/** Per-actor reduction of one run. */
struct ActorStats
{
    std::string name;
    ActorKind kind = ActorKind::PeriodicSensor;
    int node = 0;
    int dest = 0;

    int planned = 0;        ///< Fragments planned.
    int issued = 0;         ///< Fragments handed to the bus.
    int droppedOffline = 0; ///< Suppressed: node faulted/gated.
    int acked = 0;          ///< Fragments ACKed (or broadcast).
    int otherTerminal = 0;  ///< NAK/interrupted/abort/error.

    int samplesPlanned = 0;   ///< Samples (frames) planned.
    int samplesDelivered = 0; ///< Samples fully ACKed.
    int missedDeadlines = 0;  ///< Delivered past their deadline.

    std::uint64_t bytesIssued = 0;    ///< Payload bytes sent.
    std::uint64_t bytesDelivered = 0; ///< Receiver-credited bytes.

    // Nearest-rank percentiles over per-sample latencies (sample
    // plan time -> last-fragment completion), plus the sorted raw
    // samples for cross-cell pooling.
    double latencyP50S = 0;
    double latencyP95S = 0;
    double latencyP99S = 0;
    std::vector<double> sampleLatenciesS;

    /** Sender-node switching energy apportioned by issued-byte share,
     *  per delivered sample (the paper's energy-per-sample unit). */
    double energyPerSampleJ = 0;
    /** Layer-domain powered fraction of simulated time. */
    double dutyCycle = 0;
};

/**
 * The traffic census of one run: terminal outcomes, delivery
 * integrity, workload and disturbance bookkeeping, and recovery
 * counts. TrafficRun fills it; the sweep's ScenarioStats derives from
 * it, so a cell's record carries it as one assignment. Terminal
 * outcome counts are over actor fragments (workload cells) or planned
 * messages (classic cells); the invariant planned == sum(outcomes)
 * holds over them.
 */
struct TrafficCounts
{
    // Transaction outcomes (every planned send ends in exactly one).
    int planned = 0;
    int acked = 0;
    int naked = 0;
    int broadcasts = 0;
    int interrupted = 0;
    int rxAborts = 0;
    int failed = 0; ///< GeneralError, Reset and any other terminal
                    ///< status, plus fragments dropped offline.

    // Delivery integrity.
    std::uint64_t bytesDelivered = 0;    ///< Payload bytes at receivers.
    std::uint64_t payloadMismatches = 0; ///< Corrupted deliveries.
    std::uint64_t arbitrationRetries = 0;

    // Application-mix outcome (zero for classic cells).
    int missedDeadlines = 0;
    int samplesPlanned = 0;
    int samplesDelivered = 0;

    // Disturbance bookkeeping.
    int stormInterjections = 0;
    int gateWindows = 0;
    int faultsInjected = 0;
    int faultsRecovered = 0;
    int retimings = 0;

    // Physical-fault recovery bookkeeping (zero unless a retry policy
    // is active and/or the fabric Reset-kills transfers).
    int txResets = 0;          ///< Sends killed with TxStatus::Reset
                               ///< (also counted in `failed`).
    std::uint64_t retries = 0; ///< Re-sends the retry policies issued.
    int recoveredTx = 0;       ///< Failed at least once, delivered.
    int abandonedTx = 0;       ///< Retries exhausted, still failed.

    // Delivery-side outcome counts (pipe-packed into one sweep column
    // as ok|interrupted|overflow|reset).
    int deliveredOk = 0;          ///< Complete, clean deliveries.
    int deliveredInterrupted = 0; ///< Truncated (interjected) ones.
    int deliveredOverflow = 0;    ///< Receiver overflow aborts.

    double firstTxLatencyS = 0; ///< Cold-start (wakeup) latency.
    bool wedged = false; ///< Traffic unfinished at the wedge guard,
                         ///< or the bus not idle after the drain.
};

/** Whole-run reduction the scenario layer folds into its stats: the
 *  census plus the raw samples the reduction consumes. */
struct WorkloadRunStats : TrafficCounts
{
    std::vector<ActorStats> actors;

    std::uint64_t completedWireBits = 0;
    std::vector<double> recoveryS; ///< Per-recovery latencies.

    // Scenario-level latency pooling (per completed fragment).
    std::vector<double> txLatenciesS;
    double latencySumS = 0;
    sim::SimTime lastCompletion = 0;
};

/** Schedule streams split from this base (actors use 1 + stream). */
constexpr std::uint64_t kScheduleStreamBase = 0x10001;

/**
 * Compiles a WorkloadSpec into a deterministic plan and drives a
 * bus backend through it.
 *
 * Construction validates the spec against the ring population and
 * pre-draws every operation; drive() then executes the plan against
 * a backend built by the caller (the scenario layer) -- hardware
 * MBus, transactional I2C, or the bit-banged mixed ring -- through
 * the uniform BusBackend API, registering its own delivery handler.
 * One spec therefore runs unchanged on every fabric, which is what
 * makes the paper's same-workload, different-interconnect
 * comparisons (Secs 2.1, 6.2, 6.6) runnable.
 */
class WorkloadEngine
{
  public:
    /**
     * @param spec The mix; validated against @p nodes (fatal on a
     *        malformed spec, mirroring runScenario's checks).
     * @param seed Cell seed (from Random::split in sweeps).
     * @param nodes Ring population the plan targets (2..14).
     */
    WorkloadEngine(const WorkloadSpec &spec, std::uint64_t seed,
                   int nodes);

    /** The compiled, time-sorted plan (plan determinism tests). */
    const std::vector<PlannedOp> &plan() const { return plan_; }

    /**
     * Execute the plan against @p backend inside @p simulator, then
     * reduce. The backend must carry at least the node count the
     * engine was compiled for; the engine installs the unified
     * delivery handler for the duration of the run.
     *
     * @param timeLimit Absolute wedge guard: bounds Simulator::run,
     *        which ends early through Simulator::stop() once the plan
     *        is finished; a one-second idle drain follows, and
     *        `wedged` is set when the plan had not finished by the
     *        guard or the bus did not return to idle.
     * @return the deterministic per-run reduction.
     */
    WorkloadRunStats drive(backend::BusBackend &backend,
                           sim::Simulator &simulator,
                           sim::SimTime timeLimit) const;

  private:
    void compileActor(int index, const ActorSpec &a);
    void compileSchedule(int index, const ScheduleSpec &s);

    WorkloadSpec spec_;
    std::uint64_t seed_ = 0;
    int nodes_ = 0;
    std::vector<PlannedOp> plan_;
};

/** Resolved display name for actor @p i of @p spec. */
std::string actorDisplayName(const WorkloadSpec &spec, std::size_t i);

} // namespace workload
} // namespace mbus

#endif // MBUS_WORKLOAD_WORKLOAD_HH
