#include "workload/workload.hh"

#include <algorithm>
#include <map>

#include "backend/backend.hh"
#include "mbus/layer_controller.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workload/traffic.hh"

namespace mbus {
namespace workload {

namespace {

/** Tracks one in-flight sample (a frame's fragments). */
struct SampleState
{
    int remaining = 0;
    bool anyFailure = false;
    sim::SimTime startedAt = 0;
    sim::SimTime deadline = 0;
    sim::SimTime lastCompletion = 0;
};

/** Everything the plan executor mutates while driving a run. */
struct RunState
{
    RunState(const WorkloadSpec &spec, backend::BusBackend &backend,
             sim::Simulator &simulator, const std::vector<PlannedOp> &plan,
             sim::SimTime timeLimit)
        : spec(&spec), backend(&backend), simulator(&simulator),
          plan(&plan), traffic(backend, simulator, timeLimit),
          stats(traffic.stats),
          offline(backend.nodeCount(), false),
          nodeBytesIssued(backend.nodeCount(), 0)
    {
    }

    const WorkloadSpec *spec;
    backend::BusBackend *backend;
    sim::Simulator *simulator;
    const std::vector<PlannedOp> *plan;

    TrafficRun traffic;
    WorkloadRunStats &stats; ///< traffic.stats, plus the actor books.
    std::vector<bool> offline; ///< Faulted or gate-windowed, by node.
    std::vector<std::uint64_t> nodeBytesIssued;
    /** (actor << 32 | burst) -> in-flight sample. */
    std::map<std::uint64_t, SampleState> samples;
    std::size_t next = 0; ///< Plan cursor.
    int outstanding = 0;  ///< Issued sends awaiting a terminal status.

    /** Every op executed and every send terminated. Once true it
     *  stays true: only plan ops issue sends. */
    bool
    finished() const
    {
        return next >= plan->size() && outstanding == 0;
    }

    /** End the traffic run at completion instead of polling after
     *  every kernel event: called after each state change. */
    void stopIfFinished() { traffic.stopIf(finished()); }

    void pump();
    void exec(const PlannedOp &op);
    void execSend(const PlannedOp &op);
    void finishSample(const PlannedOp &op, SampleState &ss);
};

void
RunState::pump()
{
    if (next >= plan->size())
        return;
    const PlannedOp &op = (*plan)[next];
    sim::SimTime now = simulator->now();
    sim::SimTime delay = op.at > now ? op.at - now : 0;
    simulator->schedule(delay, [this] {
        const PlannedOp &cur = (*plan)[next];
        ++next;
        exec(cur);
        pump();
        stopIfFinished();
    });
}

void
RunState::exec(const PlannedOp &op)
{
    switch (op.kind) {
    case OpKind::Send:
        execSend(op);
        break;
    case OpKind::Interject:
        ++stats.stormInterjections;
        backend->interject(op.node);
        break;
    case OpKind::GateOff:
        ++stats.gateWindows;
        offline[op.node] = true;
        backend->sleep(op.node);
        break;
    case OpKind::GateOn:
        offline[op.node] = false;
        backend->wake(op.node);
        break;
    case OpKind::FaultDrop:
        // Drop-out mid-transaction: whatever transaction the bus is
        // carrying is cut (third-party interjection is exactly what a
        // watchdog raises for a dead participant, Sec 4.9), the
        // node's layer gates off, and its actors go silent.
        ++stats.faultsInjected;
        offline[op.node] = true;
        backend->interject(op.node);
        backend->sleep(op.node);
        break;
    case OpKind::FaultRecover:
        ++stats.faultsRecovered;
        offline[op.node] = false;
        backend->wake(op.node);
        break;
    case OpKind::Retime:
        // The backend clamps the target to its own clock envelope
        // and carries the request as a broadcast on its fabric.
        ++stats.retimings;
        ++outstanding;
        backend->retime(op.node, op.clockHz, [this] {
            --outstanding;
            stopIfFinished();
        });
        break;
    }
}

void
RunState::execSend(const PlannedOp &op)
{
    auto actorIdx = static_cast<std::size_t>(op.actor);
    ActorStats &as = stats.actors[actorIdx];
    std::uint64_t key = (static_cast<std::uint64_t>(op.actor) << 32) |
                        op.burst;
    SampleState &ss = samples
                          .emplace(key, SampleState{op.fragCount, false,
                                                    op.sampleAt,
                                                    op.deadline, 0})
                          .first->second;

    if (offline[op.node]) {
        // The node is faulted or inside a gate window: the sample
        // fragment is lost at the source.
        ++as.droppedOffline;
        ++stats.failed;
        ss.anyFailure = true;
        if (--ss.remaining == 0)
            finishSample(op, ss);
        return;
    }

    // Payload: actor tag byte + pre-drawn random bytes.
    std::vector<std::uint8_t> payload(op.bytes);
    payload[0] = static_cast<std::uint8_t>(op.actor + 1);
    sim::Random pr(op.payloadSeed);
    for (std::size_t b = 1; b < payload.size(); ++b)
        payload[b] = pr.byte();

    bus::Message msg;
    msg.dest = backend->unicastAddress(op.dest, /*fullAddressing=*/false,
                                       bus::kFuMailbox);
    msg.payload = std::move(payload);
    msg.priority = op.priority;

    ++as.issued;
    as.bytesIssued += op.bytes;
    nodeBytesIssued[op.node] += op.bytes;
    ++outstanding;

    const ActorSpec &aspec = spec->actors[actorIdx];
    bool dutyCycled = aspec.dutyCycled;
    // Terminal status only: with a retry policy the attempt chain is
    // invisible here; disabled, this is a plain backend->send().
    traffic.send(
        op.node, std::move(msg), aspec.retry,
        [this, op, dutyCycled, key](const bus::TxResult &r, bool ok) {
            --outstanding;
            ActorStats &a = stats.actors[static_cast<std::size_t>(
                op.actor)];
            if (ok)
                ++a.acked;
            else
                ++a.otherTerminal;

            auto it = samples.find(key);
            if (it != samples.end()) {
                SampleState &s = it->second;
                if (!ok)
                    s.anyFailure = true;
                s.lastCompletion =
                    std::max(s.lastCompletion, r.completedAt);
                if (--s.remaining == 0)
                    finishSample(op, s);
            }

            // Duty-cycling: gate the layer back off once this node
            // has nothing queued (no-op on always-on nodes).
            if (dutyCycled && !offline[op.node] &&
                backend->pendingTx(op.node) == 0)
                backend->sleep(op.node);
            stopIfFinished();
        });
}

void
RunState::finishSample(const PlannedOp &op, SampleState &ss)
{
    ActorStats &as = stats.actors[static_cast<std::size_t>(op.actor)];
    if (!ss.anyFailure) {
        ++as.samplesDelivered;
        ++stats.samplesDelivered;
        double lat = sim::toSeconds(ss.lastCompletion - ss.startedAt);
        as.sampleLatenciesS.push_back(lat);
        if (ss.lastCompletion > ss.deadline) {
            ++as.missedDeadlines;
            ++stats.missedDeadlines;
        }
    } else {
        // A lost sample is a missed deadline by definition: the data
        // never arrived inside (or after) its window.
        ++as.missedDeadlines;
        ++stats.missedDeadlines;
    }
    samples.erase((static_cast<std::uint64_t>(op.actor) << 32) |
                  op.burst);
}

} // namespace

WorkloadRunStats
WorkloadEngine::drive(backend::BusBackend &backend,
                      sim::Simulator &simulator,
                      sim::SimTime timeLimit) const
{
    if (backend.nodeCount() < static_cast<std::size_t>(nodes_))
        mbus_fatal("workload compiled for ", nodes_,
                   " nodes but backend has ", backend.nodeCount());

    RunState rs(spec_, backend, simulator, plan_, timeLimit);
    rs.stats.actors.resize(spec_.actors.size());
    for (std::size_t i = 0; i < spec_.actors.size(); ++i) {
        ActorStats &as = rs.stats.actors[i];
        const ActorSpec &a = spec_.actors[i];
        as.name = actorDisplayName(spec_, i);
        as.kind = a.kind;
        as.node = a.node;
        as.dest = a.dest;
    }
    for (const PlannedOp &op : plan_) {
        if (op.kind != OpKind::Send)
            continue;
        ++rs.stats.planned;
        ++rs.stats.actors[static_cast<std::size_t>(op.actor)].planned;
        if (op.frag == 0) {
            ++rs.stats.samplesPlanned;
            ++rs.stats.actors[static_cast<std::size_t>(op.actor)]
                  .samplesPlanned;
        }
    }

    rs.pump();
    rs.traffic.run([&rs] { return rs.finished(); });

    // --- Per-actor reduction -----------------------------------------
    double simS = sim::toSeconds(simulator.now());
    for (std::size_t i = 0; i < rs.stats.actors.size(); ++i) {
        ActorStats &as = rs.stats.actors[i];
        std::sort(as.sampleLatenciesS.begin(),
                  as.sampleLatenciesS.end());
        if (!as.sampleLatenciesS.empty()) {
            as.latencyP50S =
                sim::nearestRankPercentile(as.sampleLatenciesS, 0.50);
            as.latencyP95S =
                sim::nearestRankPercentile(as.sampleLatenciesS, 0.95);
            as.latencyP99S =
                sim::nearestRankPercentile(as.sampleLatenciesS, 0.99);
        }
        auto node = static_cast<std::size_t>(as.node);
        if (as.samplesDelivered > 0 && rs.nodeBytesIssued[node] > 0) {
            // Sender-node energy apportioned by this actor's share of
            // the node's issued payload bytes.
            double share = static_cast<double>(as.bytesIssued) /
                           static_cast<double>(rs.nodeBytesIssued[node]);
            as.energyPerSampleJ =
                backend.nodeEnergyJ(node) * share /
                static_cast<double>(as.samplesDelivered);
        }
        if (simS > 0)
            as.dutyCycle = backend.poweredSeconds(node) / simS;
    }
    return std::move(rs.stats);
}

} // namespace workload
} // namespace mbus
