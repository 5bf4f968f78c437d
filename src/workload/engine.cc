#include "workload/workload.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "backend/backend.hh"
#include "mbus/layer_controller.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace mbus {
namespace workload {

namespace {

/** Nearest-rank percentile, the same definition the sweep reducers
 *  use (sweep::nearestRankPercentile; duplicated locally to keep the
 *  workload -> sweep dependency one-directional). */
double
percentile(const std::vector<double> &sorted, double q)
{
    std::size_t n = sorted.size();
    std::size_t i = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return sorted[(i == 0 ? 1 : i) - 1];
}

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
    const WorkloadSpec *spec = nullptr;
    backend::BusBackend *backend = nullptr;
    sim::Simulator *simulator = nullptr;
    const std::vector<PlannedOp> *plan = nullptr;

    WorkloadRunStats stats;
    fault::RetryStats retry; ///< Pooled over every actor's policy.
    std::vector<bool> offline; ///< Faulted or gate-windowed, by node.
    std::vector<std::uint64_t> nodeBytesIssued;
    std::multiset<std::vector<std::uint8_t>> expected;
    /** (actor << 32 | burst) -> in-flight sample. */
    std::map<std::uint64_t, SampleState> samples;
    std::size_t next = 0; ///< Plan cursor.
    int outstanding = 0;  ///< Issued sends awaiting a terminal status.
    bool sawFirstCompletion = false;
    bool stopWhenFinished = false; ///< Set only inside drive()'s run.

    /** Every op executed and every send terminated. Once true it
     *  stays true: only plan ops issue sends. */
    bool
    finished() const
    {
        return next >= plan->size() && outstanding == 0;
    }

    /** End drive()'s run at completion instead of polling after every
     *  kernel event: called after each state change. */
    void
    stopIfFinished()
    {
        if (stopWhenFinished && finished())
            simulator->stop();
    }

    void pump();
    void exec(const PlannedOp &op);
    void execSend(const PlannedOp &op);
    void finishSample(const PlannedOp &op, SampleState &ss);
    void onDelivery(const bus::ReceivedMessage &rx);
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
        ++stats.droppedOffline;
        ++stats.failed;
        ss.anyFailure = true;
        if (--ss.remaining == 0)
            finishSample(op, ss);
        return;
    }

    // Payload: actor tag byte + pre-drawn random bytes, registered
    // for receiver-side integrity checking.
    std::vector<std::uint8_t> payload(op.bytes);
    payload[0] = static_cast<std::uint8_t>(op.actor + 1);
    sim::Random pr(op.payloadSeed);
    for (std::size_t b = 1; b < payload.size(); ++b)
        payload[b] = pr.byte();
    expected.insert(payload);

    bus::Message msg;
    msg.dest = backend->unicastAddress(op.dest, /*fullAddressing=*/false,
                                       bus::kFuMailbox);
    msg.payload = std::move(payload);
    msg.priority = op.priority;

    ++as.issued;
    as.bytesIssued += op.bytes;
    nodeBytesIssued[op.node] += op.bytes;
    ++outstanding;

    int wireBits = msg.wireDataBits();
    sim::SimTime issuedAt = simulator->now();
    const ActorSpec &aspec = spec->actors[actorIdx];
    bool dutyCycled = aspec.dutyCycled;
    std::size_t node = op.node;
    // Terminal status only: with a retry policy the attempt chain is
    // invisible here; disabled, this is a plain backend->send().
    fault::sendWithRetry(
        *backend, *simulator, op.node, std::move(msg), aspec.retry,
        retry,
        [this, op, issuedAt, wireBits, dutyCycled, node,
         key](const bus::TxResult &r) {
            --outstanding;
            ActorStats &a = stats.actors[static_cast<std::size_t>(
                op.actor)];
            bool ok = r.status == bus::TxStatus::Ack ||
                      r.status == bus::TxStatus::Broadcast;
            switch (r.status) {
            case bus::TxStatus::Ack: ++stats.acked; break;
            case bus::TxStatus::Nak: ++stats.naked; break;
            case bus::TxStatus::Broadcast: ++stats.broadcasts; break;
            case bus::TxStatus::Interrupted:
                ++stats.interrupted;
                break;
            case bus::TxStatus::RxAbort: ++stats.rxAborts; break;
            case bus::TxStatus::Reset:
                ++stats.failed;
                ++stats.txResets;
                break;
            default: ++stats.failed; break;
            }
            if (ok) {
                ++a.acked;
                stats.completedWireBits +=
                    static_cast<std::uint64_t>(wireBits);
            } else {
                ++a.otherTerminal;
            }
            stats.arbitrationRetries += r.arbitrationRetries;
            stats.lastCompletion =
                std::max(stats.lastCompletion, r.completedAt);

            double lat = sim::toSeconds(r.completedAt - issuedAt);
            stats.latencySumS += lat;
            stats.txLatenciesS.push_back(lat);
            if (!sawFirstCompletion) {
                sawFirstCompletion = true;
                stats.firstTxLatencyS = lat;
            }

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
            if (dutyCycled && !offline[node] &&
                backend->pendingTx(node) == 0)
                backend->sleep(node);
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

void
RunState::onDelivery(const bus::ReceivedMessage &rx)
{
    if (rx.interjected) {
        ++stats.deliveredInterrupted;
        return; // Truncated by design; content untrusted.
    }
    if (rx.error == bus::LocalError::RecvOverflow)
        ++stats.deliveredOverflow;
    else if (rx.error == bus::LocalError::None)
        ++stats.deliveredOk;
    stats.bytesDelivered += rx.payload.size();
    auto it = expected.find(rx.payload);
    if (it == expected.end())
        ++stats.payloadMismatches;
    else
        expected.erase(it);
    if (!rx.payload.empty()) {
        std::size_t tag = rx.payload[0];
        if (tag >= 1 && tag <= stats.actors.size())
            stats.actors[tag - 1].bytesDelivered += rx.payload.size();
    }
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

    RunState rs;
    rs.spec = &spec_;
    rs.backend = &backend;
    rs.simulator = &simulator;
    rs.plan = &plan_;
    rs.offline.assign(backend.nodeCount(), false);
    rs.nodeBytesIssued.assign(backend.nodeCount(), 0);

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

    // The backend announces every application-level delivery
    // (mailbox unicasts and user-channel broadcasts; system traffic
    // is filtered inside the backend).
    backend.setDeliveryHandler(
        [&rs](std::size_t, const bus::ReceivedMessage &rx) {
            rs.onDelivery(rx);
        });

    // Nothing runs past the wedge guard plus the idle drain.
    simulator.setHorizon(sim::addSaturating(timeLimit, sim::kSecond));
    rs.pump();
    if (!rs.finished()) {
        rs.stopWhenFinished = true;
        simulator.run(timeLimit);
        rs.stopWhenFinished = false;
    }
    bool finished = rs.finished();
    bool idle = backend.runUntilIdle(sim::kSecond);
    rs.stats.wedged = !finished || !idle;

    // The handler captures this stack frame; uninstall it so the
    // backend stays safe to drive after the engine returns.
    backend.setDeliveryHandler(nullptr);

    // --- Per-actor reduction -----------------------------------------
    double simS = sim::toSeconds(simulator.now());
    for (std::size_t i = 0; i < rs.stats.actors.size(); ++i) {
        ActorStats &as = rs.stats.actors[i];
        std::sort(as.sampleLatenciesS.begin(),
                  as.sampleLatenciesS.end());
        if (!as.sampleLatenciesS.empty()) {
            as.latencyP50S = percentile(as.sampleLatenciesS, 0.50);
            as.latencyP95S = percentile(as.sampleLatenciesS, 0.95);
            as.latencyP99S = percentile(as.sampleLatenciesS, 0.99);
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

    rs.stats.retries = rs.retry.retries;
    rs.stats.recoveredTx = rs.retry.recoveredTx;
    rs.stats.abandonedTx = rs.retry.abandonedTx;
    rs.stats.recoveryS = std::move(rs.retry.recoveryS);
    return rs.stats;
}

} // namespace workload
} // namespace mbus
