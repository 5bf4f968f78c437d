#include "workload/traffic.hh"

#include <algorithm>

namespace mbus {
namespace workload {

TrafficRun::TrafficRun(backend::BusBackend &backend,
                       sim::Simulator &simulator, sim::SimTime timeLimit)
    : backend_(backend), simulator_(simulator), timeLimit_(timeLimit)
{
    // Nothing runs past the wedge guard plus the idle drain.
    simulator_.setHorizon(sim::addSaturating(timeLimit_, sim::kSecond));
    // The backend announces every application-level delivery
    // (mailbox unicasts and user-channel broadcasts; system traffic
    // is filtered inside the backend).
    backend_.setDeliveryHandler(
        [this](std::size_t, const bus::ReceivedMessage &rx) {
            onDelivery(rx);
        });
}

void
TrafficRun::expect(const bus::Message &msg)
{
    std::size_t copies =
        msg.dest.isBroadcast() ? backend_.nodeCount() - 1 : 1;
    for (std::size_t c = 0; c < copies; ++c)
        expected_.insert(msg.payload);
}

bool
TrafficRun::count(const bus::TxResult &r, sim::SimTime issuedAt,
                  int wireBits)
{
    switch (r.status) {
    case bus::TxStatus::Ack: ++stats.acked; break;
    case bus::TxStatus::Nak: ++stats.naked; break;
    case bus::TxStatus::Broadcast: ++stats.broadcasts; break;
    case bus::TxStatus::Interrupted: ++stats.interrupted; break;
    case bus::TxStatus::RxAbort: ++stats.rxAborts; break;
    case bus::TxStatus::Reset:
        ++stats.failed;
        ++stats.txResets;
        break;
    default: ++stats.failed; break;
    }
    bool ok = r.status == bus::TxStatus::Ack ||
              r.status == bus::TxStatus::Broadcast;
    if (ok)
        stats.completedWireBits += static_cast<std::uint64_t>(wireBits);
    stats.arbitrationRetries += r.arbitrationRetries;
    stats.lastCompletion = std::max(stats.lastCompletion, r.completedAt);
    double lat = sim::toSeconds(r.completedAt - issuedAt);
    stats.latencySumS += lat;
    if (stats.txLatenciesS.empty())
        stats.firstTxLatencyS = lat;
    stats.txLatenciesS.push_back(lat);
    return ok;
}

void
TrafficRun::onDelivery(const bus::ReceivedMessage &rx)
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
    auto it = expected_.find(rx.payload);
    if (it == expected_.end())
        ++stats.payloadMismatches;
    else
        expected_.erase(it);
    // Workload payloads lead with their actor's tag (index + 1).
    if (!rx.payload.empty()) {
        std::size_t tag = rx.payload[0];
        if (tag >= 1 && tag <= stats.actors.size())
            stats.actors[tag - 1].bytesDelivered += rx.payload.size();
    }
}

void
TrafficRun::run(const std::function<bool()> &finished)
{
    if (!finished()) {
        armed_ = true;
        simulator_.run(timeLimit_);
        armed_ = false;
    }
    bool done = finished();
    bool idle = backend_.runUntilIdle(sim::kSecond);
    stats.wedged = !done || !idle;

    // The handler holds this object's address; uninstall it so the
    // backend stays safe to drive after the run.
    backend_.setDeliveryHandler(nullptr);

    stats.retries = retry_.retries;
    stats.recoveredTx = retry_.recoveredTx;
    stats.abandonedTx = retry_.abandonedTx;
    stats.recoveryS = std::move(retry_.recoveryS);
}

} // namespace workload
} // namespace mbus
