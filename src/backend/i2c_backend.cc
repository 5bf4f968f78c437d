#include "backend/i2c_backend.hh"

#include <algorithm>

#include "power/constants.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace backend {

namespace {

/** SCL cycles for the address phase: START + 7-bit address + R/W +
 *  address ACK (the "10" of Table 1's 10 + n overhead). */
constexpr std::uint64_t kAddressPhaseCycles = 10;

/** SCL cycles per payload byte: 8 data bits + byte ACK. */
constexpr std::uint64_t kCyclesPerByte = 9;

} // namespace

I2cBackend::I2cBackend(sim::Simulator &sim, const BusParams &params,
                       baseline::I2cSizing sizing)
    : sim_(sim), params_(params), sizing_(sizing),
      model_(baseline::I2cModel::forNodeCount(params.nodes, sizing)),
      ledger_(static_cast<std::size_t>(params.nodes)),
      clockHz_(std::min(params.busClockHz, maxSafeClockHz()))
{
    if (params.nodes < 2 || params.nodes > 14)
        mbus_fatal("i2c backend needs 2..14 nodes, got ",
                   params.nodes);
    nodes_.resize(static_cast<std::size_t>(params.nodes));
    browned_.assign(nodes_.size(), 0);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        // Node 0 is the gateway/master host and stays on, mirroring
        // the MBus mediator-host convention. Gated members start
        // asleep, exactly like a gated MBus member's power domains,
        // so cross-backend duty-cycle and first-delivery-latency
        // columns compare the same initial state.
        nodes_[i].gated = i != 0 && params.powerGated;
        nodes_[i].asleep = nodes_[i].gated;
    }
}

double
I2cBackend::maxSafeClockHz() const
{
    return sizing_ == baseline::I2cSizing::Oracle
               ? kI2cOracleMaxClockHz
               : kI2cStdMaxClockHz;
}

std::size_t
I2cBackend::resolveDest(const bus::Address &addr) const
{
    if (addr.isBroadcast())
        return nodes_.size();
    if (addr.isFull()) {
        std::uint32_t p = addr.fullPrefix();
        if (p >= kFullPrefixBase && p < kFullPrefixBase + nodes_.size())
            return p - kFullPrefixBase;
        return nodes_.size();
    }
    std::uint8_t p = addr.shortPrefix();
    if (p >= 1 && p <= nodes_.size())
        return p - 1u;
    return nodes_.size();
}

void
I2cBackend::send(std::size_t node, bus::Message msg,
                 bus::SendCallback cb)
{
    if (browned_[node]) {
        // The chip's bus interface is dead: the send terminates at
        // once with the reset status so callers never wedge on it.
        if (cb) {
            bus::TxResult result;
            result.status = bus::TxStatus::Reset;
            result.completedAt = sim_.now();
            sim_.schedule(0, [cb, result] { cb(result); });
        }
        return;
    }
    // A chip must be awake to drive the bus; transmitting is a local
    // wake decision, as on MBus.
    wake(node);
    ++nodes_[node].pending;
    Transaction tx;
    tx.node = node;
    tx.msg = std::move(msg);
    tx.cb = std::move(cb);
    queue_.push_back(std::move(tx));
    pump();
}

void
I2cBackend::pump()
{
    if (pumpScheduled_)
        return;
    pumpScheduled_ = true;
    sim_.schedule(0, [this] {
        pumpScheduled_ = false;
        if (active_ || queue_.empty() || jamDepth_ > 0) {
            sim_.poke();
            return;
        }
        current_ = std::move(queue_.front());
        queue_.pop_front();
        active_ = true;
        ++epoch_;
        bytesDone_ = 0;
        setBusy(true);
        if (auto *t = sim_.tracer())
            t->beginTx(static_cast<int>(current_.node),
                       current_.msg.dest.encoded(),
                       static_cast<std::int32_t>(
                           current_.msg.payload.size()));
        startActive();
    });
}

void
I2cBackend::chargeCycles(std::size_t node, std::uint64_t n)
{
    double d = static_cast<double>(n);
    ledger_.charge(node, power::EnergyCategory::SegmentClk,
                   d * model_.clockEnergyPerCycleJ(clockHz_));
    // Worst-case SDA provisioning (Sec 3: data-independent power).
    ledger_.charge(node, power::EnergyCategory::SegmentData,
                   d * model_.dataEnergyPerBitJ(clockHz_));
    cycles_ += n;
    nodes_[node].cyclesDriven += n;
}

void
I2cBackend::startActive()
{
    std::size_t dest = resolveDest(current_.msg.dest);
    bool isBroadcast = current_.msg.dest.isBroadcast();

    // Clock stretching: a gated, sleeping receiver holds SCL low
    // after its address until the wakeup ladder completes. The whole
    // stretch burns low-phase resistor energy, charged to it.
    std::uint64_t stretch = 0;
    if (!isBroadcast && dest < nodes_.size() &&
        nodes_[dest].gated && nodes_[dest].asleep) {
        stretch = kI2cWakeStretchCycles;
        if (auto *t = sim_.tracer())
            t->record(trace::EventKind::ClockStretch,
                      static_cast<int>(dest),
                      static_cast<std::int64_t>(stretch));
        ledger_.charge(dest, power::EnergyCategory::SegmentClk,
                       static_cast<double>(stretch) * 2.0 *
                           model_.lowPhaseLossJ(clockHz_));
        cycles_ += stretch;
    }

    chargeCycles(current_.node, kAddressPhaseCycles);
    sim::SimTime addressTime = sim::fromSeconds(
        static_cast<double>(kAddressPhaseCycles + stretch) /
        effClockHz());

    std::uint64_t epoch = epoch_;
    std::size_t wakeDest = stretch > 0 ? dest : nodes_.size();
    sim_.schedule(addressTime, [this, epoch, dest, isBroadcast,
                                wakeDest] {
        if (!active_ || epoch != epoch_)
            return; // Aborted by an interjection.
        if (wakeDest < nodes_.size())
            wake(wakeDest);
        if (!isBroadcast &&
            (dest >= nodes_.size() || browned_[dest])) {
            // No device ACKed the address (absent, or browned out).
            finishActive(bus::TxStatus::Nak, 0);
            return;
        }
        if (current_.msg.payload.empty()) {
            finishActive(isBroadcast ? bus::TxStatus::Broadcast
                                     : bus::TxStatus::Ack,
                         0);
            return;
        }
        byteDone(epoch, 0);
    });
}

void
I2cBackend::byteDone(std::uint64_t epoch, std::size_t index)
{
    chargeCycles(current_.node, kCyclesPerByte);
    sim_.schedule(
        sim::fromSeconds(static_cast<double>(kCyclesPerByte) /
                         effClockHz()),
        [this, epoch, index] {
            if (!active_ || epoch != epoch_)
                return;
            bytesDone_ = index + 1;
            if (bytesDone_ < current_.msg.payload.size()) {
                byteDone(epoch, index + 1);
                return;
            }
            finishActive(current_.msg.dest.isBroadcast()
                             ? bus::TxStatus::Broadcast
                             : bus::TxStatus::Ack,
                         bytesDone_);
        });
}

void
I2cBackend::finishActive(bus::TxStatus status, std::size_t bytesDone)
{
    Transaction tx = std::move(current_);
    active_ = false;
    ++epoch_;
    setBusy(false);
    --nodes_[tx.node].pending;

    if (auto *t = sim_.tracer())
        t->endTx(static_cast<int>(tx.node),
                 static_cast<std::int64_t>(status),
                 static_cast<std::int32_t>(bytesDone));

    if (tx.internal) {
        // Retime carrier: apply the new clock at STOP, like the MBus
        // config broadcast taking effect at end of message.
        if (status == bus::TxStatus::Broadcast ||
            status == bus::TxStatus::Ack) {
            clockHz_ =
                std::min(tx.retimeHz, 0.999 * maxSafeClockHz());
        }
        if (tx.retimeDone) {
            auto done = std::move(tx.retimeDone);
            sim_.schedule(0, [done] { done(); });
        }
        pump();
        return;
    }

    bool complete = status == bus::TxStatus::Ack ||
                    status == bus::TxStatus::Broadcast;
    bool truncated = status == bus::TxStatus::Interrupted;
    if (handler_ && (complete || truncated)) {
        bus::ReceivedMessage rx;
        rx.dest = tx.msg.dest;
        rx.payload.assign(tx.msg.payload.begin(),
                          tx.msg.payload.begin() +
                              static_cast<std::ptrdiff_t>(bytesDone));
        rx.interjected = truncated;
        rx.receivedAt = sim_.now();
        if (tx.msg.dest.isBroadcast()) {
            // General call: every awake listener hears it; sleeping
            // chips simply miss it (no wakeup-by-address on a
            // broadcast -- an MBus advantage the stats surface).
            DeliveryHandler h = handler_;
            for (std::size_t i = 0; i < nodes_.size(); ++i) {
                if (i == tx.node || nodes_[i].asleep || browned_[i])
                    continue;
                if (auto *t = sim_.tracer())
                    t->record(trace::EventKind::Delivery,
                              static_cast<int>(i),
                              static_cast<std::int64_t>(
                                  rx.payload.size()),
                              rx.interjected ? 1 : 0);
                sim_.schedule(0, [h, i, rx] { h(i, rx); });
            }
        } else {
            std::size_t dest = resolveDest(tx.msg.dest);
            if (dest < nodes_.size()) {
                DeliveryHandler h = handler_;
                if (auto *t = sim_.tracer())
                    t->record(trace::EventKind::Delivery,
                              static_cast<int>(dest),
                              static_cast<std::int64_t>(
                                  rx.payload.size()),
                              rx.interjected ? 1 : 0);
                sim_.schedule(0, [h, dest, rx] { h(dest, rx); });
            }
        }
    }

    if (tx.cb) {
        bus::TxResult result;
        result.status = status;
        result.bytesSent = bytesDone;
        result.completedAt = sim_.now();
        auto cb = std::move(tx.cb);
        sim_.schedule(0, [cb, result] { cb(result); });
    }
    pump();
}

void
I2cBackend::interject(std::size_t node)
{
    if (!active_)
        return; // Nothing in flight to stomp.
    ++aborts_;
    if (auto *t = sim_.tracer())
        t->record(trace::EventKind::InterjectRequest,
                  static_cast<int>(node));
    finishActive(bus::TxStatus::Interrupted, bytesDone_);
}

void
I2cBackend::dropNodeTraffic(std::size_t node)
{
    // Queued transfers owned by the node die where they sit.
    std::deque<Transaction> keep;
    while (!queue_.empty()) {
        Transaction tx = std::move(queue_.front());
        queue_.pop_front();
        if (tx.node != node) {
            keep.push_back(std::move(tx));
            continue;
        }
        --nodes_[node].pending;
        if (tx.cb) {
            bus::TxResult result;
            result.status = bus::TxStatus::Reset;
            result.completedAt = sim_.now();
            auto cb = std::move(tx.cb);
            sim_.schedule(0, [cb, result] { cb(result); });
        }
        if (tx.retimeDone) {
            auto done = std::move(tx.retimeDone);
            sim_.schedule(0, [done] { done(); });
        }
    }
    queue_ = std::move(keep);
    if (active_ && current_.node == node)
        finishActive(bus::TxStatus::Reset, bytesDone_);
    sim_.poke();
}

void
I2cBackend::injectWireForce(std::size_t, int, bool)
{
    // Any line held on the shared pair jams the whole bus.
    ++jamDepth_;
    if (active_) {
        ++busResets_;
        finishActive(bus::TxStatus::Reset, bytesDone_);
    }
}

void
I2cBackend::injectWireRelease(std::size_t, int)
{
    if (jamDepth_ == 0)
        return;
    if (--jamDepth_ == 0)
        pump();
}

void
I2cBackend::injectGlitch(std::size_t, int, int)
{
    // A runt pulse corrupts the in-flight byte: the transfer aborts
    // exactly like a third-party stomp, truncated + flagged.
    if (!active_)
        return;
    ++aborts_;
    finishActive(bus::TxStatus::Interrupted, bytesDone_);
}

void
I2cBackend::injectEdgeDrop(std::size_t, int, int)
{
    // A swallowed SCL pulse desynchronizes master and slave: same
    // observable damage as a glitch.
    if (!active_)
        return;
    ++aborts_;
    finishActive(bus::TxStatus::Interrupted, bytesDone_);
}

void
I2cBackend::setClockDriftFactor(double factor)
{
    driftFactor_ = factor > 0 ? factor : 1.0;
}

void
I2cBackend::brownout(std::size_t node)
{
    if (node == 0 || node >= nodes_.size() || browned_[node])
        return; // Node 0 is the gateway host, out of fault scope.
    browned_[node] = 1;
    dropNodeTraffic(node);
    sleep(node);
}

void
I2cBackend::brownoutRecover(std::size_t node)
{
    if (node >= nodes_.size())
        return;
    browned_[node] = 0;
}

void
I2cBackend::armWatchdog(std::uint32_t epochs)
{
    if (epochs == 0 || watchdogEpochs_ != 0)
        return;
    watchdogEpochs_ = epochs;
    sim_.schedule(sim::fromSeconds(
                      static_cast<double>(watchdogEpochs_) /
                      effClockHz()),
                  [this] { watchdogPoll(); });
}

void
I2cBackend::watchdogPoll()
{
    // Transactions are timer-driven, so the only way the pair hangs
    // is a master that stopped mid-transfer: no SCL cycles across
    // two whole poll intervals while a transfer claims the bus.
    if (active_ && wdLastActive_ && cycles_ == wdLastCycles_) {
        ++busResets_;
        if (auto *t = sim_.tracer())
            t->record(trace::EventKind::WatchdogRescue, 0,
                      static_cast<std::int64_t>(busResets_));
        finishActive(bus::TxStatus::Reset, bytesDone_);
    }
    wdLastActive_ = active_;
    wdLastCycles_ = cycles_;
    sim_.schedule(sim::fromSeconds(
                      static_cast<double>(watchdogEpochs_) /
                      effClockHz()),
                  [this] { watchdogPoll(); });
}

void
I2cBackend::sleep(std::size_t node)
{
    NodeState &n = nodes_[node];
    if (!n.gated || n.asleep)
        return;
    n.poweredAccum += sim_.now() - n.awakeSince;
    n.asleep = true;
    if (auto *t = sim_.tracer())
        t->record(trace::EventKind::PowerGateOff,
                  static_cast<int>(node));
    if (recorder_)
        recorder_->record(awakeIds_[node], sim_.now(), false);
}

void
I2cBackend::wake(std::size_t node)
{
    NodeState &n = nodes_[node];
    if (!n.asleep)
        return;
    n.asleep = false;
    n.awakeSince = sim_.now();
    if (auto *t = sim_.tracer())
        t->record(trace::EventKind::PowerGateOn,
                  static_cast<int>(node));
    if (recorder_)
        recorder_->record(awakeIds_[node], sim_.now(), true);
}

std::size_t
I2cBackend::pendingTx(std::size_t node) const
{
    return nodes_[node].pending;
}

void
I2cBackend::retime(std::size_t node, double clockHz,
                   std::function<void()> done)
{
    wake(node);
    ++nodes_[node].pending;
    Transaction tx;
    tx.node = node;
    tx.msg.dest = bus::Address::broadcast(bus::kChannelConfig);
    tx.msg.payload.assign(5, 0);
    tx.cb = nullptr;
    tx.internal = true;
    tx.retimeHz = clockHz;
    tx.retimeDone = std::move(done);
    queue_.push_back(std::move(tx));
    pump();
}

bus::Address
I2cBackend::unicastAddress(std::size_t node, bool,
                           std::uint8_t fuId) const
{
    // I2C's 7-bit space has no short/full distinction; the node's
    // bus address doubles for both.
    return bus::Address::shortAddr(
        static_cast<std::uint8_t>(node + 1), fuId);
}

void
I2cBackend::setDeliveryHandler(DeliveryHandler h)
{
    handler_ = std::move(h);
}

bool
I2cBackend::runUntilIdle(sim::SimTime timeout)
{
    // The pump and the drop step poke at every step that may leave
    // the bus idle.
    if (!idle())
        sim_.runUntil(timeout, [this] { return idle(); });
    return idle();
}

void
I2cBackend::attachTrace(sim::TraceRecorder &recorder)
{
    recorder_ = &recorder;
    busyId_ = recorder.addSignal("i2c.busy", false);
    awakeIds_.clear();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        awakeIds_.push_back(
            recorder.addSignal("i2c.n" + std::to_string(i) + ".awake",
                               !nodes_[i].asleep));
    }
}

void
I2cBackend::setBusy(bool busy)
{
    if (recorder_)
        recorder_->record(busyId_, sim_.now(), busy);
}

double
I2cBackend::leakageJ() const
{
    // Every chip's bus interface must stay powered to be addressable
    // at all; the same per-chip idle figure the MBus system integrates
    // keeps the comparison apples-to-apples.
    return power::kIdleLeakagePerChipW *
           static_cast<double>(nodes_.size()) *
           sim::toSeconds(sim_.now());
}

double
I2cBackend::nodeEnergyJ(std::size_t node) const
{
    return ledger_.nodeTotal(node);
}

double
I2cBackend::poweredSeconds(std::size_t node) const
{
    const NodeState &n = nodes_[node];
    sim::SimTime t = n.poweredAccum;
    if (!n.asleep)
        t += sim_.now() - n.awakeSince;
    return sim::toSeconds(t);
}

std::uint64_t
I2cBackend::nodeEdges(std::size_t node) const
{
    // Modelled wire activity as master: 2 SCL transitions per cycle
    // plus worst-case SDA toggling every cycle.
    return 3 * nodes_[node].cyclesDriven;
}

} // namespace backend
} // namespace mbus
