#include "mbus/bus_controller.hh"

#include <algorithm>
#include <utility>

#include "mbus/data_phase.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace bus {

BusController::BusController(BusControllerContext ctx, NodeConfig cfg)
    : ctx_(std::move(ctx)), cfg_(std::move(cfg))
{
    if (cfg_.staticShortPrefix)
        shortPrefix_ = *cfg_.staticShortPrefix;
}

void
BusController::send(Message msg, SendCallback cb, bool cancelOnArbLoss)
{
    if (!msg.dest.isBroadcast() && !msg.dest.isFull() &&
        msg.dest.shortPrefix() == shortPrefix_) {
        sim::warn("node ", ctx_.nodeId, " sending to its own short prefix");
    }
    txQueue_.push_back(
        PendingTx{std::move(msg), std::move(cb), cancelOnArbLoss, 0});
    tryRequest();
}

void
BusController::tryRequest()
{
    if (txQueue_.empty() || txArmed_)
        return;
    // A node that decides to transmit powers its own bus controller:
    // the layer is awake and locally clocked, so the wakeup ladder
    // runs off the local clock rather than bus edges.
    if (!ctx_.busDomain.active())
        ctx_.busDomain.wakeImmediately();
    if (ctx_.sleepCtl.transactionActive() || phase_ != Phase::Idle)
        return; // Busy; the post-idle window will retry.
    txArmed_ = true;
    ctx_.intCtl.noteBusBusy();
    // Break the ring: request the bus (Sec 4.3).
    ctx_.dataCtl.drive(false);
}

void
BusController::interject()
{
    if (phase_ == Phase::Idle || role_ == Role::Tx)
        return;
    wantInterject_ = true;
    if (dataBytesSeen_ >= kMinProgressBytes && phase_ == Phase::Active &&
        addressResolved_) {
        requestInterjection(false);
    }
    // Otherwise deferred: checked at each completed byte.
}

void
BusController::onPowerLost()
{
    // Power gating loses all controller state (Sec 3): model exactly
    // that by resetting the FSM. The TX queue conceptually lives in
    // the layer (it re-arms the controller), so it survives.
    phase_ = Phase::Idle;
    txArmed_ = false;
    requestedThisTxn_ = false;
    resetTransaction();
}

void
BusController::resetTransaction()
{
    role_ = Role::None;
    wonArb_ = priorityDriven_ = wonPriority_ = backedOff_ = false;
    addressResolved_ = false;
    addr_ = AddressLatch{};
    rxBytes_.clear();
    rxBitBuffer_ = 0;
    rxBitsPending_ = 0;
    dataBitsSeen_ = dataBytesSeen_ = 0;
    iAmInterjector_ = interjectorEom_ = false;
    // A third-party interject() aimed at a transaction that ended
    // before the four-byte progress rule allowed it must die with
    // that transaction, not fire four bytes into the next one.
    wantInterject_ = false;
}

void
BusController::reportTx(PendingTx &tx, TxStatus status,
                        std::size_t bytesSent)
{
    if (!tx.cb)
        return;
    TxResult result;
    result.status = status;
    result.bytesSent = bytesSent;
    result.arbitrationRetries = tx.retries;
    result.completedAt = ctx_.sim.now();
    auto cb = std::move(tx.cb);
    ctx_.sim.schedule(0, [cb, result] { cb(result); });
}

void
BusController::powerFail()
{
    // The fault engine records the Brownout instant itself; here we
    // just close the victim's open span so it pairs up in export.
    if (auto *t = ctx_.sim.tracer())
        t->endTx(ctx_.nodeId,
                 static_cast<std::int64_t>(TxStatus::Reset));
    onPowerLost();
    std::deque<PendingTx> dead;
    dead.swap(txQueue_);
    for (PendingTx &tx : dead) {
        ++stats_.messagesSent;
        ++stats_.messagesFailed;
        reportTx(tx, TxStatus::Reset, 0);
    }
    ctx_.sim.poke();
}

void
BusController::onClkEdge(bool rising)
{
    if (!ctx_.busDomain.active())
        return;
    beginTransactionIfNeeded();
    if (phase_ == Phase::Idle)
        return;

    stepLayerIfNeeded();

    if (phase_ == Phase::Control) {
        if (rising)
            handleControlRising(ctx_.sleepCtl.risingCount() -
                                controlBaseRising_);
        else
            handleControlFalling(ctx_.sleepCtl.fallingCount() -
                                 controlBaseFalling_);
        return;
    }
    if (phase_ == Phase::IntjWait)
        return; // Holding CLK (or aborted); wait for the interjection.

    if (rising)
        handleRising(ctx_.sleepCtl.risingCount());
    else
        handleFalling(ctx_.sleepCtl.fallingCount());
}

void
BusController::beginTransactionIfNeeded()
{
    if (phase_ != Phase::Idle || !ctx_.sleepCtl.transactionActive())
        return;
    phase_ = Phase::Active;
    requestedThisTxn_ = txArmed_;
    resetTransaction();
}

void
BusController::stepLayerIfNeeded()
{
    bool wanted = (role_ == Role::Rx) || ctx_.intCtl.pending();
    if (wanted && !ctx_.layerDomain.active())
        ctx_.layerDomain.step();
}

void
BusController::handleRising(std::uint32_t r)
{
    if (r == 1) {
        // Arbitration latch (Sec 4.3). The node at the ring break
        // always wins: normally the mediator host's member port,
        // or whichever node holds the mutable-priority break role.
        if (requestedThisTxn_) {
            bool at_break =
                ctx_.sysCfg.useNodeArbBreak
                    ? arbBreakSelf_
                    : ctx_.isMediatorHost;
            wonArb_ = at_break || ctx_.localData.value();
        }
        return;
    }
    if (r == 2) {
        // Priority-arbitration latch.
        if (wonArb_) {
            if (ctx_.localData.value()) {
                wonArb_ = false;
                backedOff_ = true;
            }
        } else if (priorityDriven_) {
            wonPriority_ = !ctx_.localData.value();
        }
        return;
    }
    if (r == 3) {
        // Reserved-cycle latch: roles are final.
        txArmed_ = false;
        if (wonArb_ || wonPriority_) {
            role_ = Role::Tx;
            if (wonPriority_)
                ++stats_.priorityWins;
            if (auto *t = ctx_.sim.tracer()) {
                const Message &m = txQueue_.front().msg;
                t->beginTx(ctx_.nodeId, m.dest.encoded(),
                           static_cast<std::int32_t>(m.payload.size()));
                t->record(trace::EventKind::ArbWin, ctx_.nodeId,
                          wonPriority_ ? 1 : 0);
            }
            txTotalCycles_ = static_cast<std::uint32_t>(
                txWireCycles(txQueue_.front().msg, lanes()));
            txCyclesDriven_ = 0;
        } else {
            role_ = Role::Fwd;
            if (requestedThisTxn_)
                requeueAfterArbLoss();
        }
        return;
    }

    // Address and data latches.
    if (role_ == Role::Tx) {
        ++stats_.driveCycles;
        if (r == 3 + txTotalCycles_)
            requestInterjection(true);
        return;
    }

    if (!addressResolved_)
        latchAddressBit(ctx_.localData.value());
    else
        latchDataBits();
}

void
BusController::latchAddressBit(bool bit)
{
    addr_.shift(bit);
    if (addr_.complete())
        resolveAddress();
}

bool
BusController::matches(const AddressLatch &latch, Address &addr) const
{
    if (latch.expected == 8) {
        addr = Address::decodeShort(
            static_cast<std::uint8_t>(latch.accum & 0xFF));
        if (addr.isBroadcast())
            return (cfg_.broadcastChannels >> addr.channel()) & 1;
        return hasShortPrefix() && addr.shortPrefix() == shortPrefix_;
    }
    addr = Address::decodeFull(
        static_cast<std::uint32_t>(latch.accum & 0xFFFFFFFFu));
    return addr.fullPrefix() == cfg_.fullPrefix;
}

void
BusController::resolveAddress()
{
    addressResolved_ = true;
    if (!matches(addr_, rxAddr_))
        return;
    role_ = Role::Rx; // Layer wakeup begins on subsequent edges.
    if (auto *t = ctx_.sim.tracer())
        t->record(trace::EventKind::AddrPhase, ctx_.nodeId,
                  static_cast<std::int64_t>(addr_.accum),
                  static_cast<std::int32_t>(addr_.expected));
}

void
BusController::latchDataBits()
{
    int w = lanes();
    for (int l = 0; l < w; ++l) {
        if (phase_ != Phase::Active)
            break; // An RX abort mid-loop stops further latching.
        bool bit = sampleLane(l);
        ++dataBitsSeen_;
        if (role_ == Role::Rx) {
            ++stats_.fifoBits;
            rxBitBuffer_ = (rxBitBuffer_ << 1) | (bit ? 1 : 0);
            if (++rxBitsPending_ == 8) {
                commitRxByte(static_cast<std::uint8_t>(rxBitBuffer_ &
                                                       0xFF));
                rxBitBuffer_ = 0;
                rxBitsPending_ = 0;
            }
        } else if (dataBitsSeen_ % 8 == 0) {
            ++dataBytesSeen_;
            if (wantInterject_ && dataBytesSeen_ >= kMinProgressBytes)
                requestInterjection(false);
        }
    }
}

void
BusController::commitRxByte(std::uint8_t byte)
{
    ++dataBytesSeen_;
    if (rxBytes_.size() >= cfg_.rxBufferLimit) {
        // Buffer overrun: the receiver interjects mid-message to
        // report the error (Sec 4.8).
        ++stats_.rxAborts;
        requestInterjection(false);
        return;
    }
    rxBytes_.push_back(byte);
    if (rxBytes_.size() == 1) {
        if (auto *t = ctx_.sim.tracer())
            t->record(trace::EventKind::DataPhase, ctx_.nodeId, byte);
    }
}

std::uint64_t
BusController::rxRoomCycles() const
{
    if (ctx_.sim.tracer() && rxBytes_.empty())
        return 0;
    // Bytes committable before the overflow abort.
    const std::uint64_t room =
        rxBytes_.size() < cfg_.rxBufferLimit
            ? std::min<std::uint64_t>(cfg_.rxBufferLimit - rxBytes_.size(),
                                      std::uint64_t(1) << 40)
            : 0;
    return (8 * room + 7 - static_cast<std::uint64_t>(rxBitsPending_)) /
           static_cast<std::uint64_t>(lanes());
}

std::uint64_t
BusController::cyclesSkippable(const Message *msg, std::uint64_t first) const
{
    if (!ctx_.busDomain.active() || phase_ != Phase::Active ||
        wantInterject_)
        return 0;
    // Clock high after a counted rising edge: the next edge falls.
    const std::uint32_t f = ctx_.sleepCtl.fallingCount();
    if (ctx_.sleepCtl.risingCount() != f)
        return 0;
    if ((role_ == Role::Rx || ctx_.intCtl.pending()) &&
        !ctx_.layerDomain.active())
        return 0; // The layer still steps on every edge.
    if (role_ == Role::Tx) {
        // Every falling edge since the reserved cycle driven (cycle
        // f - 4 went out on falling edge f).
        if (mediatorOwnsData() || txCyclesDriven_ + 3 != f)
            return 0;
        const std::uint64_t left = txTotalCycles_ - txCyclesDriven_;
        return left > 2 ? left - 2 : 0;
    }
    const int bits = msg ? msg->dest.bitCount() : 0;
    const bool inAddress = first < static_cast<std::uint64_t>(bits);
    if (addressResolved_) {
        if (inAddress)
            return 0; // Its address ended before the transmitter's.
        return role_ == Role::Rx ? rxRoomCycles() : ~std::uint64_t(0);
    }
    // Still latching: in step with the transmitter's address (every
    // rising edge since the reserved cycle latched a bit of it), and
    // reading the same length.
    if (!inAddress || static_cast<std::uint64_t>(f) != first + 3)
        return 0;
    const std::optional<AddressLatch> done =
        addr_.completedWith(msg->dest.encoded(), bits, first);
    if (!done)
        return 0;
    Address addr;
    if (!matches(*done, addr))
        return ~std::uint64_t(0);
    const std::uint64_t left = static_cast<std::uint64_t>(bits) - first;
    if (ctx_.sim.tracer())
        return left - 1; // The match is traced on its edge.
    if (!ctx_.layerDomain.active())
        return left; // Its layer wakes on the edges after it.
    return left + rxRoomCycles();
}

void
BusController::skipCycles(const SkipWindow &win)
{
    const auto w = static_cast<std::uint64_t>(lanes());
    if (role_ == Role::Tx) {
        txCyclesDriven_ += static_cast<std::uint32_t>(win.cycles);
        stats_.driveCycles += win.cycles;
        // Past the address the extra lanes are driven (driveTxCycle()):
        // each holds the last skipped cycle's bit, which the skipped
        // segments already carry.
        if (win.addrSkipped() > 0 && win.dataCycles() > 0)
            for (int l = 1; l < lanes(); ++l)
                driveLane(l, txWireBit(*win.msg, lanes(),
                                       win.first + win.cycles - 1, l));
        return;
    }
    if (const std::uint64_t k = win.addrSkipped()) {
        addr_.shiftWord(win.msg->dest.encoded(), win.msg->dest.bitCount(),
                        static_cast<int>(k));
        if (addr_.complete())
            resolveAddress();
    }
    const std::uint64_t bits = win.dataCycles() * w;
    if (role_ == Role::Rx) {
        // The latch order of latchDataBits(): cycle by cycle, lane 0
        // first -- the data's own bit order.
        stats_.fifoBits += bits;
        dataBitsSeen_ += bits;
        const std::size_t before = rxBytes_.size();
        latchBits(*win.data, win.firstData() * w, bits, rxBytes_,
                  rxBitBuffer_, rxBitsPending_);
        dataBytesSeen_ += rxBytes_.size() - before;
        return;
    }
    // A forwarder, or a chip with no role (latchDataBits()).
    dataBytesSeen_ += (dataBitsSeen_ % 8 + bits) / 8;
    dataBitsSeen_ += bits;
}

void
BusController::handleFalling(std::uint32_t f)
{
    if (f == 2) {
        if (requestedThisTxn_ && !wonArb_) {
            if (!txQueue_.empty() && txQueue_.front().msg.priority) {
                priorityDriven_ = true;
                if (!mediatorOwnsData())
                    ctx_.dataCtl.drive(true);
            } else if (!mediatorOwnsData()) {
                ctx_.dataCtl.forward(); // Lost: release the request.
            }
        }
        return;
    }
    if (f == 3) {
        // Roles finalize on the upcoming reserved latch (r == 3);
        // at this falling edge the winner is whoever holds the
        // arbitration or priority claim.
        bool is_winner = wonArb_ || wonPriority_;
        if (is_winner) {
            if (!mediatorOwnsData())
                ctx_.dataCtl.drive(true); // Reserved cycle: park high.
        } else if ((backedOff_ || priorityDriven_) &&
                   !mediatorOwnsData()) {
            ctx_.dataCtl.forward();
        }
        return;
    }
    if (f >= 4 && role_ == Role::Tx)
        driveTxCycle(f - 4);
}

void
BusController::driveTxCycle(std::uint32_t cycleIdx)
{
    if (mediatorOwnsData())
        return; // Watchdog fired; the mediator owns the line now.
    ++txCyclesDriven_;
    const Message &msg = txQueue_.front().msg;
    // An address cycle drives lane 0 alone.
    const int w = cycleIdx < static_cast<std::uint32_t>(msg.dest.bitCount())
                      ? 1
                      : lanes();
    for (int l = 0; l < w; ++l)
        driveLane(l, txWireBit(msg, lanes(), cycleIdx, l));
}

void
BusController::driveLane(int lane, bool v)
{
    if (lane == 0)
        ctx_.dataCtl.drive(v);
    else
        ctx_.laneCtls[static_cast<std::size_t>(lane - 1)]->drive(v);
}

void
BusController::forwardLane(int lane)
{
    if (lane == 0)
        ctx_.dataCtl.forward();
    else
        ctx_.laneCtls[static_cast<std::size_t>(lane - 1)]->forward();
}

bool
BusController::sampleLane(int lane) const
{
    if (lane == 0)
        return ctx_.localData.value();
    return ctx_.laneIns[static_cast<std::size_t>(lane - 1)]->value();
}

void
BusController::requestInterjection(bool endOfMessage)
{
    if (phase_ != Phase::Active)
        return;
    iAmInterjector_ = true;
    interjectorEom_ = endOfMessage;
    wantInterject_ = false;
    phase_ = Phase::IntjWait;
    ++stats_.interjectionsRequested;
    if (auto *t = ctx_.sim.tracer())
        t->record(trace::EventKind::InterjectRequest, ctx_.nodeId,
                  endOfMessage ? 1 : 0);
    if (ctx_.isMediatorHost && ctx_.medLink &&
        ctx_.medLink->requestInterjection) {
        // The host member shares its CLK drive point with the
        // mediator; it requests the interjection on-chip.
        ctx_.medLink->requestInterjection();
        return;
    }
    // Stop forwarding CLK: hold it high. The mediator notices the
    // broken ring and generates the interjection (Fig 7, events 1-3).
    ctx_.clkCtl.drive(true);
}

void
BusController::onInterjectionDetected()
{
    // The detector lives in the always-on domain: it must catch
    // interjections even while the bus controller is power gated
    // (a gated controller woken mid-transaction enters directly in
    // control mode -- this is how null-transaction wakeups work).
    //
    // It also fires from *any* state, including idle: the
    // interjection is the protocol's reliable reset (Sec 4.9), and
    // the mediator's hung-bus rescue must resynchronize controllers
    // regardless of what they believe the bus is doing. Legal idle
    // activity produces at most two quiet DATA edges (a request fall
    // plus a null-transaction release), below the detector's
    // three-edge threshold, so this cannot false-trigger.
    if (phase_ == Phase::Control || phase_ == Phase::Idle) {
        // Entering from idle, or re-entering after a fault swallowed
        // our control edges: drop any stale role state.
        role_ = Role::None;
        rxBytes_.clear();
        iAmInterjector_ = false;
        interjectorEom_ = false;
    }
    phase_ = Phase::Control;
    controlBaseRising_ = ctx_.sleepCtl.risingCount();
    controlBaseFalling_ = ctx_.sleepCtl.fallingCount();
    ctlBit0_ = ctlBit1_ = false;
    if (role_ == Role::Tx || role_ == Role::Rx) {
        if (auto *t = ctx_.sim.tracer())
            t->record(trace::EventKind::ControlPhase, ctx_.nodeId,
                      iAmInterjector_ ? 1 : 0);
    }

    // Switch role (Fig 7): release all holds, resume forwarding.
    // The mediator can only own the single shared DATA wire (lane
    // 0); extra parallel lanes are always member-driven, so a
    // transmitting host must release them even while the mediator
    // drives DATA -- otherwise a stuck lane mux masks every later
    // message's bits on that lane.
    ctx_.clkCtl.forward();
    if (!mediatorOwnsData())
        forwardLane(0);
    for (int l = 1; l < lanes(); ++l)
        forwardLane(l);

    // Byte alignment (Sec 4.9): nodes observe varying edge counts
    // around an interjection; discard any partial byte.
    rxBitBuffer_ = 0;
    rxBitsPending_ = 0;
}

void
BusController::handleControlFalling(std::uint32_t fc)
{
    if (fc == 2) {
        // Control bit 0: the transmitter signals a complete message
        // by driving high (Fig 7 event 5). A transmitter that was
        // interrupted -- receiver abort, third party, or a fault --
        // drives low. When the mediator owns the line it is issuing
        // a general error and nobody else drives.
        if (role_ == Role::Tx && !mediatorOwnsData()) {
            ctx_.dataCtl.drive(iAmInterjector_ && interjectorEom_);
        }
        return;
    }
    if (fc == 3) {
        // Control bit 1: the ACK slot.
        if (role_ == Role::Tx && !mediatorOwnsData())
            ctx_.dataCtl.forward(); // Hand the line over.
        if (role_ == Role::Rx && ctlBit0_ && !rxAddr_.isBroadcast() &&
            !mediatorOwnsData()) {
            ctx_.dataCtl.drive(false); // ACK: drive low (Fig 7 ev. 6).
        }
        if (iAmInterjector_ && role_ != Role::Tx &&
            !mediatorOwnsData()) {
            // Deliberate abort by a receiver or third party: {0,1}.
            ctx_.dataCtl.drive(true);
        }
        return;
    }
    if (fc == 4) {
        if (!mediatorOwnsData())
            ctx_.dataCtl.forward(); // Everyone releases for idle.
        return;
    }
}

void
BusController::handleControlRising(std::uint32_t rc)
{
    if (rc == 2) {
        ctlBit0_ = ctx_.localData.value();
        return;
    }
    if (rc == 3) {
        ctlBit1_ = ctx_.localData.value();
        resolveOutcome();
        return;
    }
    if (rc == 4) {
        beginIdle();
        return;
    }
}

void
BusController::resolveOutcome()
{
    ControlCode code = controlCodeFromBits(ctlBit0_, ctlBit1_);

    if (role_ == Role::Tx && !txQueue_.empty()) {
        bool broadcast = txQueue_.front().msg.dest.isBroadcast();
        TxStatus status;
        switch (code) {
          case ControlCode::AckEom:
            status = broadcast ? TxStatus::Broadcast : TxStatus::Ack;
            break;
          case ControlCode::NakEom:
            status = broadcast ? TxStatus::Broadcast : TxStatus::Nak;
            break;
          case ControlCode::GeneralError:
            status = TxStatus::GeneralError;
            break;
          default:
            status = TxStatus::Interrupted;
            break;
        }
        completeCurrentTx(status);
    }

    if (role_ == Role::Rx && rxCb_) {
        bool end_of_message = ctlBit0_;
        ReceivedMessage rx;
        rx.dest = rxAddr_;
        rx.payload = rxBytes_;
        rx.interjected = !end_of_message;
        rx.receivedAt = ctx_.sim.now();
        // Clean end-of-message delivers; a deliberate abort ({0,1})
        // delivers the complete bytes so far, flagged; a general
        // error ({0,0}) is a bus reset and delivers nothing.
        bool abort_code = !ctlBit0_ && ctlBit1_;
        if (end_of_message || (abort_code && !rx.payload.empty())) {
            ++stats_.messagesReceived;
            stats_.bytesReceived += rx.payload.size();
            if (auto *t = ctx_.sim.tracer())
                t->record(trace::EventKind::Delivery, ctx_.nodeId,
                          static_cast<std::int64_t>(rx.payload.size()),
                          rx.interjected ? 1 : 0);
            // Delivery needs the layer active; if the message was so
            // short that wakeup edges ran out, the remaining rungs
            // complete on the idle edges (modelled as immediate).
            if (!ctx_.layerDomain.active())
                ctx_.layerDomain.wakeImmediately();
            auto cb = rxCb_;
            ctx_.sim.schedule(0, [cb, rx] { cb(rx); });
        }
    }

    // A pending local interrupt is serviced once the layer is up
    // (null transactions end with GeneralError; Sec 4.5, Fig 6).
    if (ctx_.intCtl.pending()) {
        if (!ctx_.layerDomain.active())
            ctx_.layerDomain.wakeImmediately();
        ctx_.intCtl.clearInterrupt();
        if (irqCb_) {
            auto cb = irqCb_;
            ctx_.sim.schedule(0, [cb] { cb(); });
        }
    }
}

void
BusController::completeCurrentTx(TxStatus status)
{
    PendingTx tx = std::move(txQueue_.front());
    txQueue_.pop_front();

    if (auto *t = ctx_.sim.tracer())
        t->endTx(ctx_.nodeId, static_cast<std::int64_t>(status),
                 static_cast<std::int32_t>(tx.msg.payload.size()));

    ++stats_.messagesSent;
    switch (status) {
      case TxStatus::Ack:
      case TxStatus::Broadcast:
        ++stats_.messagesAcked;
        stats_.bytesSent += tx.msg.payload.size();
        break;
      case TxStatus::Nak:
        ++stats_.messagesNaked;
        break;
      default:
        ++stats_.messagesFailed;
        break;
    }

    std::size_t bytesSent = tx.msg.payload.size();
    if (status != TxStatus::Ack && status != TxStatus::Broadcast &&
        status != TxStatus::Nak) {
        // Interrupted mid-message: report completed payload bytes
        // actually put on the wire ("both TX and RX nodes know how
        // far through a message they were", Sec 7).
        const auto addr = static_cast<std::size_t>(tx.msg.dest.bitCount());
        std::size_t payload_cycles =
            txCyclesDriven_ > addr ? txCyclesDriven_ - addr : 0;
        bytesSent = std::min(bytesSent,
                             payload_cycles *
                                 static_cast<std::size_t>(lanes()) / 8);
    }
    reportTx(tx, status, bytesSent);
}

void
BusController::requeueAfterArbLoss()
{
    if (txQueue_.empty())
        return;
    ++stats_.arbitrationLosses;
    if (auto *t = ctx_.sim.tracer())
        t->record(trace::EventKind::ArbLoss, ctx_.nodeId);
    PendingTx &tx = txQueue_.front();
    ++tx.retries;
    if (tx.cancelOnArbLoss) {
        PendingTx cancelled = std::move(txQueue_.front());
        txQueue_.pop_front();
        reportTx(cancelled, TxStatus::LostArbitration, 0);
    }
    // Otherwise the message stays queued; the post-idle window
    // re-requests the bus.
}

void
BusController::beginIdle()
{
    phase_ = Phase::Idle;
    role_ = Role::None;
    iAmInterjector_ = false;
    interjectorEom_ = false;
    wantInterject_ = false;
    // A transaction killed before arbitration resolved leaves the
    // armed request dangling; clear it so the idle window re-arms.
    txArmed_ = false;
    ctx_.sleepCtl.noteIdle();

    // Give the ring one period to flush, then service the idle
    // window: pending interrupts, queued transmissions, power-down.
    sim::SimTime period =
        sim::periodFromHz(ctx_.sysCfg.busClockHz);
    ctx_.sim.schedule(period, [this] { postIdleWindow(); });
    ctx_.sim.poke();
}

void
BusController::postIdleWindow()
{
    if (phase_ != Phase::Idle || ctx_.sleepCtl.transactionActive())
        return; // A new transaction already started.
    ctx_.intCtl.noteBusIdle();
    if (!txQueue_.empty()) {
        tryRequest();
        return;
    }
    if (cfg_.powerGated && !ctx_.intCtl.pending())
        ctx_.busDomain.shutdown();
}

} // namespace bus
} // namespace mbus
