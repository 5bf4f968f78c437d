#include "mbus/mediator.hh"

#include <algorithm>

#include "mbus/system.hh"
#include "sim/logging.hh"

namespace mbus {
namespace bus {

Mediator::Mediator(Context ctx) : ctx_(std::move(ctx))
{
    tickSink_.med = this;
    checkSink_.med = this;
    ctx_.dataIn.listen(wire::Edge::Any, *this);
}

bool
Mediator::useTrains() const
{
    return ctx_.cfg.edgeTrains && ctx_.cfg.hopDelay > 0;
}

sim::SimTime
Mediator::ringCheckDelay() const
{
    sim::SimTime ring_delay =
        static_cast<sim::SimTime>(ctx_.ringSize) * ctx_.cfg.hopDelay +
        ctx_.cfg.extraRingLatency;
    return ring_delay + 2 * ctx_.cfg.hopDelay;
}

void
Mediator::onNetEdge(wire::Net &, bool value)
{
    // Track DATA edges returning to the mediator during interjection
    // so the sequence keeps toggling until it has propagated the
    // whole ring (robust even when a driving node blocks the first
    // edges).
    if (state_ == State::Interjecting)
        ++dataInEdgesDuringIntj_;
    // Falling-edge wakeup detector, live only once arm()ed.
    if (!value && armed_ && state_ == State::Asleep)
        onDataFall();
}

void
Mediator::arm()
{
    armed_ = true;
}

sim::SimTime
Mediator::period() const
{
    // clockDriftFactor is exactly 1.0 outside fault-injection drift
    // windows; x * 1.0 is IEEE-exact, so the no-fault tick is
    // bit-identical to the pre-fault-engine one.
    return sim::periodFromHz(ctx_.cfg.busClockHz *
                             ctx_.cfg.clockDriftFactor);
}

void
Mediator::setMaxMessageBytes(std::size_t bytes)
{
    if (bytes < kMinMaxMessageBytes) {
        sim::warn("mediator max message length clamped to the 1 kB spec "
             "minimum");
        bytes = kMinMaxMessageBytes;
    }
    maxMessageBytes_ = bytes;
}

void
Mediator::onDataFall()
{
    // Self-start (Sec 4.2): the falling edge wakes the mediator; it
    // begins toggling CLK one bus period later.
    state_ = State::WakePending;
    ctx_.sim.schedule(period(), [this] { startClocking(); });
}

void
Mediator::startClocking()
{
    ++stats_.transactions;
    state_ = State::Clocking;
    clkLevel_ = true;
    rising_ = falling_ = 0;
    addr_ = AddressLatch{};
    dataCyclesSeen_ = 0;

    // Arbitration: the mediator does not forward DATA. If the host's
    // member port is itself requesting (driving low), its drive is
    // already the ring break; otherwise the mediator parks the output
    // high. Under mutable priority (Sec 7) the break belongs to the
    // designated member node instead, and the mediator forwards.
    if (!ctx_.cfg.useNodeArbBreak && ctx_.dataCtl.forwarding()) {
        medDrivingData_ = true;
        ctx_.link.mediatorOwnsData = true;
        ctx_.dataCtl.drive(true);
    }
    if (useTrains()) {
        // First edge inline (as the discrete path drives it), then
        // the rest of the chunk rides the tick + ring-check trains.
        onTickEdge(!clkLevel_);
        if (state_ == State::Clocking)
            armTickTrain();
    } else {
        driveClockEdge();
    }
}

void
Mediator::onTickEdge(bool level)
{
    clkLevel_ = level;
    ctx_.clkCtl.drive(level);

    if (level) {
        ++rising_;
        ++stats_.clockCycles;
        afterRisingEdge(rising_); // May begin an interjection.
    } else {
        ++falling_;
        if (falling_ == 2 && medDrivingData_) {
            // Arbitration over: begin forwarding DATA (Fig 5).
            medDrivingData_ = false;
            ctx_.link.mediatorOwnsData = false;
            ctx_.dataCtl.forward();
        }
    }
}

void
Mediator::driveClockEdge()
{
    if (state_ != State::Clocking)
        return;
    onTickEdge(!clkLevel_);
    if (state_ != State::Clocking)
        return; // Interjection began.

    scheduleRingCheck(clkLevel_);
    clockEvent_ =
        ctx_.sim.schedule(period() / 2, [this] { driveClockEdge(); });
}

void
Mediator::armTickTrain()
{
    armedHalfPeriod_ = period() / 2;
    tickEdgesLeft_ = kTickTrainEdges;
    // The ring-check train covers the edge just driven plus the whole
    // tick chunk; arming it first keeps the discrete tie-break order
    // (each edge's check was scheduled before the next tick).
    checkEvent_ = ctx_.sim.scheduleEdgeTrain(
        ringCheckDelay(), armedHalfPeriod_, tickEdgesLeft_ + 1,
        checkSink_, clkLevel_);
    clockEvent_ = ctx_.sim.scheduleEdgeTrain(
        armedHalfPeriod_, armedHalfPeriod_, tickEdgesLeft_, tickSink_,
        !clkLevel_);
}

void
Mediator::onTrainTick(bool level)
{
    if (state_ != State::Clocking)
        return;
    if (period() / 2 != armedHalfPeriod_) {
        // The clock was retimed mid-transaction (config broadcast):
        // drop both trains and re-arm at the new period, exactly
        // where the discrete path would start spacing edges anew.
        clockEvent_.cancel();
        checkEvent_.cancel();
        onTickEdge(level);
        if (state_ == State::Clocking)
            armTickTrain();
        return;
    }
    if (!level && ring_ && fastForward())
        return;
    const bool refill = --tickEdgesLeft_ == 0;
    onTickEdge(level);
    if (refill && state_ == State::Clocking)
        armTickTrain();
}

bool
Mediator::fastForward()
{
    // Past the reserved cycle, on the nominal tick, with every edge
    // flushed by the next one (H > (n + 2) h).
    if (rising_ < 3 || medDrivingData_ || ctx_.cfg.clockDriftFactor != 1.0 ||
        armedHalfPeriod_ <= ringCheckDelay())
        return false;
    const std::uint32_t cycles = ring_->skipCycles(armedHalfPeriod_,
                                                   checkEvent_);
    if (cycles == 0)
        return false;
    rising_ += cycles;
    falling_ += cycles;
    stats_.clockCycles += cycles;

    // Resume with this tick's falling edge, cycles whole cycles on.
    clockEvent_.cancel();
    checkEvent_.cancel();
    const sim::SimTime resume =
        static_cast<sim::SimTime>(cycles) * 2 * armedHalfPeriod_;
    tickEdgesLeft_ = kTickTrainEdges;
    checkEvent_ = ctx_.sim.scheduleEdgeTrain(
        resume + ringCheckDelay(), armedHalfPeriod_, tickEdgesLeft_,
        checkSink_, false);
    clockEvent_ = ctx_.sim.scheduleEdgeTrain(
        resume, armedHalfPeriod_, tickEdgesLeft_, tickSink_, false);
    return true;
}

std::uint64_t
Mediator::latchableCycles(const Message *msg, std::uint64_t first) const
{
    // Data cycles latched without passing the length limit (see
    // watchdogLatch()).
    const auto w = static_cast<std::uint64_t>(ctx_.cfg.dataLanes);
    const std::uint64_t latchable = (8 * maxMessageBytes_ + 7) / w;
    const int bits = msg ? msg->dest.bitCount() : 0;
    if (first < static_cast<std::uint64_t>(bits)) {
        // Still latching the transmitter's address: in step with it,
        // and reading the same length.
        if (!addr_.completedWith(msg->dest.encoded(), bits, first))
            return 0;
        return static_cast<std::uint64_t>(bits) - first + latchable;
    }
    if (!addr_.complete() || latchable <= dataCyclesSeen_)
        return 0;
    return latchable - dataCyclesSeen_;
}

void
Mediator::skipLatches(const SkipWindow &win)
{
    if (const std::uint64_t k = win.addrSkipped())
        addr_.shiftWord(win.msg->dest.encoded(), win.msg->dest.bitCount(),
                        static_cast<int>(k));
    dataCyclesSeen_ += win.dataCycles();
}

void
Mediator::onRingCheck(bool expected)
{
    if (state_ != State::Clocking)
        return;
    if (ctx_.clkIn.value() != expected)
        beginInterjection(InterjectReason::RingBreak);
}

void
Mediator::afterRisingEdge(std::uint32_t r)
{
    if (r == 1) {
        // Arbitration sample: high means nobody is requesting -- a
        // null transaction. Raise a general error (Fig 6). With a
        // member-node ring break (mutable priority) the mediator's
        // view can be masked by the break; true null transactions
        // then resolve through the watchdog instead.
        if (!ctx_.cfg.useNodeArbBreak && ctx_.dataIn.value())
            beginInterjection(InterjectReason::NoWinner);
        return;
    }
    if (r >= 4)
        watchdogLatch();
}

void
Mediator::watchdogLatch()
{
    if (!addr_.complete()) {
        addr_.shift(ctx_.dataIn.value());
        return;
    }
    ++dataCyclesSeen_;
    std::uint64_t bytes =
        dataCyclesSeen_ *
        static_cast<std::uint64_t>(ctx_.cfg.dataLanes) / 8;
    if (bytes > maxMessageBytes_) {
        // Runaway message (Sec 7): terminate with a general error.
        ++stats_.watchdogKills;
        beginInterjection(InterjectReason::Watchdog);
    }
}

void
Mediator::scheduleRingCheck(bool expected)
{
    std::uint64_t epoch = checkEpoch_;
    ctx_.sim.schedule(ringCheckDelay(),
                      [this, expected, epoch] {
                          if (epoch != checkEpoch_ ||
                              state_ != State::Clocking) {
                              return;
                          }
                          if (ctx_.clkIn.value() != expected)
                              beginInterjection(
                                  InterjectReason::RingBreak);
                      });
}

void
Mediator::hostInterjectionRequest()
{
    if (state_ == State::Clocking)
        beginInterjection(InterjectReason::RingBreak);
}

void
Mediator::forceInterjection()
{
    if (state_ == State::Interjecting || state_ == State::Control)
        return; // A reset is already underway.
    clockEvent_.cancel();
    state_ = State::Clocking; // Any pre-interjection state works.
    beginInterjection(InterjectReason::Rescue);
}

void
Mediator::beginInterjection(InterjectReason reason)
{
    ++checkEpoch_;
    clockEvent_.cancel();
    checkEvent_.cancel();
    reason_ = reason;
    if (reason == InterjectReason::RingBreak)
        ++stats_.interjections;
    else if (reason == InterjectReason::NoWinner)
        ++stats_.generalErrors;
    state_ = State::Interjecting;

    // CLK parks high for the whole interjection. If the blocked edge
    // left our output low, restore it -- nodes between the mediator
    // and the interjector observe one extra short cycle, which is why
    // MBus requires byte-aligned messages (Sec 4.9).
    if (!clkLevel_) {
        clkLevel_ = true;
        ctx_.clkCtl.drive(true);
    }

    // Take the DATA line and toggle it with no CLK edges.
    medDrivingData_ = true;
    ctx_.link.mediatorOwnsData = true;
    togglesDriven_ = 0;
    dataInEdgesDuringIntj_ = 0;
    ctx_.sim.schedule(period() / 2, [this] { interjectionToggle(); });
}

void
Mediator::interjectionToggle()
{
    if (state_ != State::Interjecting)
        return;
    bool v = !ctx_.dataCtl.outputValue();
    ctx_.dataCtl.drive(v);
    ++togglesDriven_;

    bool ends_high = v;
    bool enough = togglesDriven_ >= 6;
    bool confirmed = dataInEdgesDuringIntj_ >= 3;
    if (ends_high && enough && (confirmed || togglesDriven_ >= 32)) {
        if (!confirmed) {
            sim::warn("interjection not confirmed around the ring after ",
                 togglesDriven_, " toggles; proceeding to control");
        }
        // Let the final toggle flush, then run the control cycles.
        ctx_.sim.schedule(period() / 2, [this] { beginControl(); });
        return;
    }
    ctx_.sim.schedule(period() / 2, [this] { interjectionToggle(); });
}

void
Mediator::beginControl()
{
    if (state_ != State::Interjecting)
        return;
    state_ = State::Control;
    ctlRising_ = ctlFalling_ = 0;
    ctlBit0_ = ctlBit1_ = false;
    driveControlEdge();
}

void
Mediator::driveControlEdge()
{
    if (state_ != State::Control)
        return;
    clkLevel_ = !clkLevel_;
    ctx_.clkCtl.drive(clkLevel_);

    if (!clkLevel_) {
        ++ctlFalling_;
        if (ctlFalling_ == 2) {
            if (generalError()) {
                // The mediator itself drives the {0,0} code.
                ctx_.dataCtl.drive(false);
            } else {
                // Hand the line to the interjector for control bit 0.
                medDrivingData_ = false;
                ctx_.link.mediatorOwnsData = false;
                ctx_.dataCtl.forward();
            }
        } else if (ctlFalling_ == 4) {
            // Return to idle: drive DATA high (Sec 4.9 / Fig 7 ev 7).
            medDrivingData_ = true;
            ctx_.link.mediatorOwnsData = true;
            ctx_.dataCtl.drive(true);
        }
    } else {
        ++ctlRising_;
        ++stats_.clockCycles;
        if (ctlRising_ == 2)
            ctlBit0_ = ctx_.dataIn.value();
        if (ctlRising_ == 3)
            ctlBit1_ = ctx_.dataIn.value();
        if (ctlRising_ == 4) {
            finishTransaction();
            return;
        }
    }

    clockEvent_ = ctx_.sim.schedule(period() / 2,
                                    [this] { driveControlEdge(); });
}

void
Mediator::finishTransaction()
{
    // Flush the ring, then release everything and go back to sleep.
    ctx_.sim.schedule(ringCheckDelay(), [this] {
        medDrivingData_ = false;
        ctx_.link.mediatorOwnsData = false;
        ctx_.dataCtl.forward();
        ctx_.clkCtl.forward();
        ++checkEpoch_;
        checkEvent_.cancel();
        state_ = State::Asleep;
        if (onIdle_)
            onIdle_();
        ctx_.sim.poke();
        // Late request: a node may have pulled DATA low while we were
        // putting the bus to sleep.
        if (!ctx_.dataIn.value())
            onDataFall();
    });
}

} // namespace bus
} // namespace mbus
