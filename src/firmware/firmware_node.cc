#include "firmware/firmware_node.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace firmware {

FirmwareNode::FirmwareNode(sim::Simulator &sim, Config cfg,
                           wire::Net &clkIn, wire::Net &clkOut,
                           wire::Net &dataIn, wire::Net &dataOut)
    : sim_(sim), cfg_(cfg), clkIn_(clkIn), clkOut_(clkOut),
      dataIn_(dataIn), dataOut_(dataOut)
{
    if (cfg.isrJitterCycles == 0 && !cfg.mergeMissedEdges)
        isrTrain_.setMaxEdges(cfg.isrTrainMaxEdges);
    clkRetire_.self = this;
    dataRetire_.self = this;

    MBus_t port;
    port.short_prefix = cfg_.shortPrefix;
    port.full_prefix = cfg_.fullPrefix;
    port.recv_capacity = cfg_.rxCapacityBytes;
    port.set_gpio_val = [this](int gpio, std::uint8_t v) {
        writeGpio(gpio, v);
    };
    port.get_gpio_val = [this](int gpio) { return readGpio(gpio); };
    port.MBus_send_done = [this](std::size_t bytes, MBus_error_t err,
                                 bool acked) {
        onSendDone(bytes, err, acked);
    };
    port.MBus_recv = [this](std::uint32_t addr, int addrBits,
                            const std::uint8_t *buf, std::size_t len,
                            MBus_error_t err, bool eom) {
        onRecv(addr, addrBits, buf, len, err, eom);
    };
    fsm_ = std::make_unique<LibMbus>(std::move(port));
    fsm_->MBus_init();

    clkIn_.listen(wire::Edge::Any, *this);
    dataIn_.listen(wire::Edge::Any, *this);
}

void
FirmwareNode::onNetEdge(wire::Net &net, bool value)
{
    onEdge(&net == &clkIn_ ? Pin::Clk : Pin::Data, value);
}

void
FirmwareNode::onEdge(Pin pin, bool level)
{
    std::uint32_t &pending =
        pin == Pin::Clk ? clkIsrPending_ : dataIsrPending_;
    if (cfg_.mergeMissedEdges && pending > 0) {
        // The interrupt flag is already set: the pending handler will
        // read the (newer) pin level when it finally runs.
        ++stats_.mergedEdges;
        return;
    }

    // Without jitter the CLK ISR's retirement latency is a constant.
    const int total = isrCycles(pin) + static_cast<int>(jitterDraw());
    maxPathCycles_ = std::max(maxPathCycles_, total);

    // One CPU: a new interrupt waits for the running ISR to retire.
    const sim::SimTime now = sim_.now();
    sim::SimTime start = now;
    if (cpuBusyUntil_ > start) {
        ++stats_.serializationStalls;
        start = cpuBusyUntil_;
    }
    const sim::SimTime latency = cfg_.cost.cyclesToTime(total);
    const sim::SimTime done = start + latency;
    cpuBusyUntil_ = done;
    ++stats_.isrInvocations;
    stats_.cyclesSpent += static_cast<std::uint64_t>(total);

    ++pending;
    if (pin == Pin::Clk) {
        // A stalled retirement lands off the pure-latency beat.
        if (start != now)
            isrTrain_.forget();
        else if (isrTrain_.ride(sim_, latency, clkRetire_, level))
            return;
    }
    // The output write is the last instruction before RETI: the whole
    // response lands at ISR retirement.
    sim_.scheduleEdge(done - now,
                      pin == Pin::Clk
                          ? static_cast<sim::EdgeSink &>(clkRetire_)
                          : static_cast<sim::EdgeSink &>(dataRetire_),
                      level);
}

int
FirmwareNode::isrCycles(Pin pin) const
{
    const auto &cost = cfg_.cost;
    int body = cost.gpioReadCycles + cost.dispatchCycles +
               cost.stateUpdateCycles;
    if (pin == Pin::Clk)
        body += cost.gpioWriteCycles + 2 * cost.gpioReadCycles +
                2 * cost.gpioWriteCycles + 1;
    return cost.isrEntryCycles + body + cost.isrExitCycles;
}

sim::SimTime
FirmwareNode::clkIsrLatency() const
{
    return cfg_.cost.cyclesToTime(isrCycles(Pin::Clk));
}

FirmwareNode::DinSlot
FirmwareNode::dinSlot(sim::SimTime dinDelay) const
{
    // The CLK fall's ISR starts at once (CLK reaches the member
    // first); a DATA edge arriving while it runs waits for the CPU.
    const sim::SimTime clk = clkIsrLatency();
    const sim::SimTime at = fsm_->txActive() ? clk + dinDelay : dinDelay;
    DinSlot slot;
    slot.stalls = clk > at;
    slot.done = std::max(at, clk) +
                cfg_.cost.cyclesToTime(isrCycles(Pin::Data));
    return slot;
}

std::uint64_t
FirmwareNode::cyclesSkippable(sim::SimTime half, sim::SimTime dinDelay,
                              const bus::Message *msg,
                              std::uint64_t first) const
{
    if (cfg_.isrJitterCycles != 0 || cfg_.mergeMissedEdges ||
        clkIsrPending_ != 0 || dataIsrPending_ != 0 ||
        cpuBusyUntil_ > sim_.now() || !fsm_->steadyCycle())
        return 0;
    // Each cycle's ISRs retire before the next CLK edge arrives, so
    // every cycle starts on an idle CPU and CLK keeps its beat.
    if (clkIsrLatency() >= half || dinSlot(dinDelay).done >= half)
        return 0;
    if (fsm_->latchingAddress())
        return msg ? fsm_->addressCyclesSkippable(msg->dest.encoded(),
                                                  msg->dest.bitCount(),
                                                  first)
                   : 0;
    if (!fsm_->txActive()) {
        // Past its address: so must the transmitter be.
        const bool inAddress =
            msg && first < static_cast<std::uint64_t>(msg->dest.bitCount());
        return inAddress ? 0 : ~std::uint64_t(0);
    }
    if (!transmitting())
        return 0; // The FSM was handed a buffer directly.
    const std::size_t driven = fsm_->txBitsDriven();
    const std::size_t total = 8 * fsm_->txLength();
    if (total < driven + 3)
        return 0;
    return total - driven - 2;
}

void
FirmwareNode::skipCycles(const bus::SkipWindow &win, std::uint64_t dinEdges,
                         bool din, sim::SimTime clkAt, sim::SimTime half,
                         sim::SimTime dinDelay)
{
    const std::uint64_t cycles = win.cycles;
    const auto clk = static_cast<std::uint64_t>(isrCycles(Pin::Clk));
    const auto data = static_cast<std::uint64_t>(isrCycles(Pin::Data));
    stats_.isrInvocations += 2 * cycles + dinEdges;
    stats_.cyclesSpent += 2 * cycles * clk + dinEdges * data;
    if (dinSlot(dinDelay).stalls)
        stats_.serializationStalls += dinEdges;
    maxPathCycles_ = std::max(maxPathCycles_, static_cast<int>(clk));
    if (dinEdges > 0)
        maxPathCycles_ = std::max(maxPathCycles_, static_cast<int>(data));
    // The last skipped rising edge's ISR retires last.
    const sim::SimTime lastRise =
        clkAt + (2 * static_cast<sim::SimTime>(cycles) - 1) * half;
    cpuBusyUntil_ = lastRise + clkIsrLatency();
    isrTrain_.resumeBeat(lastRise, half);
    fsm_->skipCycles(cycles, din, win.msg ? win.msg->dest.encoded() : 0,
                     win.msg ? win.msg->dest.bitCount() : 0);
}

void
FirmwareNode::runIsr(Pin pin, bool level)
{
    if (pin == Pin::Clk) {
        if (clkIsrPending_ > 0)
            --clkIsrPending_;
        inClkIsr_ = true;
        latchedClk_ = level;
        fsm_->MBus_CLKIN_int_handler();
        inClkIsr_ = false;
    } else {
        if (dataIsrPending_ > 0)
            --dataIsrPending_;
        inDataIsr_ = true;
        latchedData_ = level;
        fsm_->MBus_DIN_int_handler();
        inDataIsr_ = false;
    }
    afterIsr();
    if (idle())
        sim_.poke();
}

std::uint8_t
FirmwareNode::readGpio(int gpio)
{
    // Replay mode latches the handler's own pin at its edge; every
    // other read is live (the instruction runs at retirement time).
    if (gpio == 0) { // CLKIN
        if (!cfg_.mergeMissedEdges && inClkIsr_)
            return latchedClk_ ? 1 : 0;
        return clkIn_.value() ? 1 : 0;
    }
    if (gpio == 2) { // DIN
        if (!cfg_.mergeMissedEdges && inDataIsr_)
            return latchedData_ ? 1 : 0;
        return dataIn_.value() ? 1 : 0;
    }
    mbus_fatal("firmware read of non-input gpio ", gpio);
    return 0;
}

void
FirmwareNode::writeGpio(int gpio, std::uint8_t val)
{
    if (gpio == 1)
        clkOut_.drive(val != 0);
    else if (gpio == 3)
        dataOut_.drive(val != 0);
    else
        mbus_fatal("firmware write of non-output gpio ", gpio);
}

void
FirmwareNode::afterIsr()
{
    // MBus_run() executes off the event kernel at the ISR's virtual
    // timestamp, in the +0 slot after the handler.
    if (fsm_->eventsPending() && !runScheduled_) {
        runScheduled_ = true;
        sim_.schedule(0, [this] { drainRun(); });
    }
    // Back to IDLE with messages waiting (a finished transaction, a
    // lost arbitration, or a squashed request): re-issue after a
    // 4x-response-latency idle guard.
    if (!txQueue_.empty() && fsm_->state() == MBUS_STATE_IDLE &&
        !fsm_->requesting() && !retryScheduled_) {
        retryScheduled_ = true;
        sim_.schedule(4 * cfg_.cost.responseLatency(), [this] {
            retryScheduled_ = false;
            pumpSend();
        });
    }
}

void
FirmwareNode::drainRun()
{
    runScheduled_ = false;
    while (fsm_->MBus_run())
        ++stats_.runWakeups;
    if (idle())
        sim_.poke();
}

void
FirmwareNode::send(bus::Message msg, bus::SendCallback cb)
{
    PendingTx tx;
    tx.msg = std::move(msg);
    tx.cb = std::move(cb);
    // libmbus contract: the send buffer starts with the address
    // byte(s), then the payload.
    std::uint32_t enc = tx.msg.dest.encoded();
    int addrBytes = tx.msg.dest.bitCount() / 8;
    for (int i = addrBytes - 1; i >= 0; --i)
        tx.wire.push_back(
            static_cast<std::uint8_t>((enc >> (8 * i)) & 0xFF));
    tx.wire.insert(tx.wire.end(), tx.msg.payload.begin(),
                   tx.msg.payload.end());
    txQueue_.push_back(std::move(tx));
    pumpSend();
}

void
FirmwareNode::pumpSend()
{
    if (txQueue_.empty())
        return;
    if (fsm_->state() != MBUS_STATE_IDLE || fsm_->requesting())
        return;
    PendingTx &front = txQueue_.front();
    ++front.attempts;
    ++stats_.requestsIssued;
    if (auto *t = sim_.tracer())
        t->beginTx(static_cast<int>(cfg_.shortPrefix) - 1,
                   front.msg.dest.encoded(),
                   static_cast<std::int32_t>(front.msg.payload.size()));
    fsm_->MBus_send(front.wire.data(), front.wire.size(),
                    front.msg.priority);
}

void
FirmwareNode::onSendDone(std::size_t bytesSent, MBus_error_t err,
                         bool acked)
{
    (void)acked;
    if (txQueue_.empty())
        return; // FSM driven directly by a test, not through send().
    PendingTx tx = std::move(txQueue_.front());
    txQueue_.pop_front();
    ++stats_.messagesSent;
    if (err != MBUS_NO_ERROR)
        ++stats_.localErrors;

    if (tx.cb) {
        bus::TxResult result;
        bool broadcast = tx.msg.dest.isBroadcast();
        bool cb0 = fsm_->ctlBit0();
        bool cb1 = fsm_->ctlBit1();
        switch (err) {
          case MBUS_DATA_SYNCH_ERROR:
            result.status = bus::TxStatus::GeneralError;
            result.error = bus::LocalError::DataSynch;
            break;
          case MBUS_CLOCK_SYNCH_ERROR:
            result.status = bus::TxStatus::GeneralError;
            result.error = bus::LocalError::ClockSynch;
            break;
          case MBUS_INTERRUPTED:
            result.status = bus::TxStatus::Interrupted;
            result.error = bus::LocalError::Interrupted;
            break;
          default:
            if (cb0) {
                result.status = broadcast
                                    ? bus::TxStatus::Broadcast
                                    : (cb1 ? bus::TxStatus::Nak
                                           : bus::TxStatus::Ack);
            } else {
                // {0,0}: mediator-signalled general error.
                result.status = bus::TxStatus::GeneralError;
            }
            break;
        }
        if (result.status == bus::TxStatus::Ack ||
            result.status == bus::TxStatus::Nak ||
            result.status == bus::TxStatus::Broadcast) {
            result.bytesSent = tx.msg.payload.size();
        } else {
            // The firmware reports complete buffer bytes driven;
            // strip the address byte(s) to get payload bytes.
            std::size_t addrBytes =
                static_cast<std::size_t>(tx.msg.dest.bitCount() / 8);
            result.bytesSent =
                bytesSent > addrBytes ? bytesSent - addrBytes : 0;
        }
        result.arbitrationRetries =
            tx.attempts > 0 ? tx.attempts - 1 : 0;
        result.completedAt = sim_.now();
        if (auto *t = sim_.tracer())
            t->endTx(static_cast<int>(cfg_.shortPrefix) - 1,
                     static_cast<std::int64_t>(result.status),
                     static_cast<std::int32_t>(result.bytesSent));
        tx.cb(result);
    } else if (auto *t = sim_.tracer()) {
        t->endTx(static_cast<int>(cfg_.shortPrefix) - 1, -1);
    }
}

void
FirmwareNode::onRecv(std::uint32_t addr, int addrBits,
                     const std::uint8_t *buf, std::size_t len,
                     MBus_error_t err, bool eom)
{
    if (err != MBUS_NO_ERROR)
        ++stats_.localErrors;
    if (!rxCb_)
        return;
    ++stats_.messagesReceived;
    bus::ReceivedMessage rx;
    rx.dest = addrBits == 8
                  ? bus::Address::decodeShort(
                        static_cast<std::uint8_t>(addr & 0xFF))
                  : bus::Address::decodeFull(addr);
    rx.payload.assign(buf, buf + len);
    rx.interjected = !eom;
    switch (err) {
      case MBUS_RECV_OVERFLOW:
        rx.error = bus::LocalError::RecvOverflow;
        break;
      case MBUS_INTERRUPTED:
        rx.error = bus::LocalError::Interrupted;
        break;
      default:
        rx.error = bus::LocalError::None;
        break;
    }
    rx.receivedAt = sim_.now();
    if (auto *t = sim_.tracer())
        t->record(trace::EventKind::Delivery,
                  static_cast<int>(cfg_.shortPrefix) - 1,
                  static_cast<std::int64_t>(len), eom ? 0 : 1);
    rxCb_(rx);
}

std::uint32_t
FirmwareNode::jitterDraw()
{
    if (cfg_.isrJitterCycles == 0)
        return 0;
    jitterState_ ^= jitterState_ << 13;
    jitterState_ ^= jitterState_ >> 7;
    jitterState_ ^= jitterState_ << 17;
    return static_cast<std::uint32_t>(
        jitterState_ % (cfg_.isrJitterCycles + 1));
}

} // namespace firmware
} // namespace mbus
