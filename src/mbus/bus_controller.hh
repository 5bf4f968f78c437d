/**
 * @file
 * The MBus bus controller: the per-chip protocol state machine.
 *
 * This is the one component every MBus chip must carry (Table 2's
 * 947-SLOC Verilog module). It implements, per Figure 3:
 *
 *  - bus requests and arbitration sampling (Sec 4.3),
 *  - the priority-arbitration cycle,
 *  - address latching and match (short, full, broadcast; Sec 4.6),
 *  - transmit bit driving on falling edges / receive latching on
 *    rising edges (Sec 4.8), across 1..4 DATA lanes (Sec 7),
 *  - end-of-message interjection requests, receiver aborts, and
 *    third-party interjections honouring the four-byte progress
 *    policy (Secs 4.9 and 7),
 *  - the two-cycle control sequence with transaction-level ACK/NAK,
 *  - byte-alignment discard of non-aligned bits after interjection,
 *  - hierarchical wakeup of the layer domain on address match or
 *    pending local interrupt (Secs 4.4, 4.5).
 *
 * Phase is derived from the always-on sleep controller's edge counts,
 * never from global state: a controller woken mid-arbitration reads
 * the same counters the hardware's always-on frontend would provide.
 *
 * From the reserved cycle on, through the address and a steady data
 * phase, the controller can also be advanced whole cycles at a time
 * (cyclesSkippable / skipCycles, driven by MBusSystem's
 * fast-forward): it reports how far it may skip before its next
 * protocol decision -- its last two cycles as transmitter, its
 * RX-capacity point as receiver, and, while it still latches the
 * address, the last address cycle when the address will select it and
 * wake its layer (or, under a tracer, the cycle before it) -- and
 * applies the skipped cycles' counts, address bits and latched bytes
 * exactly.
 */

#ifndef MBUS_BUS_BUS_CONTROLLER_HH
#define MBUS_BUS_BUS_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mbus/config.hh"
#include "mbus/data_phase.hh"
#include "mbus/interrupt_controller.hh"
#include "mbus/message.hh"
#include "mbus/protocol.hh"
#include "mbus/sleep_controller.hh"
#include "mbus/wire_controller.hh"
#include "power/domain.hh"
#include "sim/simulator.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {

/**
 * Coordination shared between a mediator and the bus controller of
 * the chip hosting it. While the mediator owns the DATA wire
 * (interjection sequence, general-error control bits), the host's
 * member controller must not drive it. A host transmitter cannot
 * signal end-of-message by breaking the CLK ring -- it shares its
 * drive point with the mediator -- so it requests the interjection
 * through this on-chip channel instead, exactly as the integrated
 * mediator+member chips in the paper's systems do.
 */
struct MediatorHostLink
{
    bool mediatorOwnsData = false;
    std::function<void()> requestInterjection;
};

/** Everything a bus controller is wired to. */
struct BusControllerContext
{
    sim::Simulator &sim;
    const SystemConfig &sysCfg;
    wire::Net &localClk;  ///< Local clock reference net.
    wire::Net &localData; ///< Local DATA sample point (lane 0 input).
    WireController &clkCtl;
    WireController &dataCtl;
    std::vector<wire::Net *> laneIns;       ///< Lanes 1.. inputs.
    std::vector<WireController *> laneCtls; ///< Lanes 1.. outputs.
    SleepController &sleepCtl;
    InterruptController &intCtl;
    power::PowerDomain &busDomain;
    power::PowerDomain &layerDomain;
    std::size_t nodeId = 0;
    bool isMediatorHost = false;
    MediatorHostLink *medLink = nullptr; ///< Non-null on the host.
};

/** Per-controller statistics. */
struct BusControllerStats
{
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesAcked = 0;
    std::uint64_t messagesNaked = 0;
    std::uint64_t messagesFailed = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t arbitrationLosses = 0;
    std::uint64_t priorityWins = 0;
    std::uint64_t interjectionsRequested = 0;
    std::uint64_t rxAborts = 0;
    /** Address and data cycles driven as transmitter (each prices
     *  one drivePerBit() of Drive energy). */
    std::uint64_t driveCycles = 0;
    /** Bits latched into the RX FIFO (each prices one fifoPerBit()
     *  of Fifo energy). */
    std::uint64_t fifoBits = 0;
};

/**
 * The per-chip MBus protocol engine.
 *
 * Receives its clock edges directly from the sleep controller
 * through the ClockEdgeSink interface (counted, wakeup-stepped
 * edges -- never raw Net subscriptions).
 */
class BusController : public ClockEdgeSink
{
  public:
    explicit BusController(BusControllerContext ctx, NodeConfig cfg);

    // --- Identity ------------------------------------------------------

    /** True once a short prefix is assigned (static or enumerated). */
    bool hasShortPrefix() const { return shortPrefix_ != 0; }

    /** Assigned short prefix (0 = unassigned). */
    std::uint8_t shortPrefix() const { return shortPrefix_; }

    /** Assign a short prefix (enumeration or static). */
    void setShortPrefix(std::uint8_t prefix) { shortPrefix_ = prefix; }

    /** 20-bit unique full prefix. */
    std::uint32_t fullPrefix() const { return cfg_.fullPrefix; }

    // --- Sending --------------------------------------------------------

    /**
     * Queue a message. The controller requests the bus at the next
     * idle window, retries lost arbitrations (unless the message is
     * marked cancel-on-arbitration-loss), and invokes @p cb with the
     * final status.
     */
    void send(Message msg, SendCallback cb = nullptr,
              bool cancelOnArbLoss = false);

    /** Queued (not yet completed) transmissions. */
    std::size_t pendingTx() const { return txQueue_.size(); }

    /**
     * Third-party interjection: terminate the transaction currently
     * occupying the bus. Honours the minimum-progress policy -- the
     * request is deferred until the transmitter has moved at least
     * kMinProgressBytes of payload (Sec 7).
     */
    void interject();

    // --- Receiving --------------------------------------------------

    /** Register the delivery callback (the layer controller). */
    void setReceiveCallback(ReceiveCallback cb) { rxCb_ = std::move(cb); }

    /** Register a callback for serviced local interrupts. */
    void
    setInterruptCallback(std::function<void()> cb)
    {
        irqCb_ = std::move(cb);
    }

    /** Mutable priority: when this node provides the arbitration
     *  break, its own requests sample as winning (it is position 0
     *  of the priority order, like the mediator host normally is). */
    void setArbBreakSelf(bool v) { arbBreakSelf_ = v; }

    // --- Introspection ------------------------------------------------

    const BusControllerStats &stats() const { return stats_; }

    /** True while the bus is idle from this node's perspective. */
    bool busIdle() const { return phase_ == Phase::Idle; }

    /** Called by the power domain when the controller loses power. */
    void onPowerLost();

    /**
     * Hard brownout: a mid-transaction power cut that, unlike
     * graceful gating (onPowerLost), also loses the queued
     * transmissions -- the application state holding them is gone.
     * Every queued send completes with TxStatus::Reset so callers
     * still observe exactly one terminal status per send.
     */
    void powerFail();

    /** Hooked to the interjection detector by the node. */
    void onInterjectionDetected();

    /** Edge delivery from the sleep controller (ClockEdgeSink). */
    void onClkEdge(bool rising) override;

    // --- Fast-forward (MBusSystem) ------------------------------------

    /**
     * Whole cycles this controller could skip from the current
     * clock-high point past the reserved cycle, the transmitter
     * sending @p msg (nullptr: nobody transmits) with wire cycle
     * @p first due next, without meeting a protocol decision: a
     * transmitter keeps its last two cycles, a receiver stops short of
     * its RX-capacity point (and, under a tracer, of its first byte,
     * which is traced), a forwarder has no bound. A chip still
     * latching the address must be in step with the transmitter; its
     * match, a function of @p msg's address, ends the window at its
     * last address cycle when it would wake the layer, before it under
     * a tracer (the match is traced), and otherwise carries on as the
     * receiver or forwarder it becomes. A chip past its address with
     * no role (it missed the reserved cycle, e.g. powered up
     * mid-transaction) latches like a forwarder and skips as one. 0
     * elsewhere: unpowered, interjection wanted, edge counts out of
     * step, or a layer domain still waking.
     */
    std::uint64_t cyclesSkippable(const Message *msg,
                                  std::uint64_t first) const;

    /** The message on the wire while this controller transmits. */
    const Message *
    transmitting() const
    {
        return role_ == Role::Tx && !txQueue_.empty()
                   ? &txQueue_.front().msg
                   : nullptr;
    }

    /** Wire cycles (address included) a transmitter has driven in
     *  this transaction. */
    std::uint64_t cyclesDriven() const { return txCyclesDriven_; }

    /**
     * Do what the cycles of @p win would have done: a transmitter
     * counts its drives (and, past its address, drives its extra
     * lanes at the levels the skip left them), a chip latching the
     * address shifts in its bits and resolves at the last, a receiver
     * latches and counts every data bit, a forwarder counts.
     */
    void skipCycles(const SkipWindow &win);

  private:
    enum class Phase : std::uint8_t {
        Idle,     ///< No transaction in progress.
        Active,   ///< Arbitration / address / data phases.
        IntjWait, ///< Holding CLK, waiting for the interjection.
        Control,  ///< Post-interjection control cycles.
    };

    enum class Role : std::uint8_t { None, Tx, Rx, Fwd };

    struct PendingTx
    {
        Message msg;
        SendCallback cb;
        bool cancelOnArbLoss = false;
        std::size_t retries = 0;
    };

    /** Clear every per-transaction field but the phase and the
     *  arbitration request (onPowerLost, beginTransactionIfNeeded). */
    void resetTransaction();

    /** Schedule @p tx's completion callback, if any, with @p status
     *  and @p bytesSent, after the current event. */
    void reportTx(PendingTx &tx, TxStatus status, std::size_t bytesSent);

    // Edge handlers.
    void beginTransactionIfNeeded();
    void handleRising(std::uint32_t r);
    void handleFalling(std::uint32_t f);
    void handleControlRising(std::uint32_t rc);
    void handleControlFalling(std::uint32_t fc);

    // Sub-phase helpers.
    void latchAddressBit(bool bit);
    void resolveAddress();
    /** Whether the complete address in @p latch selects this chip,
     *  decoded into @p addr. */
    bool matches(const AddressLatch &latch, Address &addr) const;
    /** Data cycles a receiver may latch before its overflow abort (0
     *  under a tracer until its first, traced, byte). */
    std::uint64_t rxRoomCycles() const;
    void latchDataBits();
    void commitRxByte(std::uint8_t byte);
    void driveTxCycle(std::uint32_t cycleIdx);
    void requestInterjection(bool endOfMessage);
    void resolveOutcome();
    void beginIdle();
    void postIdleWindow();
    void tryRequest();
    void completeCurrentTx(TxStatus status);
    void requeueAfterArbLoss();
    void stepLayerIfNeeded();

    /** Number of active DATA lanes in this system. */
    int lanes() const { return ctx_.sysCfg.dataLanes; }

    /** Drive lane @p lane (0 = primary DATA) to @p v. */
    void driveLane(int lane, bool v);

    /** Return lane @p lane to forwarding. */
    void forwardLane(int lane);

    /** Sample lane @p lane's input. */
    bool sampleLane(int lane) const;

    /** True when the mediator owns the host chip's DATA output. */
    bool
    mediatorOwnsData() const
    {
        return ctx_.medLink && ctx_.medLink->mediatorOwnsData;
    }

    BusControllerContext ctx_;
    NodeConfig cfg_;
    std::uint8_t shortPrefix_ = 0;
    bool arbBreakSelf_ = false;

    // TX queue.
    std::deque<PendingTx> txQueue_;
    bool txArmed_ = false;

    // Per-transaction state.
    Phase phase_ = Phase::Idle;
    Role role_ = Role::None;
    bool requestedThisTxn_ = false;
    bool wonArb_ = false;
    bool priorityDriven_ = false;
    bool wonPriority_ = false;
    bool backedOff_ = false;

    // TX position (wire cycles, address included).
    std::uint32_t txTotalCycles_ = 0;
    std::uint32_t txCyclesDriven_ = 0;

    // RX address / data accumulation.
    AddressLatch addr_;
    bool addressResolved_ = false;
    Address rxAddr_;
    std::vector<std::uint8_t> rxBytes_;
    std::uint32_t rxBitBuffer_ = 0;
    int rxBitsPending_ = 0;
    std::uint64_t dataBitsSeen_ = 0;
    std::uint64_t dataBytesSeen_ = 0;

    // Interjection / control.
    bool iAmInterjector_ = false;
    bool interjectorEom_ = false;
    bool wantInterject_ = false;
    std::uint32_t controlBaseRising_ = 0;
    std::uint32_t controlBaseFalling_ = 0;
    bool ctlBit0_ = false;
    bool ctlBit1_ = false;

    ReceiveCallback rxCb_;
    std::function<void()> irqCb_;
    BusControllerStats stats_;
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_BUS_CONTROLLER_HH
