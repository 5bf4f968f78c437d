/**
 * @file
 * The software MBus member (Sec 6.6): four GPIOs, two of them
 * edge-triggered interrupts, running the ported libmbus FSM.
 *
 * "Our implementation is general and requires only four GPIO pins
 * (two must have edge-triggered interrupt support)." The node runs
 * firmware::LibMbus, a 1:1 port of libmbus `bitbang.c`: a GPIO shim
 * maps the firmware's `set_gpio_val` / `get_gpio_val` register
 * accesses onto reads and drives of the node's four nets, every
 * CLKIN/DIN edge becomes an ISR invocation priced through the MSP430
 * cost model (fixed entry cycles plus optional seeded jitter,
 * serialized on one CPU), and `MBus_run()` executes in virtual time
 * off the event kernel.
 * Forwarding is software too, so the node's hop delay is its ISR
 * response time -- which is why the paper's software member tops out
 * near 120 kHz instead of megahertz.
 *
 * Shim contract:
 *
 *  - Edge replay: each input edge is queued as its own ISR with the
 *    level the pin had at that edge; the handler's reads of *its own*
 *    pin return that latched level. Reads of the *other* pin are live
 *    (the instruction executes at retirement time). With
 *    `mergeMissedEdges` set, an edge arriving while that pin's ISR is
 *    still pending is absorbed instead (the real MCU's interrupt flag
 *    is already set), and all reads are live: that is the regime
 *    where the firmware's MBUS_CLOCK_SYNCH_ERROR path becomes
 *    reachable.
 *  - Edge capture listens on the input nets directly, and pin reads
 *    and writes are the nets' value() and drive(): no trampoline
 *    event between an edge and its ISR scheduling.
 *  - The ISR retirement write lands at
 *    max(now, cpuBusyUntil) + cycles(handler), so CPU serialization
 *    stalls, energy (cyclesSpent x 20 pJ), and response latency
 *    follow the cost model.
 *  - CLK ISR retirements ride one speculative kernel edge train while
 *    CLK arrives on a steady, stall-free beat (the sim::TrainRider
 *    every ring segment uses; see Config::isrTrainMaxEdges); every
 *    retirement still fires at its discrete timestamp and tie-break
 *    position.
 *  - Fast-forward (bus::MBusSystem): while the member forwards
 *    (latching the address or past it) or transmits, from the
 *    reserved cycle on -- no ISR pending, CPU idle, no jitter, no
 *    merged edges -- skipped cycles advance it in closed form: two
 *    CLK ISRs per cycle and one DIN ISR per DATA transition in its
 *    stats (stalls included), the FSM's pins, address latch and
 *    transmit position, its CPU busy time, and its CLK ISR train
 *    resumed on the beat. An address that makes it a receiver ends a
 *    window at its last address cycle; a receiving member keeps every
 *    edge.
 *  - `MBus_send` while the FSM is busy is undefined in the firmware
 *    (it stomps the in-flight buffer); this harness queues messages
 *    and only hands the front one to the FSM from IDLE, re-issuing
 *    after a 4x-response-latency idle guard.
 */

#ifndef MBUS_FIRMWARE_FIRMWARE_NODE_HH
#define MBUS_FIRMWARE_FIRMWARE_NODE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "bitbang/cost_model.hh"
#include "firmware/libmbus_port.hh"
#include "mbus/data_phase.hh"
#include "mbus/message.hh"
#include "sim/simulator.hh"
#include "sim/train_rider.hh"
#include "wire/net.hh"

namespace mbus {
namespace firmware {

/** Statistics about the software member. */
struct FirmwareStats
{
    std::uint64_t isrInvocations = 0;
    std::uint64_t cyclesSpent = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t serializationStalls = 0; ///< ISRs that waited for CPU.

    std::uint64_t runWakeups = 0;     ///< MBus_run() dispatches.
    std::uint64_t mergedEdges = 0;    ///< Edges absorbed while pending.
    std::uint64_t requestsIssued = 0; ///< MBus_send requests driven.
    std::uint64_t localErrors = 0;    ///< Non-NO_ERROR completions.
};

/** A software MBus member running the real (ported) libmbus FSM. */
class FirmwareNode : private wire::EdgeListener
{
  public:
    struct Config
    {
        std::uint8_t shortPrefix = 0; ///< Static short prefix.
        std::uint32_t fullPrefix = 0; ///< 20-bit full prefix (0=none).
        bitbang::Msp430CostModel cost;
        std::size_t rxCapacityBytes = 256;

        /** Max extra ISR-entry cycles drawn per invocation (seeded
         *  xorshift; 0 keeps every ISR at its fixed cost). */
        std::uint32_t isrJitterCycles = 0;

        /** Absorb edges that arrive while that pin's ISR is pending
         *  (instead of replaying every edge). Makes the firmware's
         *  clock-synch error reachable; used by the ceiling sweep. */
        bool mergeMissedEdges = false;

        /**
         * Maximum edges per coalesced CLK ISR-retirement train
         * (0 disables coalescing; every retirement is a discrete
         * kernel event). The CLK ISR costs the same cycle count in
         * every FSM state, so rhythmic CLK arrivals retire on the
         * same beat shifted by the constant ISR latency -- a chain
         * the node rides on one speculative kernel train, confirming
         * each retirement at its arrival (identical tie-break
         * position to a discrete schedule) and splitting back to
         * discrete on any stall or off-rhythm arrival. Jitter and
         * mergeMissedEdges (the ceiling-probe regimes) always keep
         * retirements discrete.
         */
        std::uint32_t isrTrainMaxEdges = 32;
    };

    FirmwareNode(sim::Simulator &sim, Config cfg, wire::Net &clkIn,
                 wire::Net &clkOut, wire::Net &dataIn,
                 wire::Net &dataOut);

    /** Queue a message (never stomps an in-flight MBus_send). */
    void send(bus::Message msg, bus::SendCallback cb = nullptr);

    void
    setReceiveCallback(bus::ReceiveCallback cb)
    {
        rxCb_ = std::move(cb);
    }

    const FirmwareStats &stats() const { return stats_; }

    /** Worst ISR path actually exercised, in cycles. */
    int maxObservedPathCycles() const { return maxPathCycles_; }

    /** Messages queued but not yet terminally resolved. */
    std::size_t pendingTx() const { return txQueue_.size(); }

    /** True when the FSM is IDLE and nothing is queued. An ISR or an
     *  MBus_run() pass that leaves the member idle pokes the
     *  simulator (Simulator::runUntil). */
    bool
    idle() const
    {
        return fsm_->state() == MBUS_STATE_IDLE && txQueue_.empty() &&
               !fsm_->eventsPending();
    }

    /** True while a CLK ISR-retirement train has undelivered edges. */
    bool isrTrainPending() const { return isrTrain_.pending(); }

    /** The ported FSM, for tests and introspection. */
    const LibMbus &fsm() const { return *fsm_; }

    // --- Fast-forward (bus::MBusSystem) --------------------------------

    /** The message on the wire while the member transmits it. */
    const bus::Message *
    transmitting() const
    {
        return fsm_->txActive() && !txQueue_.empty()
                   ? &txQueue_.front().msg
                   : nullptr;
    }

    /** Wire cycles (address included) the member has driven in its
     *  current transmission. */
    std::uint64_t cyclesDriven() const { return fsm_->txBitsDriven(); }

    /** CLK ISR response: CLKIN edge to CLKOUT write, no jitter. */
    sim::SimTime clkIsrLatency() const;

    /**
     * Whole cycles of half period @p half the member could skip from
     * this clock-high point past the reserved cycle, the transmitter
     * sending @p msg (nullptr: none) with wire cycle @p first due
     * next: unbounded for a forwarder past its address, up to the
     * address's end for one still latching it (unbounded when the
     * address leaves it forwarding), all but the last two for a
     * transmitter, and 0 when it receives, has an ISR pending or its
     * CPU busy, draws jitter or merges edges, or when a cycle's ISRs
     * would not retire before the next CLK edge reaches it.
     *
     * @param dinDelay When a DATA edge reaches DIN: after the CLK
     *        fall reaches CLKIN (forwarder), or after the member
     *        drives DOUT (transmitter: the echo around the ring).
     */
    std::uint64_t cyclesSkippable(sim::SimTime half, sim::SimTime dinDelay,
                                  const bus::Message *msg,
                                  std::uint64_t first) const;

    /**
     * Do what the cycles of @p win would: two CLK ISRs per cycle and
     * one DIN ISR per DATA transition (@p dinEdges, DIN left at
     * @p din), counted, priced and serialized as the edge path would;
     * the FSM advanced; the CPU busy until the last retirement; and
     * the CLK ISR train resumed on the beat. The first skipped CLK
     * fall reaches CLKIN at @p clkAt.
     */
    void skipCycles(const bus::SkipWindow &win, std::uint64_t dinEdges,
                    bool din, sim::SimTime clkAt, sim::SimTime half,
                    sim::SimTime dinDelay);

  private:
    enum class Pin : std::uint8_t { Clk, Data };

    /** Fixed ISR cost, entry to exit (the CLK body costs the same in
     *  every FSM state). */
    int isrCycles(Pin pin) const;

    /** A steady data cycle's DIN ISR, timed from the CLK fall at
     *  CLKIN: when it retires and whether it waited for the CPU. */
    struct DinSlot
    {
        sim::SimTime done = 0;
        bool stalls = false;
    };
    DinSlot dinSlot(sim::SimTime dinDelay) const;

    void onNetEdge(wire::Net &net, bool value) override;
    void onEdge(Pin pin, bool level);

    void runIsr(Pin pin, bool level);
    void afterIsr();
    void drainRun();
    void pumpSend();

    std::uint8_t readGpio(int gpio);
    void writeGpio(int gpio, std::uint8_t val);
    void onSendDone(std::size_t bytesSent, MBus_error_t err,
                    bool acked);
    void onRecv(std::uint32_t addr, int addrBits,
                const std::uint8_t *buf, std::size_t len,
                MBus_error_t err, bool eom);
    /** The xorshift state jitterDraw() starts from ("firmware"). */
    static constexpr std::uint64_t kJitterSeed = 0x6669726d77617265ULL;
    std::uint32_t jitterDraw();

    /** Pooled retirement sinks: ISR completions ride the kernel's
     *  allocation-free edge path (and, for CLK, its train path)
     *  instead of one heap-allocated closure per ISR. */
    struct ClkRetireSink final : sim::EdgeSink
    {
        FirmwareNode *self = nullptr;
        void onEdge(bool v) override { self->runIsr(Pin::Clk, v); }
    };
    struct DataRetireSink final : sim::EdgeSink
    {
        FirmwareNode *self = nullptr;
        void onEdge(bool v) override { self->runIsr(Pin::Data, v); }
    };

    sim::Simulator &sim_;
    Config cfg_;
    wire::Net &clkIn_;
    wire::Net &clkOut_;
    wire::Net &dataIn_;
    wire::Net &dataOut_;

    ClkRetireSink clkRetire_;
    DataRetireSink dataRetire_;

    std::unique_ptr<LibMbus> fsm_;

    // CPU serialization (one core runs both handlers).
    sim::SimTime cpuBusyUntil_ = 0;
    std::uint32_t clkIsrPending_ = 0;  ///< Scheduled, not yet retired.
    std::uint32_t dataIsrPending_ = 0;

    /** CLK ISR retirements on a steady beat ride one speculative
     *  train (see Config::isrTrainMaxEdges). */
    sim::TrainRider isrTrain_;

    // Latched-level replay view while a handler runs.
    bool inClkIsr_ = false;
    bool inDataIsr_ = false;
    bool latchedClk_ = true;
    bool latchedData_ = true;

    struct PendingTx
    {
        bus::Message msg;
        bus::SendCallback cb;
        std::vector<std::uint8_t> wire; ///< Address byte(s) + payload.
        std::size_t attempts = 0;
    };
    std::deque<PendingTx> txQueue_;
    bool runScheduled_ = false;
    bool retryScheduled_ = false;

    bus::ReceiveCallback rxCb_;
    FirmwareStats stats_;
    int maxPathCycles_ = 0;
    std::uint64_t jitterState_ = kJitterSeed;
};

} // namespace firmware
} // namespace mbus

#endif // MBUS_FIRMWARE_FIRMWARE_NODE_HH
