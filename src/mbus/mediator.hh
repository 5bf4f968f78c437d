/**
 * @file
 * The MBus mediator (Sec 4.2): clock generation and bus mediation.
 *
 * Every MBus system has exactly one mediator. It is the only
 * component that must self-start from a fully gated state: a falling
 * edge on its DATA input wakes it, and it begins toggling CLK. It
 * does not forward DATA during arbitration (creating the ring break
 * that makes arbitration topological), generates the interjection
 * sequence (toggling DATA while CLK is held high), signals general
 * errors, enforces the runaway-message watchdog (Sec 7), and returns
 * the bus to idle after every transaction.
 *
 * The mediator is hosted on one chip (the processor in the paper's
 * systems) and drives that chip's output wire controllers.
 *
 * From the reserved cycle on it may skip whole cycles: at each
 * falling tick past it the ring decides (MBusSystem::skipCycles: the
 * entry test, the foreign-event bound, pricing and the skip of chips,
 * segments, software member and this mediator's length watchdog
 * alike, which bounds the window at its length limit and latches the
 * skipped address bits and data cycles in closed form), then it
 * resumes clocking at the far end.
 */

#ifndef MBUS_BUS_MEDIATOR_HH
#define MBUS_BUS_MEDIATOR_HH

#include <cstdint>

#include "mbus/address.hh"
#include "mbus/bus_controller.hh"
#include "mbus/config.hh"
#include "mbus/data_phase.hh"
#include "mbus/wire_controller.hh"
#include "sim/event_queue.hh"
#include "sim/simulator.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {

/** Mediator statistics. */
struct MediatorStats
{
    std::uint64_t transactions = 0;
    std::uint64_t interjections = 0;   ///< Ring-break interjections.
    std::uint64_t generalErrors = 0;   ///< No-winner null transactions.
    std::uint64_t watchdogKills = 0;   ///< Runaway messages terminated.
    /** Bus cycles generated (each prices one mediatorPerCycle() of
     *  the host's Mediator energy). */
    std::uint64_t clockCycles = 0;
};

class MBusSystem;

/**
 * The mediator node function.
 */
class Mediator : private wire::EdgeListener
{
  public:
    struct Context
    {
        sim::Simulator &sim;
        SystemConfig &cfg; ///< Live system config (mutable: Sec 7).
        wire::Net &clkIn;  ///< Host chip CLK input (ring tail).
        wire::Net &dataIn; ///< Host chip DATA input (ring tail).
        WireController &clkCtl;  ///< Host chip CLK output mux.
        WireController &dataCtl; ///< Host chip DATA output mux.
        std::size_t ringSize = 0; ///< Chips (= segments) in the ring.
        MediatorHostLink &link;
    };

    explicit Mediator(Context ctx);

    /** Arm the wakeup detector; call once after system wiring. */
    void arm();

    /** Live statistics. */
    const MediatorStats &stats() const { return stats_; }

    /** Watchdog limit (payload bytes); clamped to >= 1 kB minimum. */
    void setMaxMessageBytes(std::size_t bytes);
    std::size_t maxMessageBytes() const { return maxMessageBytes_; }

    /** True while no transaction is in flight. */
    bool asleep() const { return state_ == State::Asleep; }

    /**
     * On-chip interjection request from the host member controller
     * (which cannot break the CLK ring it shares with us).
     */
    void hostInterjectionRequest();

    /**
     * Rescue interjection (Sec 4.9: interjections are "used both for
     * extreme cases, such as rescuing a hung bus," ...). Generates a
     * full interjection + general-error control sequence that resets
     * every bus controller on the ring, from any mediator state.
     * Host system software invokes this when its watchdog concludes
     * the bus is wedged (e.g. after sustained stuck-at faults).
     */
    void forceInterjection();

    /** Bus clock period currently in use. */
    sim::SimTime period() const;

    /** Install (or remove, with nullptr) the fast-forward of @p ring;
     *  it runs only on the edge-train clock path. */
    void setFastForward(MBusSystem *ring) { ring_ = ring; }

    /** Whole cycles a window from wire cycle @p first of the
     *  transmitter's @p msg (nullptr: none) may skip before the length
     *  watchdog's kill; 0 when the watchdog's address latch is out of
     *  step with the transmitter's address. */
    std::uint64_t latchableCycles(const Message *msg,
                                  std::uint64_t first) const;

    /** The watchdog's latches over the cycles of @p win: the address
     *  bits it shifts in, then the data cycles it counts. */
    void skipLatches(const SkipWindow &win);

    /** Callback fired each time the bus returns to idle (used by
     *  rotating-priority policies, Sec 7). */
    void
    setOnIdle(std::function<void()> fn)
    {
        onIdle_ = std::move(fn);
    }

  private:
    enum class State : std::uint8_t {
        Asleep,       ///< Fully gated; DATA-fall detector armed.
        WakePending,  ///< Self-start delay running.
        Clocking,     ///< Normal clock generation (arb/addr/data).
        Interjecting, ///< CLK parked high, toggling DATA.
        Control,      ///< Clocking the control cycles.
    };

    /** Why the current interjection was generated. */
    enum class InterjectReason : std::uint8_t {
        RingBreak, ///< A node stopped forwarding CLK (EoM / abort).
        NoWinner,  ///< Null transaction: nobody won arbitration.
        Watchdog,  ///< Message exceeded the maximum length.
        Rescue,    ///< Host-requested bus rescue.
    };

    void onNetEdge(wire::Net &net, bool value) override;
    void onDataFall();
    void startClocking();
    void driveClockEdge();
    void afterRisingEdge(std::uint32_t r);
    void watchdogLatch();
    void scheduleRingCheck(bool expected);

    // --- Edge-train clock generation (SystemConfig::edgeTrains) ----
    //
    // With trains on, the per-half-period self-reschedule chain and
    // the one-closure-per-edge ring checks become two kernel edge
    // trains per chunk of kTickTrainEdges edges: a self tick train
    // delivering counted clock edges to onTrainTick(), and a
    // ring-check train delivering alternating expected levels to
    // onRingCheck() one ring flush after each edge. Per-edge protocol
    // work (watchdog sampling, arbitration handover, interjection
    // entry) is unchanged; both trains are cancelled wherever the
    // discrete path bumped checkEpoch_.

    /** True when this system runs the train-based clock path. */
    bool useTrains() const;

    /** One clock edge: drive, count, per-edge protocol work. */
    void onTickEdge(bool level);

    /** Tick-train delivery: onTickEdge plus chunk refill. */
    void onTrainTick(bool level);

    /** Ring-continuity check (train flavor of scheduleRingCheck). */
    void onRingCheck(bool expected);

    /** Arm the next tick + ring-check train chunk from "now". */
    void armTickTrain();

    /**
     * Fast-forward at a falling tick past the reserved cycle: have the
     * ring skip whole cycles (MBusSystem::skipCycles), then re-arm the
     * tick and ring-check trains at the far end.
     *
     * @return true when cycles were skipped (the tick is not driven).
     */
    bool fastForward();

    /** Ring flush latency: when a driven edge must be back at clkIn. */
    sim::SimTime ringCheckDelay() const;

    struct TickSink final : sim::EdgeSink
    {
        Mediator *med = nullptr;
        void onEdge(bool value) override { med->onTrainTick(value); }
    };

    struct CheckSink final : sim::EdgeSink
    {
        Mediator *med = nullptr;
        void onEdge(bool value) override { med->onRingCheck(value); }
    };
    void beginInterjection(InterjectReason reason);
    void interjectionToggle();
    void beginControl();
    void driveControlEdge();
    void finishTransaction();

    /** True when this interjection carries a general-error code. */
    bool
    generalError() const
    {
        return reason_ != InterjectReason::RingBreak;
    }

    Context ctx_;
    State state_ = State::Asleep;
    bool armed_ = false;

    // Clock generation.
    bool clkLevel_ = true;
    std::uint32_t rising_ = 0;
    std::uint32_t falling_ = 0;
    sim::EventHandle clockEvent_;
    std::uint64_t checkEpoch_ = 0;

    // Train-based clock generation.
    TickSink tickSink_;
    CheckSink checkSink_;
    sim::EventHandle checkEvent_;
    std::uint32_t tickEdgesLeft_ = 0;
    sim::SimTime armedHalfPeriod_ = 0;

    // Arbitration-phase DATA ownership.
    bool medDrivingData_ = false;

    // Watchdog address/byte tracking.
    AddressLatch addr_;
    std::uint64_t dataCyclesSeen_ = 0;

    // Interjection.
    InterjectReason reason_ = InterjectReason::RingBreak;
    int togglesDriven_ = 0;
    std::uint64_t dataInEdgesDuringIntj_ = 0;

    // Control.
    std::uint32_t ctlRising_ = 0;
    std::uint32_t ctlFalling_ = 0;
    bool ctlBit0_ = false;
    bool ctlBit1_ = false;

    MBusSystem *ring_ = nullptr; ///< Fast-forward installed.

    std::size_t maxMessageBytes_ = kMinMaxMessageBytes;
    std::function<void()> onIdle_;
    MediatorStats stats_;
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_MEDIATOR_HH
