/**
 * @file
 * MBusSystem: builds and operates a complete MBus ring.
 *
 * Owns the ring segments (Nets), the nodes, the mediator, the energy
 * ledger, and the live system configuration. Node 0 hosts the
 * mediator, mirroring the paper's systems where the mediator is a
 * block on the processor chip.
 *
 * Switching energy is counted, not charged per edge: each ledger cell
 * prices one event -- a segment edge (edge epochs of the slot's CLK,
 * DATA and lane segments), half a forwarding cycle (the chip's local
 * CLK epoch), a latched RX bit, a driven TX cycle, a mediator cycle
 * -- and ledger() sets each cell to its counter times its unit
 * (SwitchingEnergyModel::priceSlot, shared with the message-level
 * model).
 *
 * A ring may also hold one software member (Sec 6.6): the ported
 * libmbus FSM on four GPIOs (firmware::FirmwareNode) in the last ring
 * slot, after every chip. Its ISR response latency is charged to the
 * ring budget (SystemConfig::extraRingLatency), which throttles the
 * whole mixed ring to a fraction of its clock envelope.
 *
 * The system also decides the mediator's fast-forward
 * (SystemConfig::fastForward, skipCycles()): from a transaction's
 * reserved cycle on, once the ring is steady, whole cycles -- the rest
 * of the address and the data after it, in one window -- are skipped
 * in closed form: chips (address latches and matches included), the
 * mediator's length watchdog, the software member's ISR counters and
 * FSM, and segment levels and counters land exactly where the skipped
 * edges would have put them, so the energy they price does too -- up
 * to the next protocol decision or the next event the ring does not
 * own. The ring's own bus watchdog (armWatchdog) is answered across a
 * skip in closed form rather than bounding it. A chip whose match
 * wakes its layer, and a software member the address makes a
 * receiver, end a window at their last address cycle; a receiving,
 * jittered or edge-merging software member keeps every edge past it;
 * waveform capture turns it off for good.
 *
 * runUntilIdle(), sendAndWait() and the enumeration settle are
 * Simulator::runUntil() waits: the mediator's sleep event, every bus
 * controller and the software member poke at each step that may
 * leave the ring idle (so do a send's completion and the enumeration
 * handlers), and the wait checks its condition after that event.
 */

#ifndef MBUS_BUS_SYSTEM_HH
#define MBUS_BUS_SYSTEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "firmware/firmware_node.hh"
#include "mbus/config.hh"
#include "mbus/data_phase.hh"
#include "mbus/mediator.hh"
#include "mbus/message.hh"
#include "mbus/node.hh"
#include "power/energy.hh"
#include "power/switching.hh"
#include "sim/simulator.hh"
#include "sim/vcd.hh"

namespace mbus {
namespace bus {

/**
 * A complete MBus system: ring, nodes, mediator, energy accounting.
 */
class MBusSystem
{
  public:
    /**
     * @param sim The simulator this system lives in.
     * @param cfg System-wide parameters.
     */
    MBusSystem(sim::Simulator &sim, SystemConfig cfg = {});

    MBusSystem(const MBusSystem &) = delete;
    MBusSystem &operator=(const MBusSystem &) = delete;
    ~MBusSystem();

    /**
     * Add a chip to the ring (in ring order). The first node added
     * hosts the mediator. Must be called before finalize().
     */
    Node &addNode(NodeConfig cfg);

    /**
     * Put the software member in the ring's last slot, after every
     * chip; its segments are named @p name + ".CLK_OUT"/".DATA_OUT".
     * Charges its ISR response latency to the ring budget. At most
     * one, single-lane rings only; must be called before finalize().
     */
    void addSoftMember(firmware::FirmwareNode::Config cfg,
                       std::string name);

    /** Build segments, wire nodes, create the mediator. */
    void finalize();

    // --- Access -----------------------------------------------------

    /** Hardware chips on the ring (node(i) is valid below this). */
    std::size_t nodeCount() const { return nodes_.size(); }
    /** Ring positions: the chips plus any software member. */
    std::size_t
    ringSize() const
    {
        return nodes_.size() + (softCfg_ ? 1 : 0);
    }
    Node &node(std::size_t i) { return *nodes_.at(i); }
    const Node &node(std::size_t i) const { return *nodes_.at(i); }
    Node *nodeByName(const std::string &name);

    Mediator &mediator() { return *mediator_; }

    /** The software member (slot ringSize() - 1), or nullptr on a
     *  hardware-only ring. */
    firmware::FirmwareNode *softMember() { return soft_.get(); }

    /** The energy ledger, every cell priced up to date. */
    const power::EnergyLedger &
    ledger() const
    {
        priceEnergy();
        return ledger_;
    }
    const power::SwitchingEnergyModel &energy() const { return energy_; }
    SystemConfig &config() { return cfg_; }
    sim::Simulator &simulator() { return sim_; }

    /** CLK segment driven by ring position @p i. */
    wire::Net &clkSegment(std::size_t i) { return *clkSegs_.at(i); }
    /** DATA segment (lane 0) driven by ring position @p i. */
    wire::Net &dataSegment(std::size_t i) { return *dataSegs_.at(i); }
    /** Extra-lane DATA segment driven by node @p i. */
    wire::Net &laneSegment(int lane, std::size_t i);

    // --- Convenience operation -----------------------------------------

    /**
     * Send from @p fromNode and run the simulator until the send
     * completes (or @p timeout passes).
     *
     * @return the result, or std::nullopt on timeout.
     */
    std::optional<TxResult> sendAndWait(std::size_t fromNode, Message msg,
                                        sim::SimTime timeout =
                                            sim::kTimeForever);

    /** True when the mediator sleeps and no member (software member
     *  included) is mid-transaction or has a send queued. */
    bool idle() const;

    /** Run the simulator until the bus is idle everywhere. */
    bool runUntilIdle(sim::SimTime timeout = sim::kTimeForever);

    /**
     * Run-time enumeration (Sec 4.7): broadcast ENUMERATE commands
     * from @p enumeratorNode until no unassigned node replies.
     * The enumerator must already hold a short prefix.
     *
     * @return the number of prefixes assigned.
     */
    int enumerateAll(std::size_t enumeratorNode);

    /**
     * Broadcast a configuration message (channel 1) updating the
     * mediator's maximum message length (Sec 7).
     */
    void broadcastMaxMessageLength(std::size_t enumeratorNode,
                                   std::uint32_t bytes);

    /**
     * System-software bus rescue: drive a mediator interjection that
     * resets every bus controller, then wait for idle (Sec 4.9).
     *
     * @return true once the bus is idle again.
     */
    bool recoverBus(sim::SimTime timeout = sim::kSecond);

    /**
     * System-software bus watchdog: every @p epochs bus periods, poll
     * the ring tail's CLK edge epoch, idle() and the mediator's sleep
     * flag, and rescue the bus (Mediator::forceInterjection) when two
     * consecutive polls find it busy with CLK frozen, or with the
     * mediator asleep at both. Arms once; 0 is a no-op.
     */
    void armWatchdog(std::uint32_t epochs);

    /** Bus rescues the watchdog forced. */
    std::uint64_t busResets() const { return busResets_; }

    /**
     * Mutable priority (Sec 7): assign the arbitration ring break to
     * node @p idx. Requires SystemConfig::useNodeArbBreak.
     */
    void setArbBreakNode(std::size_t idx);

    /**
     * The fair scheme sketched in Sec 7 (credited to Campbell and
     * Horowitz): rotate the arbitration break to the next node after
     * every transaction. Requires SystemConfig::useNodeArbBreak.
     */
    void enableRotatingPriority();

    /** Attach a trace recorder to every ring segment. */
    void attachTrace(sim::TraceRecorder &recorder);

    /** Listener virtual calls across all ring segments (the metric
     *  muting reduces). */
    std::uint64_t dispatchCalls() const;

    /**
     * Aggregate every controller's counters, the mediator stats, the
     * energy ledger, and leakage into one human-readable report.
     */
    void dumpStats(std::ostream &os) const;

    /** Idle leakage integrated over simulated time so far (J). */
    double idleLeakageJ() const;

    /** Theoretical max bus clock for this ring in our conservative
     *  timing model (data must settle within the latch half-period;
     *  analysis/frequency.hh relates it to the paper's Fig 9). */
    double maxSafeClockHz() const;

    /** Fastest clock a config broadcast may set: maxSafeClockHz(), or
     *  a fraction of it on a ring with a software member, leaving
     *  headroom for back-to-back CLK/DATA ISRs serializing on its one
     *  CPU. */
    double clockCeilingHz() const;

  private:
    friend class Mediator; // skipCycles()

    bool handleConfigBroadcast(const ReceivedMessage &rx);

    /** Price every ring slot's ledger cells from its counters. */
    void priceEnergy() const;

    // --- Bus watchdog ---------------------------------------------------

    sim::SimTime watchdogInterval() const;
    void scheduleWatchdogPoll(sim::SimTime at);
    void watchdogPoll();

    // --- Fast-forward ----------------------------------------------------
    //
    // Installed with SystemConfig::fastForward, edge trains and
    // chunked dispatch (for the interjection detector's CLK epoch
    // pull) on, and removed for good when a waveform recorder
    // attaches. The mediator asks at each falling tick past the
    // reserved cycle; a steady ring means at most one transmitter (a
    // chip or the software member), every chip past the reserved
    // cycle (still latching the address in step with the
    // transmitter's, receiving or forwarding; a chip with no role past
    // its address forwards), the member forwarding or transmitting
    // with its ISRs retired, every chip forwarding except where the
    // mediator drives CLK and the transmitter drives its lanes (lane 0
    // alone in its address), and every segment settled, unforced and
    // undamaged at its lane's level. With no transmitter (it browned
    // out mid-message) every lane holds one level all around the ring
    // until the mediator's length watchdog ends the phantom message.
    // Arbitration, end of message, interjection, control and all power
    // gating stay on edges.
    //
    // The entry test names the transmitter tx by ring slot
    // (ringSize() for none) and the window's wire position; pricing
    // and the skip take them from there.

    /**
     * The mediator's one call at a falling tick past the reserved
     * cycle, of half period @p half, with its queued ring check
     * @p check: skip whole cycles up to the next protocol decision
     * (its length watchdog's included), the earliest queued event the
     * ring neither owns nor answers (the watchdog's poll), the end of
     * the run and 2^31, if the skip saves kernel events, retrying a
     * window that does not pay at the poll.
     *
     * @return the cycles skipped (0: drive the tick).
     */
    std::uint32_t skipCycles(sim::SimTime half,
                             const sim::EventHandle &check);

    /** Entry test: whole cycles of half period @p half every member
     *  and segment could skip from this clock-high point (0 when the
     *  ring is not steady), the transmitter @p tx, and the window's
     *  wire position in @p win. */
    std::uint64_t cyclesSkippable(sim::SimTime half, std::size_t &tx,
                                  SkipWindow &win) const;

    /** Kernel events the ring's segments, members and mediator would
     *  retire on edges over @p win, less what skipping it costs in
     *  restarted trains (at most 0 when a skip saves nothing), each
     *  priced with sim::TrainRider's rule. A long skip may get a
     *  positive lower bound instead: enough to decide. */
    double skipSavings(std::size_t tx, const SkipWindow &win);

    /** Advance every segment, chip, the member and the mediator's
     *  watchdog across @p win, of half period @p half, starting with
     *  the falling edge due now, exactly as their edges would. */
    void skipWindow(std::size_t tx, const SkipWindow &win,
                    sim::SimTime half);

    // A watchdog poll inside a skip window finds the bus busy, the
    // mediator awake and the tail CLK segment's epoch a known
    // function of time, so the skip answers every poll it passes: it
    // stops short only of a first poll that would rescue, and moves
    // the poll chain and the wdLast* state to where the last passed
    // poll left them.

    /** The tail CLK segment's edge epoch a poll at @p t, inside a
     *  skip window of half period @p half starting now, reads: every
     *  skipped edge delivered before @p t. A delivery at @p t itself
     *  was driven after the poll was scheduled, one interval
     *  earlier, so it comes after the poll. */
    std::uint64_t tailClkEpochAt(sim::SimTime t, sim::SimTime half) const;

    /** Whole cycles a skip may run before a watchdog poll it cannot
     *  answer. */
    std::uint64_t watchdogRoom(sim::SimTime half) const;

    /** Answer every watchdog poll due before @p end. */
    void passWatchdogPolls(sim::SimTime end, sim::SimTime half);

    /** A window's lane stream (cycle c, lane l at bit c w + l of
     *  *lanes, from cycle first), each lane's entry level and its
     *  transitions: the transmitter's payload past its address; in its
     *  address, windowLanes_ carrying the address on lane 0 and every
     *  other lane's level, then the payload; with no transmitter,
     *  windowLanes_ holding every lane's level. */
    struct Stretch
    {
        const std::vector<std::uint8_t> *lanes = nullptr;
        std::uint64_t first = 0;
        std::array<bool, kMaxDataLanes> start{};
        LaneRun run;
    };
    Stretch stretch(std::size_t tx, const SkipWindow &win);

    /** When a DATA edge reaches the software member's DIN in a data
     *  phase transmitted by ring slot @p tx (see
     *  FirmwareNode::cyclesSkippable). */
    sim::SimTime softDinDelay(std::size_t tx) const;

    /** Hand @p f every ring segment: all CLK segments, then all DATA
     *  segments, then each extra lane's -- the VCD signal order. */
    template <class F>
    void
    forEachSegment(F f) const
    {
        for (auto &seg : clkSegs_)
            f(*seg);
        for (auto &seg : dataSegs_)
            f(*seg);
        for (auto &lane : laneSegs_)
            for (auto &seg : lane)
                f(*seg);
    }

    sim::Simulator &sim_;
    SystemConfig cfg_;
    mutable power::EnergyLedger ledger_; ///< Priced on read.
    power::SwitchingEnergyModel energy_;

    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<wire::Net>> clkSegs_;
    std::vector<std::unique_ptr<wire::Net>> dataSegs_;
    std::vector<std::vector<std::unique_ptr<wire::Net>>> laneSegs_;
    std::optional<firmware::FirmwareNode::Config> softCfg_;
    std::string softName_;
    std::unique_ptr<firmware::FirmwareNode> soft_;
    std::unique_ptr<Mediator> mediator_;
    std::unique_ptr<MediatorHostLink> medLink_;
    bool finalized_ = false;

    // Enumeration bookkeeping (the settle wait ends once the probe
    // completed and a reply came in).
    bool enumReplySeen_ = false;
    std::uint32_t lastEnumFullPrefix_ = 0;
    bool enumProbeDone_ = false;
    std::uint64_t enumProbe_ = 0; ///< Current probe's generation.

    /** A window's lane stream when it is not the payload (stretch()
     *  fills it). */
    std::vector<std::uint8_t> windowLanes_;

    // Bus watchdog: the queued poll, and what the last poll read.
    std::uint32_t watchdogEpochs_ = 0;
    std::uint64_t busResets_ = 0;
    sim::EventHandle wdPoll_;
    sim::SimTime wdPollAt_ = 0;
    std::uint64_t wdLastProgress_ = 0;
    bool wdLastBusy_ = false;
    bool wdLastAsleep_ = false;

    // Mutable-priority bookkeeping.
    std::size_t arbBreakIdx_ = 0;
    bool rotatingPriority_ = false;
};

/** Well-known config-channel command bytes. */
enum : std::uint8_t {
    kConfigCmdMaxLength = 0x01,
    kConfigCmdClockHz = 0x02,
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_SYSTEM_HH
