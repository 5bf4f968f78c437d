/**
 * @file
 * The pluggable bus-backend layer.
 *
 * The paper's central argument is comparative: MBus against I2C
 * variants and against a bit-banged software implementation, on the
 * same workloads (Secs 2.1, 6.2, 6.6, Table 1). BusBackend is the
 * seam that makes that comparison runnable: one interface carrying
 * the application-visible bus operations (send / interject / sleep /
 * wake), delivery and terminal-status callbacks, and the per-node
 * energy/latency taps the sweep and workload reducers consume.
 *
 * Three classes implement it, behind the five BackendKind labels:
 *
 *  - MbusBackend wraps one simulated MBus ring (MBusSystem). Under
 *    Mbus it is the hardware ring; its behaviour -- stats and VCD
 *    bytes -- is identical to driving the system directly, a
 *    property the backend determinism tests pin against
 *    pre-refactor captures. Under Bitbang and Firmware the ring's
 *    last slot is the four-GPIO software member (the ported libmbus
 *    FSM) whose ISR latency throttles the whole ring (Sec 6.6).
 *  - MbusMessageBackend computes fault-free classic MBus traffic a
 *    whole message at a time; the sweep layer picks it per cell in
 *    place of the edge-level Mbus ring.
 *  - I2cBackend (I2cStd, I2cOracle) promotes the analytic I2cModel
 *    (standard or oracle pull-up sizing) into a transactional
 *    event-kernel bus with START/STOP framing, addressing overhead,
 *    clock stretching for sleeping receivers, and pull-up energy
 *    charged per SCL cycle through the energy ledger.
 *
 * Determinism contract: a backend driven by a pre-drawn plan is a
 * pure function of (params, plan); all scheduling rides the owning
 * simulator, so sweep cells stay bit-replayable on any thread count.
 */

#ifndef MBUS_BACKEND_BACKEND_HH
#define MBUS_BACKEND_BACKEND_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mbus/message.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"
#include "sim/vcd.hh"

namespace mbus {
namespace backend {

/** The bus fabrics a scenario can run on. */
enum class BackendKind : std::uint8_t {
    Mbus,      ///< Simulated hardware MBus ring (the default).
    I2cStd,    ///< Transactional I2C, fixed 300 ns rise sizing.
    I2cOracle, ///< Transactional I2C, oracle pull-up sizing (Sec 6.2).
    Bitbang,   ///< Mixed ring with a four-GPIO software member
               ///< (the ported libmbus FSM, firmware::FirmwareNode).
    Firmware,  ///< The same mixed ring and engine as Bitbang, under
               ///< its own fabric label.
};

/** @return a short printable name ("mbus", "i2c_std", ...). */
const char *backendKindName(BackendKind k);

/** Parse a backendKindName() string. @return false on no match. */
bool backendKindFromName(const std::string &name, BackendKind &out);

/** Full prefix of node i on every fabric: kFullPrefixBase + i. */
constexpr std::uint32_t kFullPrefixBase = 0x500u;

/** A hop delay of @p ns nanoseconds in simulator ticks, rounded. */
inline sim::SimTime
hopDelayFromNs(double ns)
{
    return static_cast<sim::SimTime>(ns * 1000.0 + 0.5);
}

/** The physical/system parameters every backend builds from (the
 *  backend-relevant subset of a sweep ScenarioSpec). */
struct BusParams
{
    int nodes = 3;             ///< Bus population (2..14).
    double busClockHz = 400e3; ///< Requested clock; backends with a
                               ///< tighter envelope clamp it.
    double hopDelayNs = 10.0;  ///< Node-to-node propagation delay.
    double wireCapF = 0.25e-12; ///< Per-segment wire capacitance.
    int dataLanes = 1;          ///< Parallel lanes (MBus only).
    bool powerGated = false;    ///< Power-gate member nodes.
    bool edgeTrains = true;     ///< Kernel edge-train batching.
    bool chunkedDispatch = true; ///< Mute idle listeners.
    bool fastForward = true;     ///< MBus rings: skip steady address
                                 ///< and data cycles in closed form
                                 ///< (exact).
    std::size_t softRxCapacity = 256; ///< Software member's receive
                                      ///< buffer (bitbang/firmware).

    // Software-member knobs (the ISR-latency x bus-clock ceiling
    // sweep); the MBus and I2C kinds ignore them.
    std::uint32_t fwIsrJitterCycles = 0; ///< Extra ISR-entry jitter.
    bool fwMergeMissedEdges = false; ///< Absorb edges while pending
                                     ///< (real-MCU interrupt flags).
    bool allowUnsafeClock = false;   ///< Skip the software-member
                                     ///< clock clamp (ceiling probe).
};

/**
 * Unified delivery tap: every complete application-level message a
 * node receives (mailbox unicasts and user-channel broadcasts alike)
 * is announced as (receiving node, message). System traffic --
 * enumeration and config-channel broadcasts -- is filtered out by
 * the backends, mirroring what the workload engine's per-layer
 * handlers did before the backend seam existed.
 */
using DeliveryHandler =
    std::function<void(std::size_t node, const bus::ReceivedMessage &rx)>;

/**
 * One bus fabric under test: node population, application send/sleep
 * API, delivery callbacks, and the stats taps the reducers read.
 *
 * All time flows through the simulator the backend was built with;
 * backends never block.
 */
class BusBackend
{
  public:
    virtual ~BusBackend() = default;

    virtual BackendKind kind() const = 0;
    virtual std::size_t nodeCount() const = 0;

    /** The clock the fabric actually runs (after any clamping). */
    virtual double busClockHz() const = 0;

    /** The fastest clock this fabric supports at these parameters. */
    virtual double maxSafeClockHz() const = 0;

    // --- Application API ---------------------------------------------

    /** Queue @p msg for transmission from @p node; @p cb receives the
     *  terminal status (exactly one per send). */
    virtual void send(std::size_t node, bus::Message msg,
                      bus::SendCallback cb) = 0;

    /** Third-party interjection / abort of the in-flight transfer
     *  (a no-op on fabrics without an equivalent mechanism). */
    virtual void interject(std::size_t node) = 0;

    /** Gate the node's gateable domain (no-op on always-on fabrics
     *  or non-gated populations). */
    virtual void sleep(std::size_t node) = 0;

    /** Locally wake the node. */
    virtual void wake(std::size_t node) = 0;

    /** Queued-but-unfinished transmissions at @p node. */
    virtual std::size_t pendingTx(std::size_t node) const = 0;

    /**
     * Broadcast a clock-retiming request from @p node (MBus: a
     * config-channel message; I2C: a general-call message). The new
     * clock takes effect fabric-wide; @p done fires at the terminal
     * status of the carrying message.
     */
    virtual void retime(std::size_t node, double clockHz,
                        std::function<void()> done) = 0;

    /** The unicast address application traffic uses to reach
     *  @p node. @p fullAddressing selects 32-bit MBus addresses
     *  (fabrics without the distinction ignore it). */
    virtual bus::Address unicastAddress(std::size_t node,
                                        bool fullAddressing,
                                        std::uint8_t fuId) const = 0;

    // --- Fault injection ---------------------------------------------
    //
    // Primitive perturbations the fault engine (src/fault/) drives.
    // Defaults are no-ops so fabrics opt in per primitive; wire-level
    // ops map to transaction-level damage on fabrics without Nets
    // (I2C). Nothing here runs unless a FaultSpec armed it, which is
    // what keeps the no-fault goldens byte-identical.

    /** Hold node @p node's output segment on @p lane (0 = CLK,
     *  1 = DATA, 2+ = extra lanes) at @p level. Nestable. */
    virtual void injectWireForce(std::size_t node, int lane,
                                 bool level)
    {
        (void)node, (void)lane, (void)level;
    }

    /** Undo one injectWireForce on (node, lane). */
    virtual void injectWireRelease(std::size_t node, int lane)
    {
        (void)node, (void)lane;
    }

    /** @p pulses sub-hop-delay pulses on (node, lane). */
    virtual void injectGlitch(std::size_t node, int lane, int pulses)
    {
        (void)node, (void)lane, (void)pulses;
    }

    /** Swallow the next @p pulses whole pulses on (node, lane). */
    virtual void injectEdgeDrop(std::size_t node, int lane,
                                int pulses)
    {
        (void)node, (void)lane, (void)pulses;
    }

    /** Multiplicative drift on the fabric clock; exactly 1.0
     *  restores the nominal tick bit-exactly. */
    virtual void setClockDriftFactor(double factor) { (void)factor; }

    /** Cut @p node's gateable power domains mid-transaction:
     *  in-flight TX state is lost and queued sends terminate with
     *  TxStatus::Reset. */
    virtual void brownout(std::size_t node) { (void)node; }

    /** Restore a browned-out node. */
    virtual void brownoutRecover(std::size_t node) { (void)node; }

    /**
     * Arm the fabric watchdog: if the bus is busy but makes no CLK
     * progress for @p epochs bus epochs, force-reset it through the
     * fabric's control path (MBus: a mediator rescue interjection +
     * general error). Re-arms itself until the run ends.
     */
    virtual void armWatchdog(std::uint32_t epochs) { (void)epochs; }

    /** Watchdog force-resets issued so far. */
    virtual std::uint64_t busResets() const { return 0; }

    // --- Delivery tap -------------------------------------------------

    /** Install (or clear, with nullptr) the unified delivery tap. */
    virtual void setDeliveryHandler(DeliveryHandler h) = 0;

    // --- Run management ----------------------------------------------

    /** Run the simulator until the fabric is idle everywhere. */
    virtual bool runUntilIdle(sim::SimTime timeout) = 0;

    /** Attach a waveform recorder to the fabric's signals. */
    virtual void attachTrace(sim::TraceRecorder &recorder) = 0;

    // --- Stats taps ---------------------------------------------------

    /** Total switching energy charged so far, joules (sim scale). */
    virtual double switchingJ() const = 0;

    /** Idle leakage integrated over simulated time so far, joules. */
    virtual double leakageJ() const = 0;

    /** Switching energy attributed to @p node so far, joules. */
    virtual double nodeEnergyJ(std::size_t node) const = 0;

    /** Seconds @p node's gateable domain has spent powered. */
    virtual double poweredSeconds(std::size_t node) const = 0;

    /** Wire transitions @p node has driven onto the fabric. */
    virtual std::uint64_t nodeEdges(std::size_t node) const = 0;

    /** Bus clock cycles generated so far. */
    virtual std::uint64_t clockCycles() const = 0;

    /** Listener virtual calls the fabric's nets have made so far
     *  (the dispatch-cost metric chunked dispatch reduces). Fabrics
     *  without Net-based wiring report 0, except the message-level
     *  MBus model, which counts its delivery and completion calls. */
    virtual std::uint64_t dispatchCalls() const { return 0; }
};

/** Build a backend of @p kind inside @p sim. Fatal on out-of-range
 *  parameters (mirrors runScenario's validation). */
std::unique_ptr<BusBackend> makeBackend(BackendKind kind,
                                        sim::Simulator &sim,
                                        const BusParams &params);

/** The config-channel clock-retiming broadcast carrying @p hz
 *  (already clamped to the fabric's envelope by the caller) -- the
 *  one wire encoding every MBus-framed fabric shares. */
bus::Message makeRetimeMessage(std::uint32_t hz);

} // namespace backend
} // namespace mbus

#endif // MBUS_BACKEND_BACKEND_HH
