/**
 * @file
 * Configuration for an MBus system and for individual nodes.
 */

#ifndef MBUS_BUS_CONFIG_HH
#define MBUS_BUS_CONFIG_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "mbus/protocol.hh"
#include "sim/types.hh"

namespace mbus {
namespace bus {

/** Maximum edges per net-level speculative train (and per software
 *  member's ISR train) under SystemConfig::edgeTrains. */
constexpr std::uint32_t kTrainMaxEdges = 32;

/** Half-period edges per mediator tick/ring-check train chunk under
 *  SystemConfig::edgeTrains. */
constexpr std::uint32_t kTickTrainEdges = 64;

/** System-wide parameters (the mediator's knobs). */
struct SystemConfig
{
    /** Bus clock frequency. Run-time tunable 10 kHz .. 6.67 MHz in
     *  the paper's implementation; default 400 kHz (Sec 6.3.2). */
    double busClockHz = 400e3;

    /** Fault injection: multiplicative drift on the mediator tick
     *  (oscillator wander). Exactly 1.0 -- the IEEE-exact identity
     *  -- when no drift window is active, so the default changes no
     *  byte of any schedule. */
    double clockDriftFactor = 1.0;

    /** Node-to-node propagation delay (spec max 10 ns, Sec 6.1). */
    sim::SimTime hopDelay = 10 * sim::kNanosecond;

    /** Watchdog limit on message payload length (Sec 7, >= 1 kB). */
    std::size_t maxMessageBytes = kMinMaxMessageBytes;

    /** Number of DATA lanes (1 = standard MBus; Sec 7 parallel MBus). */
    int dataLanes = 1;

    /**
     * Inter-chip wire capacitance per ring segment, farads. Negative
     * means "use the Sec 6.2 conservative model" (power::kWireCapF);
     * parameter sweeps set it explicitly to study longer wires.
     */
    double wireCapF = -1.0;

    /**
     * Extra round-trip latency beyond hopDelay * nodes, e.g. the ISR
     * response time of a bitbanged software member (Sec 6.6). The
     * mediator's ring-continuity checks and the safe-clock limit both
     * account for it.
     */
    sim::SimTime extraRingLatency = 0;

    /**
     * Batched edge delivery: coalesce rhythmic same-wire edge runs
     * (the forwarded CLK broadcast, the mediator's own tick and
     * ring-continuity checks) into single kernel edge-train events.
     * Deliveries, VCD bytes and all protocol semantics are identical
     * to the discrete path -- trains confirm edge-by-edge and split
     * on any glitch, interjection or retiming -- only the kernel
     * events/bit drops. Off switches every train path at once (A/B
     * equivalence testing, debugging).
     */
    bool edgeTrains = true;

    /**
     * Chunked dispatch: mute a wire controller's input subscription
     * while it drives (its FSM ignores those edges), and have the
     * interjection detector pull the CLK edge epoch instead of hearing
     * every CLK edge. Never changes scheduling, delivery times, VCD
     * bytes or any outcome stat -- only the listener virtual-call
     * count drops. Off restores the fully per-edge dispatch path (A/B
     * testing). Switching energy needs no listener either way: the
     * ring counts it (see MBusSystem::ledger()).
     */
    bool chunkedDispatch = true;
    /**
     * Address- and data-phase fast-forward (edge trains and chunked
     * dispatch on, no waveform recorder; a software member joins in
     * while it forwards or transmits): from a transaction's reserved
     * cycle on, once the ring is steady, the mediator skips whole
     * cycles in closed form -- every FSM counter, address latch, ISR
     * count, net level, transition count and edge epoch, and so every
     * energy cell they price, lands exactly where the skipped edges
     * would have put it -- up to two cycles before the last, the
     * receiver's capacity point, the last address cycle of a receiver
     * whose layer must wake, the length limit, or the earliest pending
     * event the ring does not own, when the skip saves kernel events.
     * Only kernel costs change. Off simulates every edge.
     */
    bool fastForward = true;

    /**
     * Mutable topological priority (Sec 7 discussion): when true,
     * the arbitration ring break is provided by a designated member
     * node's always-on wire logic instead of the mediator, making
     * the priority order start just downstream of that node. The
     * paper notes this "would require adding state to the always-on
     * Wire Controller" -- modelled here as exactly one such flag.
     */
    bool useNodeArbBreak = false;
};

/**
 * Fastest safe bus clock for a ring of @p nodes under @p cfg: a bit
 * driven on a falling edge must settle at every receiver before that
 * receiver's rising-edge latch, and the worst-case path wraps the
 * whole ring, so T/2 >= (N + 2) hops (+ any software member's
 * response latency). Infinite on a zero-latency ring.
 */
inline double
safeClockLimitHz(const SystemConfig &cfg, std::size_t nodes)
{
    double hop_s = sim::toSeconds(cfg.hopDelay);
    double half_period_floor =
        hop_s * (static_cast<double>(nodes) + 2.0) +
        sim::toSeconds(cfg.extraRingLatency);
    return 1.0 / (2.0 * half_period_floor);
}

/** Per-node (per-chip) parameters. */
struct NodeConfig
{
    /** Diagnostic name ("processor", "sensor", ...). */
    std::string name;

    /** 20-bit globally unique chip-design prefix. */
    std::uint32_t fullPrefix = 0;

    /**
     * Optional static short prefix (1..14). Nodes without one stay
     * unaddressable by short address until enumeration assigns one.
     */
    std::optional<std::uint8_t> staticShortPrefix;

    /**
     * True for power-aware chips: the bus controller and layer
     * controller are power gated and woken by the bus. False models
     * a power-oblivious chip that keeps everything on (Sec 3
     * "Interoperability").
     */
    bool powerGated = true;

    /** Broadcast channels this node listens to (bit k = channel k). */
    std::uint16_t broadcastChannels =
        (1u << kChannelEnumerate) | (1u << kChannelConfig);

    /** RX buffer limit; exceeding it makes the receiver interject. */
    std::size_t rxBufferLimit = std::numeric_limits<std::size_t>::max();
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_CONFIG_HH
