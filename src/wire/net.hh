/**
 * @file
 * The digital net model underlying the MBus rings.
 *
 * A Net is a single-driver point-to-point wire segment (the MBus ring
 * is a chain of such segments: one chip's OUT pad, the bond wire or
 * TSV, and the next chip's IN pad). Nets have:
 *
 *  - transport-delay semantics: a drive becomes visible to listeners
 *    after the configured propagation delay, and successive edges are
 *    all delivered (no inertial cancellation), which is what lets the
 *    simulator reproduce the momentary drive-to-forward glitches the
 *    paper notes in Figure 5;
 *  - edge listeners (rise / fall / any) used by the controllers;
 *  - transition counters and a delivered-edge epoch; the ring prices
 *    its CV^2 switching energy from the epoch at read time, so no
 *    listener charges energy per edge;
 *  - fault injection (stuck-at forcing) for the fault-tolerance
 *    property tests.
 *
 * Edge fanout is allocation-free: listeners register once through the
 * EdgeListener interface into a compact {pointer, edge-mask} table,
 * and delayed deliveries ride the simulator's pooled scheduleEdge
 * path. Names are interned per simulator, so a net is identified by a
 * 4-byte id in traces and diagnostics.
 *
 * Edge-train batching (opt-in via enableEdgeTrains): a net hands
 * every drive to a sim::TrainRider, which upgrades a steady
 * alternating drive run -- the shape of a forwarded bus clock -- to
 * one speculative kernel edge train and splits back to the discrete
 * path on any off-rhythm drive or value glitch (keeping the
 * already-committed in-flight edge, so Fig 5 drive-to-forward
 * glitches survive bit-for-bit). Deliveries, fanout order, VCD bytes
 * and edge counters are identical to the discrete path by
 * construction; only the kernel-event count drops.
 */

#ifndef MBUS_WIRE_NET_HH
#define MBUS_WIRE_NET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/train_rider.hh"
#include "sim/types.hh"
#include "sim/vcd.hh"

namespace mbus {
namespace wire {

class Net;

/** Edge polarity selector for listeners. */
enum class Edge {
    Rising,
    Falling,
    Any,
};

/**
 * Receiver of visible-value changes on a Net.
 *
 * Implemented once per subscribing component; registration stores
 * only {listener pointer, edge mask}, so fanout touches no closures
 * and performs no allocation.
 */
class EdgeListener
{
  public:
    /**
     * Deliver an edge.
     *
     * @param net The net that changed (lets one listener serve
     *            several nets and branch on identity).
     * @param value The new visible value.
     */
    virtual void onNetEdge(Net &net, bool value) = 0;

  protected:
    ~EdgeListener() = default;
};

/**
 * A one-driver digital wire segment with transport delay.
 */
class Net : private sim::EdgeSink
{
  public:
    /** Interned name id (see sim::StringInterner). */
    using NetId = sim::StringInterner::Id;

    /**
     * @param sim Owning simulator.
     * @param name Diagnostic name ("seg2.DATA"); interned.
     * @param delay Propagation delay from drive to visibility.
     * @param initial Initial visible value.
     */
    Net(sim::Simulator &sim, const std::string &name, sim::SimTime delay,
        bool initial = true);

    /** @return the currently visible value. */
    bool value() const { return forced_ ? forcedValue_ : value_; }

    /** @return the most recently driven (pre-delay) value. */
    bool drivenValue() const { return driven_; }

    /** @return the configured propagation delay. */
    sim::SimTime delay() const { return delay_; }

    /** @return the interned name id. */
    NetId id() const { return id_; }

    /** @return the diagnostic name. */
    const std::string &name() const { return sim_.names().name(id_); }

    /**
     * Drive a new value; listeners see it after the net's delay.
     *
     * Driving the already-driven value is a no-op, so forwarding
     * logic may drive unconditionally.
     */
    void drive(bool v);

    /**
     * Subscribe @p listener to visible-value changes.
     *
     * @param edge Which edges to deliver.
     * @param listener Edge receiver; must outlive the net's use.
     */
    void listen(Edge edge, EdgeListener &listener);

    /**
     * Mute or unmute @p listener's subscription: a muted listener
     * receives no deliveries at all (used by controllers whose FSM
     * provably ignores edges in the current mode, e.g. a wire
     * controller in Drive mode). No-op if the listener is not
     * subscribed.
     */
    void setListenerMuted(EdgeListener &listener, bool muted);

    /** Listener virtual calls made so far (muted deliveries
     *  excluded) -- the dispatch-cost metric muting reduces. */
    std::uint64_t dispatchCalls() const { return dispatchCalls_; }

    /**
     * Monotone count of ALL delivered edges, forced fanouts and
     * skipped edges included (transitions() freezes under force; this
     * does not). Pull-mode consumers snapshot it to detect "did any
     * edge happen since"; the ring's segment and comb energy is
     * priced per epoch step.
     */
    std::uint64_t edgeEpoch() const { return edgeEpoch_; }

    /**
     * Fault injection: force the visible value regardless of drives.
     * Listeners observe the forced value changes immediately.
     */
    void force(bool v);

    /** Remove a force; the net snaps back to the driven pipeline. */
    void release();

    /** @return true while a force is active. */
    bool forced() const { return forced_; }

    /**
     * Fault injection: swallow the next @p pulses whole pulses. A
     * swallowed pulse loses both its leading transition and the
     * complementary return edge (the visible value never moves) --
     * the signature of a runt pulse dying on a lossy segment. No
     * listener, counter, or trace sees it.
     */
    void dropEdges(std::uint32_t pulses) { dropPending_ += pulses; }

    /** Pulses still queued to be swallowed. */
    std::uint32_t dropsPending() const { return dropPending_; }

    /**
     * Opt in to edge-train batching: rhythmic alternating drive runs
     * coalesce into speculative kernel trains of up to @p maxEdges
     * edges each. Requires a non-zero propagation delay (confirmation
     * must precede delivery); silently stays discrete otherwise.
     */
    void
    enableEdgeTrains(std::uint32_t maxEdges)
    {
        rider_.setMaxEdges((delay_ > 0 && maxEdges >= 2) ? maxEdges : 0);
    }

    /** Trains this net has started (diagnostics). */
    std::uint64_t trainsStarted() const { return rider_.trainsStarted(); }

    /** @return true when every driven edge has been delivered (no
     *  edge or glitch is in flight on this segment). */
    bool settled() const { return inFlight_ == 0; }

    /**
     * Fast-forward: account @p count alternating edges as if they had
     * been driven and delivered, starting from the current level, on
     * a settled, unforced, untraced net. Levels, transition counters
     * and the edge epoch move; listeners hear nothing -- the caller
     * advances their state. The edge-train rider restarts detection;
     * with a @p beat, the skipped edges were driven every @p beat up
     * to @p lastDrive, and the next on-beat drive rides a train at
     * once.
     */
    void skipEdges(std::uint64_t count, sim::SimTime lastDrive = 0,
                   sim::SimTime beat = 0);

    /** Rising-edge count since construction (for energy/goodput). */
    std::uint64_t risingEdges() const { return risingEdges_; }

    /** Falling-edge count since construction. */
    std::uint64_t fallingEdges() const { return fallingEdges_; }

    /** Total transitions. */
    std::uint64_t
    transitions() const
    {
        return risingEdges_ + fallingEdges_;
    }

    /** Attach a trace recorder; every visible change is recorded. */
    void trace(sim::TraceRecorder &recorder);

  private:
    /** Edge-mask bits (Edge enum folded to a bitmask, plus the
     *  muted subscription flag). */
    enum : std::uint8_t {
        kMaskRising = 1,
        kMaskFalling = 2,
        kMaskAny = kMaskRising | kMaskFalling,
        kMaskMuted = 4, ///< Subscription silenced by the owner.
    };

    static std::uint8_t maskOf(Edge edge);

    /** Pooled delayed delivery target (sim::EdgeSink). */
    void onEdge(bool value) override;

    /** Deliver a value to the visible side and fan out. */
    void applyVisible(bool v);

    /** Fan an already-applied change out to matching listeners. */
    void fanout(bool v);

    sim::Simulator &sim_;
    NetId id_;
    sim::SimTime delay_;

    bool value_;   ///< Visible (post-delay) value.
    bool driven_;  ///< Latest driven (pre-delay) value.

    bool forced_ = false;
    bool forcedValue_ = false;
    std::uint32_t dropPending_ = 0; ///< Whole pulses to swallow.
    std::uint64_t inFlight_ = 0;    ///< Driven, not yet delivered.

    std::uint64_t risingEdges_ = 0;
    std::uint64_t fallingEdges_ = 0;

    /** Edge-train batching; its destructor cancels the train. */
    sim::TrainRider rider_;

    std::uint64_t dispatchCalls_ = 0;
    std::uint64_t edgeEpoch_ = 0;

    /** Compact subscriber table: one pointer + mask per listener. */
    struct Sub
    {
        EdgeListener *listener;
        std::uint8_t mask;
    };
    std::vector<Sub> subs_;

    sim::TraceRecorder *recorder_ = nullptr;
    sim::TraceRecorder::SignalId traceId_ = 0;
};

} // namespace wire
} // namespace mbus

#endif // MBUS_WIRE_NET_HH
