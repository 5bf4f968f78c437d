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
 *  - transition counters feeding the CV^2 switching-energy model;
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
 * A run of consecutive delivered edges on one net, in delivery order.
 *
 * Net edges strictly alternate (a delivery only happens when the
 * visible value changes), so a run is fully described by its first
 * value and its length -- no materialized array, no allocation.
 * operator[] reconstructs any edge's value on demand.
 */
struct EdgeRun
{
    bool first = false;        ///< Value of the run's first edge.
    std::uint64_t count = 0;   ///< Number of edges in the run.

    /** Value of the @p i-th edge of the run (0-based). */
    bool
    operator[](std::uint64_t i) const
    {
        return first ^ ((i & 1) != 0);
    }

    /** Value of the run's final edge (== net value after the run). */
    bool
    last() const
    {
        return (*this)[count - 1];
    }
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

    /**
     * Chunked delivery: a whole run of consecutive edges in ONE
     * virtual call (the dispatch-side analogue of kernel edge
     * trains). Only listeners registered through listenBatched() on a
     * chunked-dispatch net ever receive this; everyone else keeps the
     * per-edge onNetEdge path and bit-identical semantics.
     *
     * Delivery is deferred: the run arrives when the net flushes
     * (flushDeferred(), a force/release boundary), not at each edge's
     * timestamp. A batched listener must therefore be edge-COUNT
     * driven -- commutative counters such as the CV^2 energy taps --
     * and must never look at simulator "now" or other time-coupled
     * state from inside onEdges.
     *
     * The default implementation replays the run through onNetEdge,
     * so overriding is purely an optimization.
     */
    virtual void
    onEdges(Net &net, EdgeRun run)
    {
        for (std::uint64_t i = 0; i < run.count; ++i)
            onNetEdge(net, run[i]);
    }

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
     * Subscribe @p listener for chunked delivery (always Edge::Any).
     *
     * While chunked dispatch is enabled the listener's edges are
     * accumulated and handed over as EdgeRun batches through
     * onEdges() at flush points; with chunked dispatch off it behaves
     * exactly like listen(Edge::Any, ...). See EdgeListener::onEdges
     * for the contract a batched listener must satisfy.
     */
    void listenBatched(EdgeListener &listener);

    /**
     * Mute or unmute @p listener's subscription: a muted listener
     * receives no deliveries at all (used by controllers whose FSM
     * provably ignores edges in the current mode, e.g. a wire
     * controller in Drive mode). No-op if the listener is not
     * subscribed.
     */
    void setListenerMuted(EdgeListener &listener, bool muted);

    /**
     * Enable/disable chunked dispatch (deferral of batched-listener
     * deliveries). Purely a virtual-call-count optimization: the
     * edge sequence each listener observes is unchanged.
     */
    void setChunkedDispatch(bool enabled) { chunked_ = enabled; }

    /** @return true if chunked dispatch is enabled. */
    bool chunkedDispatch() const { return chunked_; }

    /**
     * Deliver any deferred edge run to the batched listeners now.
     * Callers that read batched-listener state (energy ledgers,
     * stats) must flush first.
     */
    void flushDeferred();

    /** Listener virtual calls made so far (onNetEdge + onEdges),
     *  muted/deferred deliveries excluded -- the dispatch-cost metric
     *  chunked mode strictly reduces. */
    std::uint64_t dispatchCalls() const { return dispatchCalls_; }

    /**
     * Monotone count of ALL delivered edges, forced fanouts included
     * (transitions() freezes under force; this does not). Pull-mode
     * consumers snapshot it to detect "did any edge happen since".
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
     * a settled, unforced, untraced net with chunked dispatch. Levels,
     * transition counters and the edge epoch move; batched listeners
     * get the edges in the deferred run of the next flush; per-edge
     * listeners hear nothing -- the caller advances their state. The
     * edge-train rider restarts detection;
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
     *  batched / muted subscription flags). */
    enum : std::uint8_t {
        kMaskRising = 1,
        kMaskFalling = 2,
        kMaskAny = kMaskRising | kMaskFalling,
        kMaskBatched = 4, ///< Chunked delivery via onEdges().
        kMaskMuted = 8,   ///< Subscription silenced by the owner.
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

    // --- Chunked dispatch state ------------------------------------
    bool chunked_ = false;      ///< Defer batched-listener deliveries.
    bool haveBatched_ = false;  ///< Any batched subscriber registered.
    bool pendingFirst_ = false; ///< First value of the deferred run.
    std::uint64_t pendingCount_ = 0; ///< Deferred edges not yet flushed.
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
