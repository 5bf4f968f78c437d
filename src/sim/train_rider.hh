/**
 * @file
 * The confirm-or-split rhythm rule that rides speculative edge
 * trains, and what skipping a ridden beat saves.
 *
 * Every MBus hop forwards CLK on the same steady beat, whether the
 * forwarder is a wire segment (wire::Net) or the software member's
 * CLK ISR retirement (firmware::FirmwareNode). When three consecutive
 * edges an owner is about to schedule, each after the same latency,
 * alternate with two equal gaps longer than the latency, the third
 * heads a speculative kernel edge train of up to maxEdges edges.
 * Later edges on the predicted value and time are *confirmed* as the
 * train's next edges; an off-beat or wrong-value edge splits the
 * train to its committed head (which still fires) and detection
 * restarts. BeatDetector holds the rule and touches no kernel;
 * TrainRider binds it to one (delivery times and tie-breaks equal
 * the discrete path's, see sim::EventQueue; only the event count
 * drops); bus::laneRides() runs it over DATA lanes in cycle units to
 * price the data-phase fast-forward's skips.
 */

#ifndef MBUS_SIM_TRAIN_RIDER_HH
#define MBUS_SIM_TRAIN_RIDER_HH

#include <cstdint>

#include "sim/simulator.hh"

namespace mbus {
namespace sim {

/** What a BeatDetector makes of one offered edge. */
enum class BeatEdge : std::uint8_t
{
    Discrete,  ///< Scheduled on its own: one kernel event.
    Head,      ///< Heads a new train: one kernel event for the train.
    Confirmed, ///< The riding train's next edge: no kernel event.
};

/** The confirm-or-split rule over one stream of edges. */
class BeatDetector
{
  public:
    /** Max edges per train; 0 keeps every edge discrete. */
    void setMaxEdges(std::uint32_t maxEdges) { maxEdges_ = maxEdges; }
    std::uint32_t maxEdges() const { return maxEdges_; }

    /** True while a train has confirmable edges left. */
    bool riding() const { return active_; }
    /** The beat the last train head was detected on. */
    SimTime period() const { return period_; }

    /** Offer an edge @p v at @p now, due @p latency later. An edge on
     *  the riding train's beat is confirmed if @p confirm() agrees;
     *  otherwise the ride splits and the edge is classified afresh. */
    template <typename Confirm>
    BeatEdge
    offer(SimTime now, SimTime latency, bool v, Confirm &&confirm)
    {
        if (active_) {
            if (left_ > 0 && v == expectValue_ && now == expectAt_ &&
                confirm()) {
                --left_;
                expectValue_ = !v;
                expectAt_ = now + period_;
                if (left_ == 0) {
                    // Exhausted cleanly: hand the rhythm straight to
                    // detection so the very next on-beat edge chains
                    // a new train without discrete warm-up.
                    active_ = false;
                    haveLast_ = haveGap_ = true;
                    lastAt_ = now;
                    lastGap_ = period_;
                }
                return BeatEdge::Confirmed;
            }
            forget();
        }
        if (maxEdges_ == 0)
            return BeatEdge::Discrete;

        const SimTime gap = now - lastAt_;
        if (haveGap_ && gap > 0 && gap == lastGap_ && gap > latency) {
            // Third alternating edge on a steady beat: it heads a new
            // speculative train.
            period_ = gap;
            active_ = true;
            left_ = maxEdges_ - 1;
            expectValue_ = !v;
            expectAt_ = now + gap;
            haveLast_ = haveGap_ = false;
            return BeatEdge::Head;
        }
        if (haveLast_) {
            lastGap_ = gap;
            haveGap_ = gap > 0;
        }
        lastAt_ = now;
        haveLast_ = true;
        return BeatEdge::Discrete;
    }

    /** End any ride and restart detection. */
    void
    forget()
    {
        active_ = haveLast_ = haveGap_ = false;
        left_ = 0;
    }

    /** Like forget(), then restart detection on a known beat: as if
     *  the last two edges went out at @p lastAt - @p gap and @p lastAt,
     *  so the next edge on the beat heads a train at once. A zero
     *  @p gap only forgets. */
    void
    resumeBeat(SimTime lastAt, SimTime gap)
    {
        forget();
        lastAt_ = lastAt;
        lastGap_ = gap;
        haveLast_ = haveGap_ = gap > 0;
    }

  private:
    std::uint32_t maxEdges_ = 0;
    bool active_ = false;
    std::uint32_t left_ = 0;      ///< Confirmable edges left.
    bool expectValue_ = false;    ///< Next predicted edge value.
    SimTime expectAt_ = 0;        ///< Next predicted edge time.
    SimTime period_ = 0;          ///< Detected beat.
    // Detection: two equal gaps between alternating edges.
    SimTime lastAt_ = 0;
    SimTime lastGap_ = 0;
    bool haveLast_ = false;
    bool haveGap_ = false;
};

/** A BeatDetector bound to the kernel: one owner's speculative edge
 *  train. */
class TrainRider
{
  public:
    TrainRider() = default;
    TrainRider(const TrainRider &) = delete;
    TrainRider &operator=(const TrainRider &) = delete;

    /** Cancels the rider's train, confirmed head included. */
    ~TrainRider() { train_.cancel(); }

    void setMaxEdges(std::uint32_t maxEdges) { beat_.setMaxEdges(maxEdges); }

    /** Offer an edge @p v due at @p sink after @p latency. @return
     *  false when the caller must schedule it discretely. */
    bool
    ride(Simulator &sim, SimTime latency, EdgeSink &sink, bool v)
    {
        const bool riding = beat_.riding();
        // A confirmation draws the edge's tie-break sequence now: the
        // position a discrete schedule here would get.
        switch (beat_.offer(sim.now(), latency, v,
                            [this] { return train_.confirmTrainEdge(); })) {
          case BeatEdge::Confirmed:
            return true;
          case BeatEdge::Head:
            train_ = sim.scheduleSpeculativeEdgeTrain(
                latency, beat_.period(), beat_.maxEdges(), sink, v);
            ++trainsStarted_;
            return true;
          case BeatEdge::Discrete:
            break;
        }
        if (riding) // Split: the committed head still fires.
            (void)train_.truncateTrainToHead();
        return false;
    }

    /** Split the train to its committed head, then
     *  BeatDetector::resumeBeat() (or forget()). */
    void
    resumeBeat(SimTime lastAt, SimTime gap)
    {
        if (beat_.riding())
            (void)train_.truncateTrainToHead();
        beat_.resumeBeat(lastAt, gap);
    }
    void forget() { resumeBeat(0, 0); }

    /** @return true while the train has undelivered edges. */
    bool pending() const { return train_.pending(); }

    /** Trains started so far (diagnostics). */
    std::uint64_t trainsStarted() const { return trainsStarted_; }

  private:
    BeatDetector beat_;
    EventHandle train_;
    std::uint64_t trainsStarted_ = 0;
};

// --- What a data-phase skip saves (MBusSystem::skipSavings) ---------

/** Discrete edges after forget() before a beat can head a train. */
constexpr std::uint32_t kBeatWarmUpEdges = 2;

/** Kernel events saved by skipping @p edges edges of a beat ridden
 *  on trains of @p maxEdges edges, less the train a skip restarts. */
inline double
trainSkipSaving(double edges, std::uint32_t maxEdges)
{
    return edges / maxEdges - 1;
}

/** Kernel events saved by skipping edges a rider retires @p events
 *  on, less the warm-up it pays again if it ends @p onBeat. */
inline double
rideSkipSaving(std::uint64_t events, bool onBeat)
{
    return static_cast<double>(events) - (onBeat ? kBeatWarmUpEdges : 0);
}

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_TRAIN_RIDER_HH
