/**
 * @file
 * The confirm-or-split rhythm detector that rides speculative edge
 * trains.
 *
 * Every MBus hop forwards CLK on the same steady beat, whether the
 * forwarder is a wire segment (wire::Net) or the software member's
 * CLK ISR retirement (firmware::FirmwareNode). A TrainRider watches
 * the times and values of a stream of edges its owner is about to
 * schedule, each after the same latency. When three consecutive
 * edges alternate with two equal gaps longer than the latency, the
 * third becomes the confirmed head of one speculative kernel edge
 * train covering up to maxEdges future edges. Each later edge that
 * matches the predicted value and time *confirms* the train's next
 * edge instead of scheduling a discrete event; any off-beat or
 * wrong-value edge splits the train to its committed head (the
 * in-flight edge still fires) and detection restarts. Delivery times
 * and tie-break positions equal the discrete path's by construction
 * (see sim::EventQueue); only the kernel-event count drops.
 */

#ifndef MBUS_SIM_TRAIN_RIDER_HH
#define MBUS_SIM_TRAIN_RIDER_HH

#include <cstdint>

#include "sim/simulator.hh"

namespace mbus {
namespace sim {

/** One owner's speculative edge train and the detector that feeds it. */
class TrainRider
{
  public:
    TrainRider() = default;
    TrainRider(const TrainRider &) = delete;
    TrainRider &operator=(const TrainRider &) = delete;

    /** Cancels the rider's train, confirmed head included. */
    ~TrainRider() { train_.cancel(); }

    /** Max edges per train; 0 keeps every edge discrete. */
    void setMaxEdges(std::uint32_t maxEdges) { maxEdges_ = maxEdges; }

    /**
     * Offer an edge @p v due at @p sink after @p latency: confirm the
     * train's next edge, or start a train on the third edge of a
     * steady beat.
     *
     * @return false when the caller must schedule the edge discretely.
     */
    bool
    ride(Simulator &sim, SimTime latency, EdgeSink &sink, bool v)
    {
        const SimTime now = sim.now();
        if (active_) {
            // Confirmation re-arms the edge with a tie-break sequence
            // drawn right now -- the exact position a discrete
            // schedule here would get.
            if (left_ > 0 && v == expectValue_ && now == expectAt_ &&
                train_.confirmTrainEdge()) {
                --left_;
                expectValue_ = !v;
                expectAt_ = now + period_;
                if (left_ == 0) {
                    // Exhausted cleanly: hand the rhythm straight to
                    // the detector so the very next on-beat edge
                    // chains a new train without discrete warm-up.
                    active_ = false;
                    haveLast_ = true;
                    haveGap_ = true;
                    lastAt_ = now;
                    lastGap_ = period_;
                }
                return true;
            }
            forget();
        }
        if (maxEdges_ == 0)
            return false;

        const SimTime gap = now - lastAt_;
        if (haveGap_ && gap > 0 && gap == lastGap_ && gap > latency) {
            // Third alternating edge on a steady beat: it becomes the
            // confirmed head of a new speculative train.
            period_ = gap;
            train_ = sim.scheduleSpeculativeEdgeTrain(latency, gap,
                                                      maxEdges_, sink, v);
            active_ = true;
            left_ = maxEdges_ - 1;
            expectValue_ = !v;
            expectAt_ = now + gap;
            haveLast_ = false;
            haveGap_ = false;
            ++trainsStarted_;
            return true;
        }
        if (haveLast_) {
            lastGap_ = gap;
            haveGap_ = gap > 0;
        }
        lastAt_ = now;
        haveLast_ = true;
        return false;
    }

    /** Split the train to its committed head (which still fires) and
     *  restart detection. */
    void
    forget()
    {
        if (active_) {
            (void)train_.truncateTrainToHead();
            active_ = false;
            left_ = 0;
        }
        haveLast_ = false;
        haveGap_ = false;
    }

    /**
     * Split like forget(), then restart detection on a known beat: as
     * if the last two edges went out at @p lastAt - @p gap and
     * @p lastAt, so the next edge on the beat starts a train at once.
     */
    void
    resumeBeat(SimTime lastAt, SimTime gap)
    {
        forget();
        lastAt_ = lastAt;
        lastGap_ = gap;
        haveLast_ = true;
        haveGap_ = gap > 0;
    }

    /** @return true while the train has undelivered edges. */
    bool pending() const { return train_.pending(); }

    /** Trains started so far (diagnostics). */
    std::uint64_t trainsStarted() const { return trainsStarted_; }

  private:
    std::uint32_t maxEdges_ = 0;
    EventHandle train_;
    bool active_ = false;
    std::uint32_t left_ = 0;      ///< Confirmable edges left.
    bool expectValue_ = false;    ///< Next predicted edge value.
    SimTime expectAt_ = 0;        ///< Next predicted edge time.
    SimTime period_ = 0;          ///< Detected beat.
    // Detector: two equal gaps between alternating edges.
    SimTime lastAt_ = 0;
    SimTime lastGap_ = 0;
    bool haveLast_ = false;
    bool haveGap_ = false;
    std::uint64_t trainsStarted_ = 0;
};

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_TRAIN_RIDER_HH
