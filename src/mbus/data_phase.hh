/**
 * @file
 * Data-phase wire arithmetic shared by the message-level model and
 * the live ring's data-phase fast-forward.
 *
 * In data cycle c the transmitter drives payload bit p = c w + l
 * (MSB first) on lane l of its w DATA lanes, and 1 on lanes past the
 * payload (Secs 4.8, 7). Every forwarding segment of a lane carries
 * the same level sequence, so a segment's transitions over a run of
 * cycles are the adjacent-level changes of that lane's subsequence.
 * Both functions below walk them 64 payload bits at a time: the bit
 * stream XOR itself one cycle (w bits) earlier marks every change.
 * laneTransitions() popcounts each lane's changes; laneRides() feeds
 * them to a segment's sim::BeatDetector, the rule its edge-train
 * rider retires them by, to price them in kernel events.
 */

#ifndef MBUS_BUS_DATA_PHASE_HH
#define MBUS_BUS_DATA_PHASE_HH

#include <array>
#include <cstdint>
#include <vector>

namespace mbus {
namespace bus {

/** Most DATA lanes a ring carries (parallel MBus, Sec 7). */
constexpr int kMaxDataLanes = 4;

/** Bit @p p of @p payload, MSB first; 1 past the end (padding). */
inline bool
payloadBit(const std::vector<std::uint8_t> &payload, std::uint64_t p)
{
    return p / 8 >= payload.size() ||
           ((payload[p / 8] >> (7 - p % 8)) & 1) != 0;
}

/** Per-lane transitions of a run of data cycles. */
struct LaneRun
{
    std::array<std::uint64_t, kMaxDataLanes> edges{}; ///< Per lane.
    std::array<bool, kMaxDataLanes> last{}; ///< Level after the run.
};

/**
 * The transitions lane by lane over data cycles [@p first, @p first +
 * @p cycles) of @p payload spread across @p lanes lanes, lane l
 * entering the run at level @p start[l].
 */
LaneRun laneTransitions(const std::vector<std::uint8_t> &payload,
                        int lanes, std::uint64_t first,
                        std::uint64_t cycles,
                        const std::array<bool, kMaxDataLanes> &start);

/** Kernel events one segment of each lane retires over a run. */
struct LaneRides
{
    std::array<std::uint64_t, kMaxDataLanes> events{}; ///< Per lane.
    std::array<bool, kMaxDataLanes> onBeat{}; ///< Riding at the end.
};

/**
 * What a segment's sim::TrainRider (trains of up to @p maxEdges
 * edges) retires on each lane's transitions over the same run as
 * laneTransitions(): every edge its sim::BeatDetector does not
 * confirm, with the detector primed (resumeBeat) as if the lane's
 * opening beat were already running.
 */
LaneRides laneRides(const std::vector<std::uint8_t> &payload, int lanes,
                    std::uint64_t first, std::uint64_t cycles,
                    const std::array<bool, kMaxDataLanes> &start,
                    std::uint32_t maxEdges);

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_DATA_PHASE_HH
