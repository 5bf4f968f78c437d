/**
 * @file
 * Wire arithmetic shared by the message-level model, the bus
 * controller's transmitter and the live ring's fast-forward.
 *
 * A transmitter's wire cycles count from its first address cycle: in
 * cycle c < A (A = 8 or 32 address bits, Sec 4.6) it drives address
 * bit c, MSB first, on lane 0 alone; in data cycle d = c - A it drives
 * payload bit p = d w + l (MSB first) on lane l of its w DATA lanes,
 * and 1 on lanes past the payload (Secs 4.8, 7). txWireBit() is that
 * rule.
 *
 * Every forwarding segment of a lane carries the same level sequence,
 * so a segment's transitions over a run of cycles are the
 * adjacent-level changes of that lane's subsequence of a lane stream
 * (cycle c, lane l at bit c w + l). Both pricing functions below walk
 * them 64 stream bits at a time: the bit stream XOR itself one cycle
 * (w bits) earlier marks every change. laneTransitions() popcounts
 * each lane's changes; laneRides() feeds them to a segment's
 * sim::BeatDetector, the rule its edge-train rider retires them by,
 * to price them in kernel events.
 */

#ifndef MBUS_BUS_DATA_PHASE_HH
#define MBUS_BUS_DATA_PHASE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "mbus/message.hh"

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

/** The bit the transmitter of @p msg drives on lane @p lane of
 *  @p lanes in wire cycle @p cycle (see the file comment; an address
 *  cycle drives lane 0 only). */
inline bool
txWireBit(const Message &msg, int lanes, std::uint64_t cycle, int lane = 0)
{
    const auto a = static_cast<std::uint64_t>(msg.dest.bitCount());
    if (cycle < a)
        return ((msg.dest.encoded() >> (a - 1 - cycle)) & 1) != 0;
    return payloadBit(msg.payload, (cycle - a) * static_cast<std::uint64_t>(
                                                    lanes) +
                                       static_cast<std::uint64_t>(lane));
}

/** Wire cycles @p msg takes over @p lanes lanes: its address, then
 *  its payload's data cycles. */
inline std::uint64_t
txWireCycles(const Message &msg, int lanes)
{
    const auto w = static_cast<std::uint64_t>(lanes);
    return static_cast<std::uint64_t>(msg.dest.bitCount()) +
           (8 * msg.payload.size() + w - 1) / w;
}

/**
 * A fast-forward window: @p cycles whole wire cycles from wire cycle
 * @p first. With a transmitter (@p msg) cycles count from its first
 * address cycle and carry txWireBit(), and @p data is its payload;
 * with none (it browned out mid-message) every cycle is a data cycle,
 * counted from the window's start, and @p data holds the lanes'
 * constant levels.
 */
struct SkipWindow
{
    const Message *msg = nullptr;
    /** Data cycle d carries bit d w + l of it on lane l. */
    const std::vector<std::uint8_t> *data = nullptr;
    std::uint64_t first = 0;
    std::uint64_t cycles = 0;

    /** The transmitter's address cycles (0 with none). */
    std::uint64_t
    addrCycles() const
    {
        return msg ? static_cast<std::uint64_t>(msg->dest.bitCount()) : 0;
    }
    /** Address cycles inside the window. */
    std::uint64_t
    addrSkipped() const
    {
        const std::uint64_t a = addrCycles();
        return first < a ? std::min(cycles, a - first) : 0;
    }
    /** The window's first data cycle, counted in @p data. */
    std::uint64_t
    firstData() const
    {
        const std::uint64_t a = addrCycles();
        return first < a ? 0 : first - a;
    }
    /** Data cycles inside the window. */
    std::uint64_t dataCycles() const { return cycles - addrSkipped(); }
};

/**
 * Latch bits [@p p, @p p + @p count) of @p stream (payloadBit()), MSB
 * first, through the shift register @p buffer holding @p pending
 * bits (fewer than 8; @p buffer is 0 with none), appending every
 * completed byte to @p bytes: bit by bit up to a byte boundary, then
 * whole bytes as one shifted copy each.
 */
void latchBits(const std::vector<std::uint8_t> &stream, std::uint64_t p,
               std::uint64_t count, std::vector<std::uint8_t> &bytes,
               std::uint32_t &buffer, int &pending);

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
