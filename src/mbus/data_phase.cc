#include "mbus/data_phase.hh"

#include <algorithm>
#include <cstring>

namespace mbus {
namespace bus {

namespace {

/** kLaneMask[w][r]: the word bits (offset 0 = MSB) at offsets i with
 *  i % w == r. */
struct LaneMasks
{
    std::uint64_t m[kMaxDataLanes + 1][kMaxDataLanes] = {};

    constexpr LaneMasks()
    {
        for (int w = 1; w <= kMaxDataLanes; ++w)
            for (int i = 0; i < 64; ++i)
                m[w][i % w] |= std::uint64_t(1) << (63 - i);
    }
};

constexpr LaneMasks kLaneMask;

/** 64 payload bits from bit @p q on, MSB first; 0xFF past the end. */
std::uint64_t
bitsAt(const std::vector<std::uint8_t> &payload, std::uint64_t q)
{
    const std::uint64_t at = q / 8;
    const unsigned shift = static_cast<unsigned>(q % 8);
    auto byte = [&payload](std::uint64_t i) -> std::uint64_t {
        return i < payload.size() ? payload[i] : 0xFF;
    };
    std::uint64_t word = 0;
    if (at + 8 <= payload.size()) {
        std::memcpy(&word, payload.data() + at, 8);
        word = __builtin_bswap64(word);
    } else {
        for (std::uint64_t i = 0; i < 8; ++i)
            word = (word << 8) | byte(at + i);
    }
    if (shift == 0)
        return word;
    return (word << shift) | (byte(at + 8) >> (8 - shift));
}

} // namespace

LaneRun
laneTransitions(const std::vector<std::uint8_t> &payload, int lanes,
                std::uint64_t first, std::uint64_t cycles,
                const std::array<bool, kMaxDataLanes> &start)
{
    LaneRun run;
    run.last = start;
    if (cycles == 0)
        return run;
    const auto w = static_cast<std::uint64_t>(lanes);
    const std::uint64_t begin = first * w;
    const std::uint64_t end = (first + cycles) * w;
    // The run's first bit on each lane against the level it enters at.
    for (std::uint64_t l = 0; l < w; ++l)
        run.edges[l] = payloadBit(payload, begin + l) != start[l];
    // Every later bit against the same lane's bit one cycle earlier.
    for (std::uint64_t base = begin + w; base < end; base += 64) {
        std::uint64_t change = bitsAt(payload, base) ^
                               bitsAt(payload, base - w);
        const std::uint64_t n = std::min<std::uint64_t>(64, end - base);
        if (n < 64)
            change &= ~std::uint64_t(0) << (64 - n);
        // Offset i of this word is lane (base + i) % w.
        const std::uint64_t phase = base % w;
        for (std::uint64_t l = 0; l < w; ++l)
            run.edges[l] += static_cast<std::uint64_t>(__builtin_popcountll(
                change & kLaneMask.m[w][(l + w - phase) % w]));
    }
    for (std::uint64_t l = 0; l < w; ++l)
        run.last[l] = payloadBit(payload, end - w + l);
    return run;
}

LaneRides
laneRides(const std::vector<std::uint8_t> &payload, int lanes,
          std::uint64_t first, std::uint64_t cycles,
          const std::array<bool, kMaxDataLanes> &start,
          std::uint32_t maxEdges)
{
    LaneRides rides;
    const auto w = static_cast<std::uint64_t>(lanes);
    const std::uint64_t end = first + cycles;
    for (std::uint64_t l = 0; l < w; ++l) {
        // The cycles of the lane's first two transitions.
        std::uint64_t at[2] = {};
        int seen = 0;
        bool level = start[l];
        for (std::uint64_t c = first; c < end && seen < 2; ++c) {
            const bool b = payloadBit(payload, c * w + l);
            if (b != level)
                at[seen++] = c;
            level = b;
        }
        // TrainRider::ride in cycle units (every gap outlasts a hop),
        // primed as if the opening beat had been running all along
        // (unsigned wrap keeps the first gap exact).
        bool riding = false, chained = false;
        bool haveLast = seen == 2, haveGap = seen == 2;
        std::uint64_t left = 0, period = 0, expect = 0;
        std::uint64_t lastGap = seen == 2 ? at[1] - at[0] : 0;
        std::uint64_t lastAt = at[0] - lastGap;
        std::uint64_t &events = rides.events[l];
        level = start[l];
        for (std::uint64_t c = first; c < end; ++c) {
            const bool b = payloadBit(payload, c * w + l);
            if (b == level)
                continue;
            level = b;
            chained = false;
            if (riding) {
                if (left > 0 && c == expect) {
                    expect = c + period;
                    if (--left == 0) {
                        // Exhausted: the next on-beat edge chains.
                        riding = false;
                        chained = true;
                        haveLast = haveGap = true;
                        lastAt = c;
                        lastGap = period;
                    }
                    continue;
                }
                riding = false;
                haveLast = haveGap = false;
            }
            const std::uint64_t gap = c - lastAt;
            ++events; // A discrete edge, or the head of a new train.
            if (haveGap && gap == lastGap && maxEdges > 0) {
                riding = true;
                period = gap;
                left = maxEdges - 1;
                expect = c + gap;
                haveLast = haveGap = false;
                continue;
            }
            if (haveLast) {
                lastGap = gap;
                haveGap = true;
            }
            lastAt = c;
            haveLast = true;
        }
        rides.onBeat[l] = riding || chained;
    }
    return rides;
}

} // namespace bus
} // namespace mbus
