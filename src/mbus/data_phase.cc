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

} // namespace bus
} // namespace mbus
