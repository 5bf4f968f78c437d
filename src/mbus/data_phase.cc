#include "mbus/data_phase.hh"

#include <algorithm>
#include <cstring>

#include "sim/train_rider.hh"

namespace mbus {
namespace bus {

namespace {

/** m[w][r]: the word bits (offset 0 = MSB) at offsets i with
 *  i % w == r; div[w][j]: j / w for offsets j < 64 + w, without a
 *  divide per bit. */
struct LaneMasks
{
    std::uint64_t m[kMaxDataLanes + 1][kMaxDataLanes] = {};
    std::uint8_t div[kMaxDataLanes + 1][64 + kMaxDataLanes] = {};

    constexpr LaneMasks()
    {
        for (int w = 1; w <= kMaxDataLanes; ++w) {
            for (int i = 0; i < 64; ++i)
                m[w][i % w] |= std::uint64_t(1) << (63 - i);
            for (int j = 0; j < 64 + kMaxDataLanes; ++j)
                div[w][j] = static_cast<std::uint8_t>(j / w);
        }
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

/** Calls @p visit(base, change) for each word of the run's changes:
 *  offset i (bit 63 - i) marks payload bit base + i, lane (base + i)
 *  % w, differing from its lane one cycle earlier (or, in the run's
 *  first cycle, from the level @p start it enters at). */
template <typename Visit>
void
forEachChangeWord(const std::vector<std::uint8_t> &payload,
                  std::uint64_t w, std::uint64_t first,
                  std::uint64_t cycles,
                  const std::array<bool, kMaxDataLanes> &start,
                  Visit &&visit)
{
    if (cycles == 0)
        return;
    const std::uint64_t begin = first * w;
    const std::uint64_t end = (first + cycles) * w;
    std::uint64_t entry = 0;
    for (std::uint64_t l = 0; l < w; ++l)
        entry |= static_cast<std::uint64_t>(start[l]) << (63 - l);
    visit(begin, (bitsAt(payload, begin) ^ entry) &
                     (~std::uint64_t(0) << (64 - w)));
    for (std::uint64_t base = begin + w; base < end; base += 64) {
        std::uint64_t change = bitsAt(payload, base) ^
                               bitsAt(payload, base - w);
        const std::uint64_t n = std::min<std::uint64_t>(64, end - base);
        if (n < 64)
            change &= ~std::uint64_t(0) << (64 - n);
        visit(base, change);
    }
}

} // namespace

void
latchBits(const std::vector<std::uint8_t> &stream, std::uint64_t p,
          std::uint64_t count, std::vector<std::uint8_t> &bytes,
          std::uint32_t &buffer, int &pending)
{
    auto shift = [&](bool bit) {
        buffer = (buffer << 1) | (bit ? 1 : 0);
        if (++pending == 8) {
            bytes.push_back(static_cast<std::uint8_t>(buffer & 0xFF));
            buffer = 0;
            pending = 0;
        }
    };
    const std::uint64_t end = p + count;
    for (; pending != 0 && p < end; ++p)
        shift(payloadBit(stream, p));
    auto byte = [&stream](std::uint64_t i) -> unsigned {
        return i < stream.size() ? stream[i] : 0xFF;
    };
    const unsigned s = static_cast<unsigned>(p % 8);
    for (; p + 8 <= end; p += 8) {
        const unsigned hi = byte(p / 8);
        bytes.push_back(static_cast<std::uint8_t>(
            s == 0 ? hi : (hi << s) | (byte(p / 8 + 1) >> (8 - s))));
    }
    for (; p < end; ++p)
        shift(payloadBit(stream, p));
}

LaneRun
laneTransitions(const std::vector<std::uint8_t> &payload, int lanes,
                std::uint64_t first, std::uint64_t cycles,
                const std::array<bool, kMaxDataLanes> &start)
{
    LaneRun run;
    const auto w = static_cast<std::uint64_t>(lanes);
    forEachChangeWord(
        payload, w, first, cycles, start,
        [&run, w](std::uint64_t base, std::uint64_t change) {
            const std::uint64_t phase = base % w;
            for (std::uint64_t l = 0; l < w; ++l)
                run.edges[l] += static_cast<std::uint64_t>(
                    __builtin_popcountll(
                        change & kLaneMask.m[w][(l + w - phase) % w]));
        });
    // Each transition flips its lane's level.
    for (int l = 0; l < kMaxDataLanes; ++l)
        run.last[l] = start[l] != (run.edges[l] % 2 != 0);
    return run;
}

LaneRides
laneRides(const std::vector<std::uint8_t> &payload, int lanes,
          std::uint64_t first, std::uint64_t cycles,
          const std::array<bool, kMaxDataLanes> &start,
          std::uint32_t maxEdges)
{
    // Each lane's segment rider, in cycle units (every gap outlasts a
    // hop: latency 0), is primed the way Net::skipEdges primes a CLK
    // segment: the run's first two transitions are taken as the last
    // two of a beat already running (unsigned wrap keeps it exact).
    LaneRides rides;
    const auto w = static_cast<std::uint64_t>(lanes);
    std::array<sim::BeatDetector, kMaxDataLanes> beat;
    std::array<bool, kMaxDataLanes> level = start;
    std::array<std::uint64_t, kMaxDataLanes> opening{};
    std::array<int, kMaxDataLanes> seen{};
    auto offer = [&](std::uint64_t l, std::uint64_t c) {
        level[l] = !level[l];
        const sim::BeatEdge e =
            beat[l].offer(c, 0, level[l], [] { return true; });
        rides.events[l] += e != sim::BeatEdge::Confirmed;
        rides.onBeat[l] = e != sim::BeatEdge::Discrete;
    };
    for (std::uint64_t l = 0; l < w; ++l)
        beat[l].setMaxEdges(maxEdges);
    forEachChangeWord(
        payload, w, first, cycles, start,
        [&](std::uint64_t base, std::uint64_t change) {
            const std::uint64_t cycle = base / w, skew = base % w;
            while (change != 0) {
                const auto i =
                    static_cast<std::uint64_t>(__builtin_clzll(change));
                change ^= (std::uint64_t(1) << 63) >> i;
                const std::uint64_t q = kLaneMask.div[w][skew + i];
                const std::uint64_t l = skew + i - q * w, c = cycle + q;
                if (seen[l] == 2) {
                    offer(l, c);
                } else if (seen[l]++ == 0) {
                    opening[l] = c;
                } else {
                    beat[l].resumeBeat(2 * opening[l] - c, c - opening[l]);
                    offer(l, opening[l]);
                    offer(l, c);
                }
            }
        });
    for (std::uint64_t l = 0; l < w; ++l)
        if (seen[l] == 1)
            offer(l, opening[l]);
    return rides;
}

} // namespace bus
} // namespace mbus
