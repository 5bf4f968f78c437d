/**
 * @file
 * MBus addressing: short prefixes, full prefixes, FU-IDs, broadcast.
 *
 * A short address is one byte: {4-bit prefix, 4-bit FU-ID}. Prefix 0
 * is broadcast (the FU-ID field then selects a broadcast channel);
 * prefix 0xF introduces a full address. A full address is one 32-bit
 * word: {0xF marker, 20-bit full prefix, 4-bit FU-ID, 4 reserved
 * bits}. The paper fixes the marker, prefix, and FU-ID widths; the
 * placement of the reserved nibble is our layout choice: it is the
 * low nibble, below the FU-ID.
 */

#ifndef MBUS_BUS_ADDRESS_HH
#define MBUS_BUS_ADDRESS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "mbus/protocol.hh"

namespace mbus {
namespace bus {

/**
 * An MBus destination address (short, full, or broadcast).
 */
class Address
{
  public:
    /** Default: broadcast channel 0 (harmless but rarely wanted). */
    Address() = default;

    /**
     * Build a short address.
     *
     * @param prefix Short prefix, 1..14 (0 and 0xF are reserved).
     * @param fuId Functional unit, 0..15.
     */
    static Address shortAddr(std::uint8_t prefix, std::uint8_t fuId);

    /**
     * Build a full (32-bit) address from a 20-bit chip prefix.
     */
    static Address fullAddr(std::uint32_t fullPrefix, std::uint8_t fuId);

    /** Build a broadcast address for @p channel (0..15). */
    static Address broadcast(std::uint8_t channel);

    /** Decode a received 8-bit short/broadcast address byte. */
    static Address decodeShort(std::uint8_t byte);

    /** Decode a received 32-bit full address word. */
    static Address decodeFull(std::uint32_t word);

    /** @return true for broadcast addresses (short prefix 0). */
    bool isBroadcast() const { return !full_ && prefix_ == kBroadcastPrefix; }

    /** @return true for 32-bit full addresses. */
    bool isFull() const { return full_; }

    /** Number of address bits on the wire (8 or 32). */
    int bitCount() const { return full_ ? 32 : 8; }

    /** Short prefix (meaningless for full addresses). */
    std::uint8_t shortPrefix() const { return prefix_; }

    /** 20-bit full prefix (meaningless for short addresses). */
    std::uint32_t fullPrefix() const { return fullPrefix_; }

    /** Functional unit id; for broadcast this is the channel. */
    std::uint8_t fuId() const { return fuId_; }

    /** Broadcast channel (alias of fuId for broadcast addresses). */
    std::uint8_t channel() const { return fuId_; }

    /**
     * Wire encoding, MSB first. Short/broadcast addresses occupy the
     * low 8 bits; full addresses the low 32 bits.
     */
    std::uint32_t encoded() const;

    /** Human-readable rendering for logs. */
    std::string toString() const;

    bool
    operator==(const Address &other) const
    {
        return full_ == other.full_ && prefix_ == other.prefix_ &&
               fullPrefix_ == other.fullPrefix_ && fuId_ == other.fuId_;
    }

  private:
    bool full_ = false;
    std::uint8_t prefix_ = kBroadcastPrefix;
    std::uint32_t fullPrefix_ = 0;
    std::uint8_t fuId_ = 0;
};

/**
 * A receiver's address latch (Sec 4.6): bits shift in MSB first, and
 * the address is 8 bits long, or 32 once its first four read the
 * full-address marker. The bus controller, the mediator's length
 * watchdog and the software member latch through it.
 */
struct AddressLatch
{
    std::uint64_t accum = 0;
    int seen = 0;
    int expected = 8;

    bool complete() const { return seen >= expected; }

    /** Latch one bit. */
    void
    shift(bool bit)
    {
        accum = (accum << 1) | (bit ? 1 : 0);
        if (++seen == 4 && (accum & 0xF) == kFullAddressMarker)
            expected = 32;
    }

    /** Latch @p count bits of the @p bits-bit address @p word (as
     *  sent, MSB first) from its bit seen on -- a latch in step with
     *  the wire -- as @p count shift() calls would. */
    void
    shiftWord(std::uint32_t word, int bits, int count)
    {
        if (count <= 0)
            return;
        const std::uint64_t mask = (std::uint64_t(1) << count) - 1;
        accum = (accum << count) | ((word >> (bits - seen - count)) & mask);
        const int before = seen;
        seen += count;
        if (before < 4 && seen >= 4 &&
            ((accum >> (seen - 4)) & 0xF) == kFullAddressMarker)
            expected = 32;
    }

    /** This latch after the rest of the @p bits-bit address @p word,
     *  when it is in step with it (its first @p first bits latched,
     *  more to come) and reads the same length; none otherwise. */
    std::optional<AddressLatch>
    completedWith(std::uint32_t word, int bits, std::uint64_t first) const
    {
        if (static_cast<std::uint64_t>(seen) != first ||
            first >= static_cast<std::uint64_t>(bits))
            return std::nullopt;
        AddressLatch done = *this;
        done.shiftWord(word, bits, bits - seen);
        if (done.expected != bits)
            return std::nullopt;
        return done;
    }
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_ADDRESS_HH
