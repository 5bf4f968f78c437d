/**
 * @file
 * MBus protocol constants and enums shared by all bus components.
 *
 * Cycle counts follow Section 6.1 of the paper exactly: arbitration
 * (3 cycles: arbitrate, priority-arbitrate, reserved), addressing
 * (8 short / 32 full), interjection (5 cycle-times), and control (3
 * cycles), for a length-independent overhead of 19 or 43 cycles.
 */

#ifndef MBUS_BUS_PROTOCOL_HH
#define MBUS_BUS_PROTOCOL_HH

#include <cstdint>

namespace mbus {
namespace bus {

// --- Cycle accounting (Sec 6.1) --------------------------------------

/** Arbitration phase: arbitrate + priority + reserved. */
constexpr int kCyclesArbitration = 3;
/** Short addressing: one byte on the wire. */
constexpr int kCyclesAddrShort = 8;
/** Full addressing: one 32-bit word on the wire. */
constexpr int kCyclesAddrFull = 32;
/** Interjection: detect + three DATA pulses + resume. */
constexpr int kCyclesInterjection = 5;
/** Control: sync + two control bits. */
constexpr int kCyclesControl = 3;

/** Total protocol overhead with short addressing (19). */
constexpr int kOverheadShortBits =
    kCyclesArbitration + kCyclesAddrShort + kCyclesInterjection +
    kCyclesControl;
/** Total protocol overhead with full addressing (43). */
constexpr int kOverheadFullBits =
    kCyclesArbitration + kCyclesAddrFull + kCyclesInterjection +
    kCyclesControl;

static_assert(kOverheadShortBits == 19, "Sec 6.1: short overhead is 19");
static_assert(kOverheadFullBits == 43, "Sec 6.1: full overhead is 43");

// --- Address space (Secs 4.6, 4.7) -----------------------------------

/** Short prefix reserved for broadcast messages. */
constexpr std::uint8_t kBroadcastPrefix = 0x0;
/** Short prefix reserved to introduce a full address. */
constexpr std::uint8_t kFullAddressMarker = 0xF;
/** Usable short prefixes per system (16 minus broadcast and 0xF). */
constexpr int kUsableShortPrefixes = 14;
/** Width of a full prefix in bits (2^20 chip designs). */
constexpr int kFullPrefixBits = 20;
/** Width of a functional unit id in bits. */
constexpr int kFuIdBits = 4;

// --- Well-known broadcast channels ------------------------------------

/** Broadcast channel used by run-time enumeration (Sec 4.7). */
constexpr std::uint8_t kChannelEnumerate = 0x0;
/** Broadcast channel carrying bus configuration messages (Sec 7). */
constexpr std::uint8_t kChannelConfig = 0x1;
/** First channel free for application use. */
constexpr std::uint8_t kChannelUserBase = 0x2;

// --- Policy constants (Sec 7) -----------------------------------------

/** Minimum value a mediator's maximum-message-length may take: 1 kB. */
constexpr std::size_t kMinMaxMessageBytes = 1024;

/**
 * Progress guarantee: an arbitration winner may send at least this
 * many payload bytes before another node may interject it.
 */
constexpr std::size_t kMinProgressBytes = 4;

// --- Control phase encoding (Sec 4.9, Figs 6 and 7) -------------------

/**
 * The two control bits, as (bit0, bit1) pairs.
 *
 * Bit 0 is driven by the interjector and states whether the message
 * completed; bit 1 carries the acknowledgment (driven low to ACK, per
 * Figure 7 event 6).
 */
enum class ControlCode : std::uint8_t {
    AckEom = 0b10,       ///< bit0=1 (EoM), bit1=0 (receiver ACK'd).
    NakEom = 0b11,       ///< bit0=1 (EoM), bit1=1 (no ACK).
    GeneralError = 0b00, ///< bit0=0, bit1=0 (mediator-signalled).
    Abort = 0b01,        ///< bit0=0, bit1=1 (receiver/third-party).
};

/** Build a ControlCode from the two latched control bits. */
constexpr ControlCode
controlCodeFromBits(bool bit0, bool bit1)
{
    return static_cast<ControlCode>((bit0 ? 0b10 : 0) | (bit1 ? 0b01 : 0));
}

/** Final status of a transmission attempt, as seen by the sender. */
enum class TxStatus : std::uint8_t {
    Ack,          ///< Message delivered and acknowledged.
    Nak,          ///< Message sent; no acknowledgment.
    Broadcast,    ///< Broadcast sent (broadcasts are not ACK'd).
    Interrupted,  ///< A third party interjected mid-message.
    RxAbort,      ///< The receiver aborted (e.g. buffer overrun).
    GeneralError, ///< Mediator signalled an error (incl. watchdog).
    LostArbitration, ///< Internal: retried automatically.
    Reset,        ///< Killed by a bus reset: the node browned out
                  ///< with the message in flight, or the watchdog
                  ///< tore the transfer down to reclaim the bus.
};

/** @return a printable name for a TX status. */
const char *txStatusName(TxStatus status);

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_PROTOCOL_HH
