/**
 * @file
 * Messages and transaction results.
 *
 * MBus messages carry no source address and no length field: the
 * destination address goes on the wire, then payload bytes until the
 * transmitter interjects. Reliability is transaction-level: the
 * receiver implicitly ACKs every byte by not interjecting (Sec 4.8).
 */

#ifndef MBUS_BUS_MESSAGE_HH
#define MBUS_BUS_MESSAGE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mbus/address.hh"
#include "mbus/protocol.hh"
#include "sim/types.hh"

namespace mbus {
namespace bus {

/** A message queued for transmission. */
struct Message
{
    Address dest;                      ///< Destination address.
    std::vector<std::uint8_t> payload; ///< Byte-aligned payload.
    bool priority = false; ///< Use the priority-arbitration cycle.

    /** Wire bits for this message: address + payload (Sec 6.1). */
    int
    wireDataBits() const
    {
        return dest.bitCount() + 8 * static_cast<int>(payload.size());
    }

    /** Total bus cycles including protocol overhead (19/43 + 8n). */
    int
    totalCycles() const
    {
        int overhead = dest.isFull() ? kOverheadFullBits
                                     : kOverheadShortBits;
        return overhead + 8 * static_cast<int>(payload.size());
    }
};

/**
 * Node-local error surface, mirroring libmbus's MBus_error_t 1:1.
 *
 * TxStatus carries the wire-level outcome (the control-bit code
 * points every member sees); LocalError carries what the node itself
 * detected, so truncation, overflow, and synchronization loss stay
 * distinguishable at the delivery boundary.
 */
enum class LocalError : std::uint8_t
{
    None = 0,
    ClockSynch,   ///< MBUS_CLOCK_SYNCH_ERROR: missed/merged CLK edge.
    DataSynch,    ///< MBUS_DATA_SYNCH_ERROR: TX bit echo mismatch.
    RecvOverflow, ///< MBUS_RECV_OVERFLOW: receive buffer exhausted.
    Interrupted,  ///< MBUS_INTERRUPTED: cut short by a third party.
};

/** Completion record handed to the sender's callback. */
struct TxResult
{
    TxStatus status = TxStatus::GeneralError;
    std::size_t bytesSent = 0;        ///< Payload bytes fully sent.
    std::size_t arbitrationRetries = 0;
    LocalError error = LocalError::None; ///< Sender-local error code.
    sim::SimTime completedAt = 0;
};

/** Sender-side completion callback. */
using SendCallback = std::function<void(const TxResult &)>;

/** A message delivered to a receiving node's layer controller. */
struct ReceivedMessage
{
    Address dest;                      ///< Address it matched on.
    std::vector<std::uint8_t> payload; ///< Complete bytes received.
    bool interjected = false; ///< True if the message ended abnormally.
    LocalError error = LocalError::None; ///< Receiver-local error code.
    sim::SimTime receivedAt = 0;
};

/** Receiver-side delivery callback. */
using ReceiveCallback = std::function<void(const ReceivedMessage &)>;

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_MESSAGE_HH
