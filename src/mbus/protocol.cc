#include "mbus/protocol.hh"

namespace mbus {
namespace bus {

const char *
txStatusName(TxStatus status)
{
    switch (status) {
      case TxStatus::Ack: return "ACK";
      case TxStatus::Nak: return "NAK";
      case TxStatus::Broadcast: return "BROADCAST";
      case TxStatus::Interrupted: return "INTERRUPTED";
      case TxStatus::RxAbort: return "RX_ABORT";
      case TxStatus::GeneralError: return "GENERAL_ERROR";
      case TxStatus::LostArbitration: return "LOST_ARBITRATION";
      case TxStatus::Reset: return "RESET";
      default: return "?";
    }
}

} // namespace bus
} // namespace mbus
