#include "firmware/libmbus_port.hh"

#include <algorithm>

#include "mbus/protocol.hh"

namespace mbus {
namespace firmware {

const char *
mbusStateName(MBus_state_t s)
{
    switch (s) {
      case MBUS_STATE_IDLE: return "IDLE";
      case MBUS_STATE_PREARB: return "PREARB";
      case MBUS_STATE_ARBITRATION: return "ARBITRATION";
      case MBUS_STATE_PRIO_DRIVE: return "PRIO_DRIVE";
      case MBUS_STATE_PRIO_LATCH: return "PRIO_LATCH";
      case MBUS_STATE_ARB_RESERVED_DRIVE: return "ARB_RESERVED_DRIVE";
      case MBUS_STATE_ARB_RESERVED_LATCH: return "ARB_RESERVED_LATCH";
      case MBUS_STATE_DRIVE_SHORT_ADDR: return "DRIVE_SHORT_ADDR";
      case MBUS_STATE_LATCH_SHORT_ADDR: return "LATCH_SHORT_ADDR";
      case MBUS_STATE_DRIVE_LONG_ADDR: return "DRIVE_LONG_ADDR";
      case MBUS_STATE_LATCH_LONG_ADDR: return "LATCH_LONG_ADDR";
      case MBUS_STATE_DRIVE_DATA: return "DRIVE_DATA";
      case MBUS_STATE_LATCH_DATA: return "LATCH_DATA";
      case MBUS_STATE_REQUEST_INTERRUPT: return "REQUEST_INTERRUPT";
      case MBUS_STATE_REQUESTING_INTERRUPT:
          return "REQUESTING_INTERRUPT";
      case MBUS_STATE_REQUESTED_INTERRUPT:
          return "REQUESTED_INTERRUPT";
      case MBUS_STATE_PRE_BEGIN_CONTROL: return "PRE_BEGIN_CONTROL";
      case MBUS_STATE_BEGIN_CONTROL: return "BEGIN_CONTROL";
      case MBUS_STATE_DRIVE_CB0: return "DRIVE_CB0";
      case MBUS_STATE_LATCH_CB0: return "LATCH_CB0";
      case MBUS_STATE_DRIVE_CB1: return "DRIVE_CB1";
      case MBUS_STATE_LATCH_CB1: return "LATCH_CB1";
      case MBUS_STATE_DRIVE_IDLE: return "DRIVE_IDLE";
      case MBUS_STATE_BEGIN_IDLE: return "BEGIN_IDLE";
      case MBUS_STATE_ERROR: return "ERROR";
    }
    return "?";
}

LibMbus::LibMbus(MBus_t cfg) : cfg_(std::move(cfg))
{
    recv_buf.resize(cfg_.recv_capacity);
}

void
LibMbus::MBus_init()
{
    state_ = MBUS_STATE_IDLE;
    logical_ = MBUS_LOGICAL_FORWARD;
    error_ = MBUS_NO_ERROR;
    last_clkin = true;
    last_din = true;
    interrupt_count = 0;
    clk_forwarding = true;
    holding_dout = false;
    tx_buf = nullptr;
    tx_active = false;
    i_am_interjector = false;
    interjector_eom = false;
    pending_.clear();
    // The bus idles high on both lines.
    SET_CLKOUT_TO(true);
    SET_DOUT_TO(true);
    last_dout = true;
}

bool
LibMbus::MBus_send(const std::uint8_t *buf, std::size_t length,
                   bool priority)
{
    // Faithful to bitbang.c: the buffer registers are overwritten
    // unconditionally. Calling this with a transmission in flight
    // stomps it mid-message (the C source's "what if not idle?" TODO)
    // -- FirmwareNode queues above this layer so it never does.
    tx_buf = buf;
    tx_length = length;
    tx_priority = priority;
    tx_byte_idx = 0;
    tx_bit_idx = 7;
    if (state_ == MBUS_STATE_IDLE) {
        logical_ = MBUS_LOGICAL_TRANSMIT;
        holding_dout = true;
        SET_DOUT_TO(false); // Request the bus.
        last_dout = false;
        return true;
    }
    return false;
}

bool
LibMbus::MBus_run()
{
    if (pending_.empty())
        return false;
    Event e = std::move(pending_.front());
    pending_.pop_front();
    if (e.is_recv) {
        if (cfg_.MBus_recv)
            cfg_.MBus_recv(e.addr, e.addr_bits, e.data.data(),
                           e.data.size(), e.err, e.end_of_message);
    } else {
        if (cfg_.MBus_send_done)
            cfg_.MBus_send_done(e.bytes_sent, e.err, e.acked);
    }
    return true;
}

std::uint64_t
LibMbus::addressCyclesSkippable(std::uint32_t word, int bits,
                                std::uint64_t first) const
{
    const std::optional<bus::AddressLatch> done =
        latch().completedWith(word, bits, first);
    if (!done)
        return 0;
    if (addressRole(static_cast<std::uint32_t>(done->accum), bits) ==
        MBUS_LOGICAL_FORWARD)
        return ~std::uint64_t(0);
    return static_cast<std::uint64_t>(bits) - first;
}

void
LibMbus::skipCycles(std::uint64_t cycles, bool din, std::uint32_t addr,
                    int addrBits)
{
    // Every cycle ends on a rising CLK handler (which clears the
    // interjection count); DIN handlers run under a low CLK and only
    // record the level.
    last_clkin = true;
    last_din = din;
    interrupt_count = 0;
    if (cycles == 0)
        return;
    if (latchingAddress()) {
        bus::AddressLatch l = latch();
        l.shiftWord(addr, addrBits,
                    static_cast<int>(std::min<std::uint64_t>(
                        cycles, static_cast<std::uint64_t>(
                                    addrBits - addr_bits_seen))));
        addr_accum = l.accum;
        addr_bits_seen = l.seen;
        addr_bits_expected = l.expected;
        if (l.complete()) {
            resolveAddress();
            state_ = MBUS_STATE_DRIVE_DATA;
        } else {
            state_ = l.expected == 32 ? MBUS_STATE_DRIVE_LONG_ADDR
                                      : MBUS_STATE_DRIVE_SHORT_ADDR;
        }
    }
    if (!tx_active)
        return;
    const std::size_t next = txBitsDriven() + cycles;
    const std::size_t last = next - 1;
    last_dout = ((tx_buf[last / 8] >> (7 - last % 8)) & 1) != 0;
    tx_byte_idx = next / 8;
    tx_bit_idx = 7 - static_cast<int>(next % 8);
}

bool
LibMbus::inControlChain() const
{
    switch (state_) {
      case MBUS_STATE_PRE_BEGIN_CONTROL:
      case MBUS_STATE_BEGIN_CONTROL:
      case MBUS_STATE_DRIVE_CB0:
      case MBUS_STATE_LATCH_CB0:
      case MBUS_STATE_DRIVE_CB1:
      case MBUS_STATE_LATCH_CB1:
      case MBUS_STATE_DRIVE_IDLE:
      case MBUS_STATE_BEGIN_IDLE:
        return true;
      default:
        return false;
    }
}

void
LibMbus::resetTransactionState()
{
    won_arb = false;
    won_priority = false;
    backed_off = false;
    priority_driven = false;
    addr_accum = 0;
    addr_bits_seen = 0;
    addr_bits_expected = 8;
    rx_byte_idx = 0;
    rx_bit_idx = 0;
    rx_bit_buf = 0;
    tx_active = false;
    error_ = MBUS_NO_ERROR;
    i_am_interjector = false;
    interjector_eom = false;
}

void
LibMbus::requestInterjection(bool end_of_message)
{
    i_am_interjector = true;
    interjector_eom = end_of_message;
    clk_forwarding = false; // Park CLKOUT; the mediator takes over.
    state_ = MBUS_STATE_REQUEST_INTERRUPT;
}

void
LibMbus::enterError(bool clkin)
{
    // Clock synchronization lost: release every hold so the rest of
    // the ring keeps working, and wait for the next control sequence
    // to resynchronize. A live transmission reports the error then.
    error_ = MBUS_CLOCK_SYNCH_ERROR;
    clk_forwarding = true;
    SET_CLKOUT_TO(clkin);
    holding_dout = false;
    SET_DOUT_TO(last_din);
    state_ = MBUS_STATE_ERROR;
}

void
LibMbus::enterControl()
{
    // An interjection: whoever held anything releases it so the
    // mediator's control pulses propagate the whole ring, and
    // everyone byte-aligns.
    if (!tx_active && logical_ == MBUS_LOGICAL_TRANSMIT) {
        // A bus request that never reached arbitration is squashed;
        // the caller re-issues it from the next idle window.
        logical_ = MBUS_LOGICAL_FORWARD;
    }
    if (state_ == MBUS_STATE_IDLE) {
        // No transaction was live: fresh control entry.
        logical_ = MBUS_LOGICAL_FORWARD;
        i_am_interjector = false;
        interjector_eom = false;
        rx_byte_idx = 0;
        error_ = MBUS_NO_ERROR;
    }
    clk_forwarding = true;
    SET_CLKOUT_TO(last_clkin);
    holding_dout = false;
    SET_DOUT_TO(last_din);
    rx_bit_idx = 0; // Byte alignment: drop any partial byte.
    rx_bit_buf = 0;
    ctl_bit0 = false;
    ctl_bit1 = false;
    state_ = MBUS_STATE_PRE_BEGIN_CONTROL;
}

void
LibMbus::MBus_DIN_int_handler()
{
    const bool din = GET_DIN();
    last_din = din;
    if (!holding_dout)
        SET_DOUT_TO(din); // Software forwarding.

    // Interjection detector: DIN edges count only while CLK is high.
    if (!last_clkin)
        return;
    if (++interrupt_count >= kMBusNumInterruptEdges &&
        !inControlChain())
        enterControl();
}

void
LibMbus::MBus_CLKIN_int_handler()
{
    const bool clkin = GET_CLKIN();
    if (clkin == last_clkin) {
        // The level did not change: an edge was merged into this one
        // while the ISR was pending (only possible past the clock
        // envelope). Mid-transaction that is fatal for bit framing.
        last_clkin = clkin;
        interrupt_count = 0;
        if (state_ == MBUS_STATE_IDLE || state_ == MBUS_STATE_ERROR)
            return; // Nothing observable was lost.
        enterError(clkin);
        return;
    }
    last_clkin = clkin;
    interrupt_count = 0;
    if (clk_forwarding)
        SET_CLKOUT_TO(clkin);
    if (clkin)
        handleRisingClk();
    else
        handleFallingClk();
}

MBus_logical_t
LibMbus::addressRole(std::uint32_t addr, int bits) const
{
    if (bits == 8) {
        std::uint8_t prefix = (addr >> 4) & 0xF;
        if (prefix == bus::kBroadcastPrefix)
            return MBUS_LOGICAL_RECEIVE_BROADCAST;
        if (cfg_.short_prefix != 0 && prefix == cfg_.short_prefix)
            return MBUS_LOGICAL_RECEIVE;
    } else {
        std::uint32_t fp = (addr >> 8) & 0xFFFFF;
        if (cfg_.full_prefix != 0 && fp == cfg_.full_prefix)
            return MBUS_LOGICAL_RECEIVE;
    }
    return logical_;
}

void
LibMbus::resolveAddress()
{
    rx_addr = static_cast<std::uint32_t>(addr_accum);
    rx_addr_bits = addr_bits_expected;
    logical_ = addressRole(rx_addr, rx_addr_bits);
}

void
LibMbus::resolveControl()
{
    if (tx_active) {
        Event e;
        e.is_recv = false;
        MBus_error_t err = error_;
        if (err == MBUS_NO_ERROR && !ctl_bit0 && ctl_bit1)
            err = MBUS_INTERRUPTED;
        e.err = err;
        e.acked = err == MBUS_NO_ERROR && ctl_bit0 && !ctl_bit1;
        // Complete buffer bytes that went out on the wire. Clean
        // terminations sent everything by construction.
        e.bytes_sent = (ctl_bit0 && error_ == MBUS_NO_ERROR)
                           ? tx_length
                           : tx_byte_idx;
        pending_.push_back(std::move(e));
        tx_buf = nullptr;
        tx_active = false;
    } else if (logical_ == MBUS_LOGICAL_RECEIVE ||
               logical_ == MBUS_LOGICAL_RECEIVE_BROADCAST) {
        bool eom = ctl_bit0;
        bool abortCode = !ctl_bit0 && ctl_bit1;
        if (eom || (abortCode && rx_byte_idx > 0)) {
            Event e;
            e.is_recv = true;
            e.addr = rx_addr;
            e.addr_bits = rx_addr_bits;
            e.data.assign(recv_buf.begin(),
                          recv_buf.begin() +
                              static_cast<std::ptrdiff_t>(rx_byte_idx));
            e.end_of_message = eom;
            e.err = error_ == MBUS_RECV_OVERFLOW
                        ? MBUS_RECV_OVERFLOW
                        : (eom ? MBUS_NO_ERROR : MBUS_INTERRUPTED);
            pending_.push_back(std::move(e));
        }
    }
}

void
LibMbus::handleFallingClk()
{
    switch (state_) {
      case MBUS_STATE_IDLE:
        // First falling edge of a transaction.
        resetTransactionState();
        state_ = MBUS_STATE_PREARB;
        break;

      case MBUS_STATE_ARBITRATION:
        if (logical_ == MBUS_LOGICAL_TRANSMIT && !won_arb) {
            if (tx_priority) {
                // Lost the main round with a priority message: claim
                // the priority cycle by driving high.
                priority_driven = true;
                holding_dout = true;
                SET_DOUT_TO(true);
                last_dout = true;
            } else {
                holding_dout = false;
                SET_DOUT_TO(GET_DIN()); // Release the request.
            }
        }
        state_ = MBUS_STATE_PRIO_DRIVE;
        break;

      case MBUS_STATE_PRIO_LATCH:
        if (won_arb || won_priority) {
            holding_dout = true;
            SET_DOUT_TO(true); // Reserved cycle: park high.
            last_dout = true;
        } else if (backed_off || priority_driven) {
            holding_dout = false;
            SET_DOUT_TO(GET_DIN()); // Cede to the winner.
        }
        state_ = MBUS_STATE_ARB_RESERVED_DRIVE;
        break;

      case MBUS_STATE_DRIVE_SHORT_ADDR:
        state_ = MBUS_STATE_LATCH_SHORT_ADDR;
        break;
      case MBUS_STATE_DRIVE_LONG_ADDR:
        state_ = MBUS_STATE_LATCH_LONG_ADDR;
        break;

      case MBUS_STATE_DRIVE_DATA:
        if (tx_active) {
            bool bit =
                ((tx_buf[tx_byte_idx] >> tx_bit_idx) & 1) != 0;
            SET_DOUT_TO(bit);
            last_dout = bit;
            if (tx_bit_idx == 0) {
                tx_bit_idx = 7;
                ++tx_byte_idx;
            } else {
                --tx_bit_idx;
            }
        }
        state_ = MBUS_STATE_LATCH_DATA;
        break;

      case MBUS_STATE_PRE_BEGIN_CONTROL:
        state_ = MBUS_STATE_BEGIN_CONTROL;
        break;
      case MBUS_STATE_DRIVE_CB0:
        if (tx_active) {
            // Bit 0: clean end-of-message is high; a transmitter cut
            // by a third party (or by its own error) drives low.
            holding_dout = true;
            SET_DOUT_TO(i_am_interjector && interjector_eom);
            last_dout = i_am_interjector && interjector_eom;
        }
        state_ = MBUS_STATE_LATCH_CB0;
        break;
      case MBUS_STATE_DRIVE_CB1:
        if (tx_active) {
            holding_dout = false;
            SET_DOUT_TO(GET_DIN()); // Hand DATA back to the ring.
        }
        if (logical_ == MBUS_LOGICAL_RECEIVE && ctl_bit0) {
            holding_dout = true;
            SET_DOUT_TO(false); // ACK (unicast receive only).
            last_dout = false;
        }
        if (i_am_interjector && !tx_active) {
            holding_dout = true;
            SET_DOUT_TO(true); // Abort code {0,1}.
            last_dout = true;
        }
        state_ = MBUS_STATE_LATCH_CB1;
        break;
      case MBUS_STATE_DRIVE_IDLE:
        holding_dout = false;
        SET_DOUT_TO(GET_DIN()); // Release everything.
        state_ = MBUS_STATE_BEGIN_IDLE;
        break;

      case MBUS_STATE_REQUEST_INTERRUPT:
      case MBUS_STATE_ERROR:
        break; // Waiting for the mediator's control sequence.

      default:
        // A latch/begin state saw a falling edge: only reachable
        // through a missed edge, which the synch check catches first.
        break;
    }
}

void
LibMbus::handleRisingClk()
{
    switch (state_) {
      case MBUS_STATE_PREARB:
        if (logical_ == MBUS_LOGICAL_TRANSMIT)
            won_arb = GET_DIN();
        state_ = MBUS_STATE_ARBITRATION;
        break;

      case MBUS_STATE_PRIO_DRIVE:
        if (won_arb && GET_DIN()) {
            // Priority request upstream: back off (release at the
            // next falling edge).
            won_arb = false;
            backed_off = true;
        } else if (priority_driven) {
            won_priority = !GET_DIN();
        }
        state_ = MBUS_STATE_PRIO_LATCH;
        break;

      case MBUS_STATE_ARB_RESERVED_DRIVE:
        if (won_arb || won_priority) {
            tx_active = true;
            tx_byte_idx = 0;
            tx_bit_idx = 7;
            state_ = MBUS_STATE_DRIVE_DATA;
        } else {
            if (logical_ == MBUS_LOGICAL_TRANSMIT) {
                // Lost arbitration: forward this message, retry from
                // the next idle window (the caller re-issues).
                logical_ = MBUS_LOGICAL_FORWARD;
            }
            state_ = MBUS_STATE_DRIVE_SHORT_ADDR;
        }
        break;

      case MBUS_STATE_LATCH_SHORT_ADDR:
      case MBUS_STATE_LATCH_LONG_ADDR: {
        addr_accum = (addr_accum << 1) | (GET_DIN() ? 1 : 0);
        ++addr_bits_seen;
        if (addr_bits_seen == 4 &&
            (addr_accum & 0xF) == bus::kFullAddressMarker)
            addr_bits_expected = 32;
        if (addr_bits_seen == addr_bits_expected) {
            resolveAddress();
            state_ = MBUS_STATE_DRIVE_DATA;
        } else {
            state_ = addr_bits_expected == 32
                         ? MBUS_STATE_DRIVE_LONG_ADDR
                         : MBUS_STATE_DRIVE_SHORT_ADDR;
        }
        break;
      }

      case MBUS_STATE_LATCH_DATA:
        if (tx_active) {
            if (GET_DIN() != last_dout) {
                // The bit echoed around the ring disagrees with what
                // we drove.
                error_ = MBUS_DATA_SYNCH_ERROR;
                requestInterjection(false);
                break;
            }
            if (tx_byte_idx >= tx_length) {
                requestInterjection(true); // End of message.
                break;
            }
            state_ = MBUS_STATE_DRIVE_DATA;
        } else if (logical_ == MBUS_LOGICAL_RECEIVE ||
                   logical_ == MBUS_LOGICAL_RECEIVE_BROADCAST) {
            rx_bit_buf = static_cast<std::uint8_t>(
                (rx_bit_buf << 1) | (GET_DIN() ? 1 : 0));
            if (++rx_bit_idx == 8) {
                rx_bit_idx = 0;
                if (rx_byte_idx >= recv_buf.size()) {
                    error_ = MBUS_RECV_OVERFLOW;
                    requestInterjection(false);
                    break;
                }
                recv_buf[rx_byte_idx++] = rx_bit_buf;
                rx_bit_buf = 0;
            }
            state_ = MBUS_STATE_DRIVE_DATA;
        } else {
            state_ = MBUS_STATE_DRIVE_DATA;
        }
        break;

      case MBUS_STATE_BEGIN_CONTROL:
        state_ = MBUS_STATE_DRIVE_CB0;
        break;
      case MBUS_STATE_LATCH_CB0:
        ctl_bit0 = GET_DIN();
        state_ = MBUS_STATE_DRIVE_CB1;
        break;
      case MBUS_STATE_LATCH_CB1:
        ctl_bit1 = GET_DIN();
        resolveControl();
        state_ = MBUS_STATE_DRIVE_IDLE;
        break;
      case MBUS_STATE_BEGIN_IDLE:
        state_ = MBUS_STATE_IDLE;
        logical_ = MBUS_LOGICAL_FORWARD;
        i_am_interjector = false;
        interjector_eom = false;
        error_ = MBUS_NO_ERROR;
        break;

      case MBUS_STATE_REQUEST_INTERRUPT:
      case MBUS_STATE_ERROR:
        break; // Waiting for the mediator's control sequence.

      default:
        break;
    }
}

} // namespace firmware
} // namespace mbus
