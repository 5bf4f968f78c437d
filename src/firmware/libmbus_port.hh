/**
 * @file
 * Port of the libmbus software-MBus member firmware (Sec 6.6).
 *
 * This is the interrupt-driven bit-bang FSM from libmbus's
 * `bitbang.c` / `bitbang.h` (the reference member implementation the
 * paper's software-MBus numbers come from), carried over state for
 * state: the `MBus_state_t` enum, the CLKIN/DIN interrupt handlers,
 * `MBus_send` / `MBus_run`, and the `MBus_error_t` error codes. The
 * C file's translation-unit statics become members of `LibMbus`, the
 * GPIO register accesses (`SET_*` / `GET_*` macros) become the
 * `set_gpio_val` / `get_gpio_val` callbacks of `MBus_t`, and the
 * interrupt-flag plumbing is owned by the caller: the harness invokes
 * `MBus_CLKIN_int_handler` / `MBus_DIN_int_handler` for each pin
 * edge, exactly as the MSP430 port's ISR trampolines do.
 *
 * Deliberate deviations from the C source, each pinned by a test:
 *  - `MBus_send` returns whether the request was actually driven
 *    (the engine was IDLE). The C version returns void and leaves
 *    the non-idle case an explicit TODO -- it silently overwrites
 *    the in-flight buffer registers. We preserve that stomp
 *    faithfully (tests/firmware pins it) and the simulation harness
 *    (`FirmwareNode`) queues above this layer so it never happens.
 *  - `MBus_run` events carry a snapshot of the receive bytes instead
 *    of a pointer into the live buffer, so a queued delivery cannot
 *    be clobbered by the next message.
 *  - The remote-interrupt request states that libmbus keeps for the
 *    mediator-side role (`ARB_RESERVED_LATCH`,
 *    `REQUESTING_INTERRUPT`, `REQUESTED_INTERRUPT`) stay in the enum
 *    for provenance but are unreachable in a member-only port.
 */

#ifndef MBUS_FIRMWARE_LIBMBUS_PORT_HH
#define MBUS_FIRMWARE_LIBMBUS_PORT_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "mbus/address.hh"

namespace mbus {
namespace firmware {

/** libmbus MBus_error_t, 1:1. */
enum MBus_error_t : std::uint8_t {
    MBUS_NO_ERROR = 0,
    MBUS_CLOCK_SYNCH_ERROR, ///< A CLK edge was missed (merged levels).
    MBUS_DATA_SYNCH_ERROR,  ///< TX bit did not echo around the ring.
    MBUS_RECV_OVERFLOW,     ///< Receive buffer exhausted mid-message.
    MBUS_INTERRUPTED,       ///< Message cut short by a third party.
};

/**
 * libmbus MBus_state_t. The state names the meaning of the *next*
 * CLK edge: DRIVE_* states act on a falling edge, LATCH_* and the
 * BEGIN_* states on a rising edge.
 */
enum MBus_state_t : std::uint8_t {
    MBUS_STATE_IDLE = 0,
    MBUS_STATE_PREARB,              ///< r1: latch arbitration winner.
    MBUS_STATE_ARBITRATION,         ///< f2: losers release / drive prio.
    MBUS_STATE_PRIO_DRIVE,          ///< r2: latch priority outcome.
    MBUS_STATE_PRIO_LATCH,          ///< f3: winner parks DOUT high.
    MBUS_STATE_ARB_RESERVED_DRIVE,  ///< r3: roles final.
    MBUS_STATE_ARB_RESERVED_LATCH,  ///< (mediator-side; unreachable)
    MBUS_STATE_DRIVE_SHORT_ADDR,
    MBUS_STATE_LATCH_SHORT_ADDR,
    MBUS_STATE_DRIVE_LONG_ADDR,
    MBUS_STATE_LATCH_LONG_ADDR,
    MBUS_STATE_DRIVE_DATA,
    MBUS_STATE_LATCH_DATA,
    MBUS_STATE_REQUEST_INTERRUPT,   ///< CLK held; waiting on mediator.
    MBUS_STATE_REQUESTING_INTERRUPT,///< (mediator-side; unreachable)
    MBUS_STATE_REQUESTED_INTERRUPT, ///< (mediator-side; unreachable)
    MBUS_STATE_PRE_BEGIN_CONTROL,   ///< f: first control falling edge.
    MBUS_STATE_BEGIN_CONTROL,       ///< r: control sequence armed.
    MBUS_STATE_DRIVE_CB0,           ///< f: transmitter drives EoM bit.
    MBUS_STATE_LATCH_CB0,           ///< r: latch control bit 0.
    MBUS_STATE_DRIVE_CB1,           ///< f: ACK / abort-code drive.
    MBUS_STATE_LATCH_CB1,           ///< r: latch bit 1, resolve.
    MBUS_STATE_DRIVE_IDLE,          ///< f: release all holds.
    MBUS_STATE_BEGIN_IDLE,          ///< r: back to IDLE.
    MBUS_STATE_ERROR,               ///< Clock synch lost; await control.
};

const char *mbusStateName(MBus_state_t s);

/** libmbus MBus_logical_t: this node's role in the live message. */
enum MBus_logical_t : std::uint8_t {
    MBUS_LOGICAL_FORWARD = 0,
    MBUS_LOGICAL_TRANSMIT,
    MBUS_LOGICAL_RECEIVE,
    MBUS_LOGICAL_RECEIVE_BROADCAST,
};

/** DIN edges seen under a high CLK before we call it an interjection. */
constexpr int kMBusNumInterruptEdges = 3;

/**
 * libmbus MBus_t: the port descriptor the firmware is initialized
 * with. GPIO pins are small integers the harness interprets; the
 * callbacks stand in for the memory-mapped register accesses.
 */
struct MBus_t
{
    int CLKIN_gpio = 0;
    int CLKOUT_gpio = 1;
    int DIN_gpio = 2;
    int DOUT_gpio = 3;

    std::uint8_t short_prefix = 0; ///< 4-bit; 0 = none assigned.
    std::uint32_t full_prefix = 0; ///< 20-bit; 0 = none assigned.
    std::size_t recv_capacity = 256; ///< Receive buffer bytes.

    std::function<void(int gpio, std::uint8_t val)> set_gpio_val;
    std::function<std::uint8_t(int gpio)> get_gpio_val;

    /** Transmit completion, delivered from MBus_run() context. */
    std::function<void(std::size_t bytes_sent, MBus_error_t err,
                       bool acked)>
        MBus_send_done;
    /** Message delivery, from MBus_run() context. @p end_of_message
     *  false means the bytes are a flagged truncated prefix. */
    std::function<void(std::uint32_t addr, int addr_bits,
                       const std::uint8_t *buf, std::size_t len,
                       MBus_error_t err, bool end_of_message)>
        MBus_recv;
};

/**
 * The member FSM. One instance == one `bitbang.c` translation unit:
 * every file-scope static in the C source is a member here.
 */
class LibMbus
{
  public:
    explicit LibMbus(MBus_t cfg);

    /** MBus_init(): reset all state, park both outputs high. */
    void MBus_init();

    /**
     * MBus_send(): register @p buf (address byte(s) first, then
     * payload -- the libmbus contract) and, if the engine is IDLE,
     * drive the bus request. @return true when the request was
     * driven; false means the engine was busy and the buffer
     * registers were overwritten anyway (the C source's TODO --
     * callers must not do this with a transmission in flight).
     * @p buf must stay alive until MBus_send_done fires.
     */
    bool MBus_send(const std::uint8_t *buf, std::size_t length,
                   bool priority);

    /** MBus_run(): dispatch one queued completion/delivery event.
     *  @return true if an event was dispatched (call again). */
    bool MBus_run();

    /** CLKIN edge ISR (the MSP430 port's PORT1 trampoline body). */
    void MBus_CLKIN_int_handler();
    /** DIN edge ISR. */
    void MBus_DIN_int_handler();

    // -- introspection for the harness and tests (not in the C API).
    MBus_state_t state() const { return state_; }
    MBus_logical_t logical() const { return logical_; }
    MBus_error_t error() const { return error_; }
    bool requesting() const
    {
        return state_ == MBUS_STATE_IDLE &&
               logical_ == MBUS_LOGICAL_TRANSMIT;
    }
    bool ctlBit0() const { return ctl_bit0; }
    bool ctlBit1() const { return ctl_bit1; }
    bool eventsPending() const { return !pending_.empty(); }
    int interruptCount() const { return interrupt_count; }
    const std::uint8_t *txBuf() const { return tx_buf; }

    // -- fast-forward (FirmwareNode; not in the C API).

    /** True at an address- or data-phase clock-high point: the next
     *  edge falls and drives (transmitter) or passes (forwarder, still
     *  latching the address or past it) a bit, with no interjection,
     *  error or hold outside the role's own. */
    bool
    steadyCycle() const
    {
        if (!last_clkin || !clk_forwarding || i_am_interjector ||
            error_ != MBUS_NO_ERROR)
            return false;
        if (state_ == MBUS_STATE_DRIVE_DATA && tx_active)
            return logical_ == MBUS_LOGICAL_TRANSMIT && holding_dout;
        return (state_ == MBUS_STATE_DRIVE_DATA || latchingAddress()) &&
               logical_ == MBUS_LOGICAL_FORWARD && !holding_dout;
    }
    /** True while a forwarder still latches the address. */
    bool
    latchingAddress() const
    {
        return state_ == MBUS_STATE_DRIVE_SHORT_ADDR ||
               state_ == MBUS_STATE_DRIVE_LONG_ADDR;
    }
    bool txActive() const { return tx_active; }
    /** Buffer bits (address included) a transmitter has driven. */
    std::size_t
    txBitsDriven() const
    {
        return 8 * tx_byte_idx + static_cast<std::size_t>(7 - tx_bit_idx);
    }
    std::size_t txLength() const { return tx_length; }

    /**
     * Whole cycles a forwarder still latching the address may skip
     * while the @p bits-bit address @p word goes by, from its bit
     * @p first: unbounded when the address leaves it forwarding, up to
     * its last address cycle when it makes it a receiver, and 0 out of
     * step with the wire or reading another length.
     */
    std::uint64_t addressCyclesSkippable(std::uint32_t word, int bits,
                                         std::uint64_t first) const;

    /**
     * Closed form of @p cycles steady cycles (two CLK handlers each,
     * plus a DIN handler per DATA transition), ending with DIN at
     * @p din: a forwarder still latching shifts in the bits of the
     * @p addrBits-bit wire address @p addr the cycles carry and
     * resolves it at its last; past it a forwarder's state is
     * unchanged but for the pin bookkeeping; a transmitter also
     * advances its buffer position and last driven bit.
     */
    void skipCycles(std::uint64_t cycles, bool din, std::uint32_t addr,
                    int addrBits);

  private:
    struct Event
    {
        bool is_recv = false;
        // send_done fields.
        std::size_t bytes_sent = 0;
        bool acked = false;
        // recv fields.
        std::uint32_t addr = 0;
        int addr_bits = 0;
        std::vector<std::uint8_t> data;
        bool end_of_message = false;
        // shared.
        MBus_error_t err = MBUS_NO_ERROR;
    };

    bool GET_CLKIN() const { return cfg_.get_gpio_val(cfg_.CLKIN_gpio) != 0; }
    bool GET_DIN() const { return cfg_.get_gpio_val(cfg_.DIN_gpio) != 0; }
    void SET_CLKOUT_TO(bool v) { cfg_.set_gpio_val(cfg_.CLKOUT_gpio, v); }
    void SET_DOUT_TO(bool v) { cfg_.set_gpio_val(cfg_.DOUT_gpio, v); }

    void resetTransactionState();
    /** The role the complete @p bits-bit address @p addr gives this
     *  member. */
    MBus_logical_t addressRole(std::uint32_t addr, int bits) const;
    void resolveAddress();
    /** The address latch as a bus::AddressLatch. */
    bus::AddressLatch
    latch() const
    {
        return {addr_accum, addr_bits_seen, addr_bits_expected};
    }
    void requestInterjection(bool end_of_message);
    void enterControl();
    void enterError(bool clkin);
    void resolveControl();
    void handleRisingClk();
    void handleFallingClk();
    bool inControlChain() const;

    MBus_t cfg_;

    // --- bitbang.c file-scope statics, verbatim roles. ---
    MBus_state_t state_ = MBUS_STATE_IDLE;
    MBus_logical_t logical_ = MBUS_LOGICAL_FORWARD;
    MBus_error_t error_ = MBUS_NO_ERROR;

    bool last_clkin = true; ///< Bus idles high.
    bool last_din = true;
    int interrupt_count = 0;

    bool clk_forwarding = true; ///< CLKIN -> CLKOUT pass-through.
    bool holding_dout = false;  ///< DOUT held; DIN not forwarded.

    // Arbitration.
    bool won_arb = false;
    bool won_priority = false;
    bool backed_off = false;
    bool priority_driven = false;

    // Transmit.
    const std::uint8_t *tx_buf = nullptr;
    std::size_t tx_length = 0;
    bool tx_priority = false;
    bool tx_active = false;
    std::size_t tx_byte_idx = 0;
    int tx_bit_idx = 7;
    bool last_dout = true;

    // Address latch.
    std::uint64_t addr_accum = 0;
    int addr_bits_seen = 0;
    int addr_bits_expected = 8;
    std::uint32_t rx_addr = 0;
    int rx_addr_bits = 0;

    // Receive.
    std::vector<std::uint8_t> recv_buf;
    std::size_t rx_byte_idx = 0;
    int rx_bit_idx = 0;
    std::uint8_t rx_bit_buf = 0;

    // Interjection / control.
    bool i_am_interjector = false;
    bool interjector_eom = false;
    bool ctl_bit0 = false;
    bool ctl_bit1 = false;

    std::deque<Event> pending_;
};

} // namespace firmware
} // namespace mbus

#endif // MBUS_FIRMWARE_LIBMBUS_PORT_HH
