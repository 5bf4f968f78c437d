/**
 * @file
 * The generic layer controller (Figure 8).
 *
 * "The generic layer controller provides a simple register/memory
 * interface for a node, but its design is not specific to MBus."
 *
 * Functional unit conventions (our documented mapping; the paper
 * leaves FU semantics to each chip):
 *
 *   FU 0  register write   payload = { reg_addr, d[23:16], d[15:8],
 *                          d[7:0] } repeated
 *   FU 1  memory write     payload = 4-byte big-endian word address
 *                          followed by 4-byte data words
 *   FU 2  memory read      payload = { addr[4], len_words[4],
 *                          reply_addr_byte } -- the layer streams the
 *                          requested words back as a memory-write
 *                          message to the reply address
 *   FU 7  mailbox          payload handed to the application callback
 *
 * Broadcast channel 0 carries enumeration (handled by the node),
 * channel 1 carries bus configuration, channels >= 2 are delivered to
 * the application's broadcast handler.
 */

#ifndef MBUS_BUS_LAYER_CONTROLLER_HH
#define MBUS_BUS_LAYER_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "mbus/config.hh"
#include "mbus/message.hh"
#include "power/domain.hh"
#include "sim/simulator.hh"

namespace mbus {
namespace bus {

class BusController;

/** Well-known functional unit ids used by the generic layer. */
enum : std::uint8_t {
    kFuRegisterWrite = 0,
    kFuMemoryWrite = 1,
    kFuMemoryRead = 2,
    kFuMailbox = 7,
};

/**
 * Generic register-file + memory layer behind an MBus frontend.
 */
class LayerController
{
  public:
    /** Application handler for mailbox messages. */
    using MailboxHandler = std::function<void(const ReceivedMessage &)>;
    /** Application handler for broadcast messages (channel >= 2). */
    using BroadcastHandler =
        std::function<void(std::uint8_t channel, const ReceivedMessage &)>;

    /** @p sysCfg is the live system configuration (its watchdog
     *  limit and clock bound memory-read replies). */
    LayerController(sim::Simulator &sim, BusController &bus,
                    power::PowerDomain &layerDomain,
                    const SystemConfig &sysCfg);

    /** Entry point wired to the bus controller's receive callback. */
    void onReceive(const ReceivedMessage &rx);

    // --- Register file (256 x 24-bit) --------------------------------

    std::uint32_t readRegister(std::uint8_t addr) const;
    void writeRegister(std::uint8_t addr, std::uint32_t value24);

    // --- Word-addressed memory (sparse) --------------------------------

    std::uint32_t readMemory(std::uint32_t wordAddr) const;
    void writeMemory(std::uint32_t wordAddr, std::uint32_t value);

    // --- Application hooks ----------------------------------------------

    void setMailboxHandler(MailboxHandler fn) { mailbox_ = std::move(fn); }
    void
    setBroadcastHandler(BroadcastHandler fn)
    {
        broadcast_ = std::move(fn);
    }

    /** Add a handler consulted before the generic dispatch (returns
     *  true if it consumed the message). Handlers run in registration
     *  order; used by enumeration and configuration. */
    void
    addPreDispatchHandler(
        std::function<bool(const ReceivedMessage &)> fn)
    {
        preDispatch_.push_back(std::move(fn));
    }

    /** Messages dispatched, by kind (for stats/tests). */
    std::uint64_t registerWrites() const { return registerWrites_; }
    std::uint64_t memoryWrites() const { return memoryWrites_; }
    std::uint64_t memoryReads() const { return memoryReads_; }

  private:
    void handleRegisterWrite(const std::vector<std::uint8_t> &payload);
    void handleMemoryWrite(const std::vector<std::uint8_t> &payload);
    void handleMemoryRead(const std::vector<std::uint8_t> &payload);

    sim::Simulator &sim_;
    BusController &bus_;
    power::PowerDomain &layerDomain_;
    const SystemConfig &sysCfg_;

    std::array<std::uint32_t, 256> registers_{};
    std::map<std::uint32_t, std::uint32_t> memory_;

    MailboxHandler mailbox_;
    BroadcastHandler broadcast_;
    std::vector<std::function<bool(const ReceivedMessage &)>>
        preDispatch_;

    std::uint64_t registerWrites_ = 0;
    std::uint64_t memoryWrites_ = 0;
    std::uint64_t memoryReads_ = 0;
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_LAYER_CONTROLLER_HH
