#include "mbus/layer_controller.hh"

#include <algorithm>

#include "mbus/bus_controller.hh"
#include "sim/logging.hh"

namespace mbus {
namespace bus {

namespace {

std::uint32_t
beWord(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    return (std::uint32_t(bytes[offset]) << 24) |
           (std::uint32_t(bytes[offset + 1]) << 16) |
           (std::uint32_t(bytes[offset + 2]) << 8) |
           std::uint32_t(bytes[offset + 3]);
}

/**
 * Reply words the bus could stream from @p now to @p horizon. The
 * nominal clock never exceeds the ring's safe limit (MBusSystem
 * rejects a faster start and ignores a faster config broadcast),
 * hence never a one-node ring's; a config broadcast carries at most
 * 2^32 - 1 Hz, which bounds a zero-latency ring. Fault drift windows
 * scale the tick by under 2x, and two words of slack absorb rounding.
 */
double
streamableReplyWords(const SystemConfig &cfg, sim::SimTime now,
                     sim::SimTime horizon)
{
    double clockHz = std::max(
        cfg.busClockHz, std::min(safeClockLimitHz(cfg, 1), 4294967295.0));
    double seconds = horizon > now ? sim::toSeconds(horizon - now) : 0.0;
    return 2.0 * clockHz * seconds * cfg.dataLanes / 32.0 + 2.0;
}

} // namespace

LayerController::LayerController(sim::Simulator &sim, BusController &bus,
                                 power::PowerDomain &layerDomain,
                                 const SystemConfig &sysCfg)
    : sim_(sim), bus_(bus), layerDomain_(layerDomain), sysCfg_(sysCfg)
{
}

void
LayerController::onReceive(const ReceivedMessage &rx)
{
    for (const auto &handler : preDispatch_)
        if (handler(rx))
            return;

    if (rx.dest.isBroadcast()) {
        if (broadcast_)
            broadcast_(rx.dest.channel(), rx);
        return;
    }

    switch (rx.dest.fuId()) {
      case kFuRegisterWrite:
        handleRegisterWrite(rx.payload);
        break;
      case kFuMemoryWrite:
        handleMemoryWrite(rx.payload);
        break;
      case kFuMemoryRead:
        handleMemoryRead(rx.payload);
        break;
      case kFuMailbox:
      default:
        // Unknown FUs fall through to the mailbox so application
        // firmware can claim them.
        if (mailbox_)
            mailbox_(rx);
        break;
    }
}

std::uint32_t
LayerController::readRegister(std::uint8_t addr) const
{
    return registers_[addr];
}

void
LayerController::writeRegister(std::uint8_t addr, std::uint32_t value24)
{
    registers_[addr] = value24 & 0xFFFFFFu;
}

std::uint32_t
LayerController::readMemory(std::uint32_t wordAddr) const
{
    auto it = memory_.find(wordAddr);
    return it == memory_.end() ? 0 : it->second;
}

void
LayerController::writeMemory(std::uint32_t wordAddr, std::uint32_t value)
{
    memory_[wordAddr] = value;
}

void
LayerController::handleRegisterWrite(
    const std::vector<std::uint8_t> &payload)
{
    if (payload.size() % 4 != 0) {
        sim::warn("register-write payload not a multiple of 4 bytes; "
             "trailing bytes ignored");
    }
    for (std::size_t i = 0; i + 4 <= payload.size(); i += 4) {
        std::uint32_t value = (std::uint32_t(payload[i + 1]) << 16) |
                              (std::uint32_t(payload[i + 2]) << 8) |
                              std::uint32_t(payload[i + 3]);
        writeRegister(payload[i], value);
        ++registerWrites_;
    }
}

void
LayerController::handleMemoryWrite(
    const std::vector<std::uint8_t> &payload)
{
    if (payload.size() < 4)
        return;
    std::uint32_t addr = beWord(payload, 0);
    for (std::size_t i = 4; i + 4 <= payload.size(); i += 4)
        writeMemory(addr++, beWord(payload, i));
    ++memoryWrites_;
}

void
LayerController::handleMemoryRead(
    const std::vector<std::uint8_t> &payload)
{
    if (payload.size() < 9)
        return;
    std::uint32_t addr = beWord(payload, 0);
    std::uint32_t len_words = beWord(payload, 4);
    Address reply = Address::decodeShort(payload[8]);
    ++memoryReads_;

    // A corrupted length field must not allocate without bound, and
    // clamping may change no reply that can finish streaming. The
    // mediator's watchdog (Sec 7) kills any message one byte past its
    // maximum length, so reply words beyond that are never driven.
    // A config broadcast can raise that maximum to 4 GB, so the reply
    // is also held to what the bus could stream before the horizon.
    std::size_t limit =
        std::max(sysCfg_.maxMessageBytes, kMinMaxMessageBytes);
    double words = std::min<double>(len_words, (limit + 8) / 4);
    if (sim_.horizon() != sim::kTimeForever)
        words = std::min(words, streamableReplyWords(sysCfg_, sim_.now(),
                                                     sim_.horizon()));
    len_words = static_cast<std::uint32_t>(words);

    // Stream the reply as a memory-write message: the requested
    // words, prefixed with a destination word address of zero.
    Message msg;
    msg.dest = reply;
    msg.payload.reserve(4 + 4 * len_words);
    for (int i = 0; i < 4; ++i)
        msg.payload.push_back(0);
    for (std::uint32_t w = 0; w < len_words; ++w) {
        std::uint32_t value = readMemory(addr + w);
        msg.payload.push_back((value >> 24) & 0xFF);
        msg.payload.push_back((value >> 16) & 0xFF);
        msg.payload.push_back((value >> 8) & 0xFF);
        msg.payload.push_back(value & 0xFF);
    }
    bus_.send(std::move(msg));
}

} // namespace bus
} // namespace mbus
