#include "backend/backend.hh"

#include "backend/i2c_backend.hh"
#include "backend/mbus_backend.hh"
#include "mbus/system.hh"
#include "sim/logging.hh"

namespace mbus {
namespace backend {

const char *
backendKindName(BackendKind k)
{
    switch (k) {
    case BackendKind::Mbus: return "mbus";
    case BackendKind::I2cStd: return "i2c_std";
    case BackendKind::I2cOracle: return "i2c_oracle";
    case BackendKind::Bitbang: return "bitbang";
    case BackendKind::Firmware: return "firmware";
    }
    return "?";
}

bool
backendKindFromName(const std::string &name, BackendKind &out)
{
    for (BackendKind k :
         {BackendKind::Mbus, BackendKind::I2cStd,
          BackendKind::I2cOracle, BackendKind::Bitbang,
          BackendKind::Firmware}) {
        if (name == backendKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

std::unique_ptr<BusBackend>
makeBackend(BackendKind kind, sim::Simulator &sim,
            const BusParams &params)
{
    switch (kind) {
    case BackendKind::Mbus:
    case BackendKind::Bitbang:
    case BackendKind::Firmware:
        return std::make_unique<MbusBackend>(sim, params, kind);
    case BackendKind::I2cStd:
        return std::make_unique<I2cBackend>(
            sim, params, baseline::I2cSizing::Standard);
    case BackendKind::I2cOracle:
        return std::make_unique<I2cBackend>(
            sim, params, baseline::I2cSizing::Oracle);
    }
    mbus_fatal("unknown backend kind ", static_cast<int>(kind));
    return nullptr;
}

bus::Message
makeRetimeMessage(std::uint32_t hz)
{
    bus::Message msg;
    msg.dest = bus::Address::broadcast(bus::kChannelConfig);
    msg.payload = {bus::kConfigCmdClockHz,
                   static_cast<std::uint8_t>((hz >> 24) & 0xFF),
                   static_cast<std::uint8_t>((hz >> 16) & 0xFF),
                   static_cast<std::uint8_t>((hz >> 8) & 0xFF),
                   static_cast<std::uint8_t>(hz & 0xFF)};
    return msg;
}

} // namespace backend
} // namespace mbus
