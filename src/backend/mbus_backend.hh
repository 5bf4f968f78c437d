/**
 * @file
 * BusBackend over a simulated MBus ring: the hardware-only ring
 * (BackendKind::Mbus) and the mixed ring whose last slot holds the
 * four-GPIO software member, the ported libmbus FSM (Bitbang and
 * Firmware: one engine under two fabric labels, Sec 6.6).
 *
 * A thin, behaviour-preserving veneer over one MBusSystem: the same
 * node configs and finalize order (hence the same interned net names
 * and VCD signal order) on both rings, and every operation forwards
 * to the node APIs directly, or to the software member in its slot.
 * The backend determinism tests pin stats and VCD bytes.
 *
 * The software member's ISR response latency throttles the mixed
 * ring: its clock is held to a fraction of the ring's envelope
 * (MBusSystem::clockCeilingHz()), which is why its workloads top out
 * near the paper's ~120 kHz software ceiling instead of megahertz.
 * Energy: every ring-segment transition charges the driving member
 * through the shared CV^2 taps, and the software member's ISR cycles
 * are additionally priced at the Sec 6.3.1 per-cycle CPU energy --
 * the software-implementation tax the paper quantifies.
 */

#ifndef MBUS_BACKEND_MBUS_BACKEND_HH
#define MBUS_BACKEND_MBUS_BACKEND_HH

#include <memory>
#include <unordered_map>

#include "backend/backend.hh"
#include "mbus/system.hh"

namespace mbus {
namespace backend {

/** The MBus ring fabrics: hardware-only, or with a software member. */
class MbusBackend final : public BusBackend
{
  public:
    /** @param kind The label kind() reports. Bitbang and Firmware
     *  put the software member in the last ring slot (3..14 nodes). */
    MbusBackend(sim::Simulator &sim, const BusParams &params,
                BackendKind kind = BackendKind::Mbus);

    BackendKind kind() const override { return kind_; }
    std::size_t nodeCount() const override
    {
        return system_->ringSize();
    }
    double busClockHz() const override
    {
        return system_->config().busClockHz;
    }
    double maxSafeClockHz() const override
    {
        return system_->maxSafeClockHz();
    }

    void send(std::size_t node, bus::Message msg,
              bus::SendCallback cb) override;
    void interject(std::size_t node) override;
    void sleep(std::size_t node) override;
    void wake(std::size_t node) override;
    std::size_t pendingTx(std::size_t node) const override;
    void retime(std::size_t node, double clockHz,
                std::function<void()> done) override;
    bus::Address unicastAddress(std::size_t node, bool fullAddressing,
                                std::uint8_t fuId) const override;

    void injectWireForce(std::size_t node, int lane,
                         bool level) override;
    void injectWireRelease(std::size_t node, int lane) override;
    void injectGlitch(std::size_t node, int lane,
                      int pulses) override;
    void injectEdgeDrop(std::size_t node, int lane,
                        int pulses) override;
    void setClockDriftFactor(double factor) override;
    void brownout(std::size_t node) override;
    void brownoutRecover(std::size_t node) override;
    void armWatchdog(std::uint32_t epochs) override
    {
        system_->armWatchdog(epochs);
    }
    std::uint64_t busResets() const override
    {
        return system_->busResets();
    }

    void setDeliveryHandler(DeliveryHandler h) override;

    bool runUntilIdle(sim::SimTime timeout) override;
    void attachTrace(sim::TraceRecorder &recorder) override;

    double switchingJ() const override;
    double leakageJ() const override;
    double nodeEnergyJ(std::size_t node) const override;
    double poweredSeconds(std::size_t node) const override;
    std::uint64_t nodeEdges(std::size_t node) const override;
    std::uint64_t clockCycles() const override;
    std::uint64_t dispatchCalls() const override;

    /** The wrapped system, for MBus-specific benches and tests. */
    bus::MBusSystem &system() { return *system_; }

    /** The software member (stats, ISR diagnostics), or nullptr on
     *  the hardware-only ring. */
    firmware::FirmwareNode *softMember() { return system_->softMember(); }

    /** The software member's ring index (the last slot); valid
     *  only when softMember() is set. */
    std::size_t softIndex() const { return system_->nodeCount(); }

  private:
    bool
    isSoft(std::size_t node) const
    {
        return system_->softMember() && node == softIndex();
    }
    double softCpuEnergyJ() const;

    wire::Net &faultSegment(std::size_t node, int lane);

    BackendKind kind_;
    std::unique_ptr<bus::MBusSystem> system_;

    // --- Fault-injection state (idle unless a FaultSpec armed it) --
    /** Nested stuck-at holds per segment: lanes that alias one
     *  segment share one depth. */
    std::unordered_map<const wire::Net *, int> forceDepth_;
};

} // namespace backend
} // namespace mbus

#endif // MBUS_BACKEND_MBUS_BACKEND_HH
