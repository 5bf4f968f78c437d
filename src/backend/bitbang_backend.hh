/**
 * @file
 * BusBackend over a mixed hardware/software MBus ring (Sec 6.6).
 *
 * Any ring population: nodes 0..n-2 are hardware MBus chips (node 0
 * hosts the mediator), node n-1 is the four-GPIO software member
 * (firmware::FirmwareNode, the ported libmbus FSM). The software
 * member's ISR response latency is charged to the ring budget via
 * SystemConfig::extraRingLatency and throttles the whole fabric --
 * the bus clock is clamped to a conservative fraction of the mixed
 * ring's envelope, which is why this backend's workloads top out
 * near the paper's ~120 kHz software ceiling instead of megahertz.
 *
 * Energy: every ring-segment transition charges the driving chip
 * through the shared CV^2 model (the same taps MBusSystem installs),
 * and the software member's ISR cycles are additionally priced at
 * the Sec 6.3.1 per-cycle CPU energy -- the software-implementation
 * tax the paper quantifies.
 */

#ifndef MBUS_BACKEND_BITBANG_BACKEND_HH
#define MBUS_BACKEND_BITBANG_BACKEND_HH

#include <memory>
#include <vector>

#include "backend/backend.hh"
#include "firmware/firmware_node.hh"
#include "mbus/mediator.hh"
#include "mbus/node.hh"
#include "power/energy.hh"
#include "power/switching.hh"

namespace mbus {
namespace backend {

/** The mixed hardware + software-member fabric. */
class BitbangBackend final : public BusBackend
{
  public:
    /** @param kind The label kind() reports: BackendKind::Bitbang or
     *  BackendKind::Firmware (one engine, two fabric names). */
    BitbangBackend(sim::Simulator &sim, const BusParams &params,
                   BackendKind kind = BackendKind::Bitbang);

    BackendKind kind() const override { return kind_; }
    std::size_t nodeCount() const override { return nodes_; }
    double busClockHz() const override { return cfg_.busClockHz; }
    double maxSafeClockHz() const override;

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
    void armWatchdog(std::uint32_t epochs) override;
    std::uint64_t busResets() const override { return busResets_; }

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

    /** The software member (stats, ISR diagnostics). */
    firmware::FirmwareNode &firmwareNode() { return *fw_; }

    /** Index of the software member on the ring (n - 1). */
    std::size_t softIndex() const { return nodes_ - 1; }

  private:
    /** CV^2 tap charging the driving chip per segment transition
     *  (the same shape MBusSystem::SegmentEnergyTap has). */
    struct SegmentTap final : wire::EdgeListener
    {
        SegmentTap(BitbangBackend &b, std::size_t n,
                   power::EnergyCategory c)
            : backend(&b), nodeId(n), category(c)
        {}
        void
        onNetEdge(wire::Net &, bool) override
        {
            backend->ledger_.charge(nodeId, category,
                                    backend->energy_.segmentEdge());
        }
        void
        onEdges(wire::Net &, wire::EdgeRun run) override
        {
            // Charge per edge (not count * e): repeated addition of
            // the same constant keeps the ledger bit-identical to the
            // per-edge path whatever the flush grouping.
            const double e = backend->energy_.segmentEdge();
            for (std::uint64_t i = 0; i < run.count; ++i)
                backend->ledger_.charge(nodeId, category, e);
        }
        BitbangBackend *backend;
        std::size_t nodeId;
        power::EnergyCategory category;
    };

    bool isSoft(std::size_t node) const { return node == nodes_ - 1; }
    double softCpuEnergyJ() const;

    /** Deliver any deferred batched edge runs (energy taps) so the
     *  ledger totals below are complete at any read point. */
    void flushSegs() const;

    wire::Net &faultSegment(std::size_t node, int lane);
    int &forceDepth(std::size_t node, int lane);
    void scheduleWatchdogPoll();
    void watchdogPoll();

    sim::Simulator &sim_;
    BusParams params_;
    BackendKind kind_;
    std::size_t nodes_;
    bus::SystemConfig cfg_;
    power::EnergyLedger ledger_;
    power::SwitchingEnergyModel energy_;

    std::vector<std::unique_ptr<wire::Net>> clkSegs_;
    std::vector<std::unique_ptr<wire::Net>> dataSegs_;
    std::vector<std::unique_ptr<bus::Node>> hw_;
    std::unique_ptr<firmware::FirmwareNode> fw_;
    std::vector<std::unique_ptr<SegmentTap>> taps_;
    std::unique_ptr<bus::MediatorHostLink> link_;
    std::unique_ptr<bus::Mediator> mediator_;

    // --- Fault-injection state (idle unless a FaultSpec armed it) --
    std::vector<int> forceDepth_; ///< Nested stuck-at holds,
                                  ///< nodes x 2 (CLK/DATA).
    std::uint32_t watchdogEpochs_ = 0;
    std::uint64_t busResets_ = 0;
    std::uint64_t wdLastProgress_ = 0;
    bool wdLastBusy_ = false;
    bool wdLastAsleep_ = false;
};

} // namespace backend
} // namespace mbus

#endif // MBUS_BACKEND_BITBANG_BACKEND_HH
