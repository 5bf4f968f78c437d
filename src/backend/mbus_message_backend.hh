/**
 * @file
 * BusBackend over a message-level model of the hardware MBus ring.
 *
 * The edge-level MbusBackend simulates every wire transition: each
 * bus bit is driven, forwarded hop by hop, and fanned out to the
 * controllers of every chip. For fault-free traffic none of that is
 * needed to know what the ring does -- every transaction follows the
 * same fixed script (Secs 4.3-4.9, Figs 5-7), so its timing, edge
 * counts and CV^2 energy are closed forms of the ring geometry and
 * the message's bits. This backend evaluates those closed forms and
 * runs each transaction as a handful of kernel events (completion,
 * deliveries, return to idle), in the spirit of the transactional
 * I2cBackend.
 *
 * Notation: n chips, hop delay h, bus period P, half period H = P/2
 * (integer picoseconds, exactly as the mediator spaces its edges),
 * ring flush R = (n + 2) h, sender s, C = address bits + data cycles.
 * A chip's local clock sees a mediator edge lambda_j = max(j, 1) h
 * after it is driven (node 0 clocks off its own output).
 *
 *  - request: s pulls DATA low at t_req; the fall reaches the
 *    mediator (n - s) h later (n h for the host), which starts
 *    clocking one period after that: S = t_req + (n - s) h + P;
 *  - end of message: a member transmitter holds CLK after rising
 *    edge 3 + C, the mediator's ring check catches the next falling
 *    edge, and the interjection begins at S + (2C + 6) H + R; the
 *    host transmitter asks on-chip at S + (2C + 5) H + h;
 *  - the interjection toggles DATA K times, K = 6 when the last
 *    driven bit was 1 and 7 otherwise (three returning edges and an
 *    idle-high finish), then the control phase starts (K + 1) H
 *    later at T_C;
 *  - chip j resolves the outcome on control rising edge 3, at
 *    T_C + 5H + lambda_j (sender completion, receiver delivery), and
 *    goes idle on rising edge 4; the mediator sleeps at
 *    T_C + 7H + R. A send queued during a transaction requests the
 *    bus one period after its chip goes idle.
 *
 * Per-segment CLK and DATA edge counts, the per-chip comb / FIFO /
 * drive / mediator counts and the clock-cycle count follow from the
 * same script (see transact()). Outcomes, bytes, every latency,
 * simulated time, per-node edges, clock cycles and powered time are
 * exact, and so is energy: the counts are priced into a ledger by
 * SwitchingEnergyModel::priceSlot, as the edge engine prices its own.
 *
 * The model covers exactly what sweep::messageLevelEligible() admits:
 * no faults, storms, gating, retiming, VCD or tracing, one message in
 * flight bus-wide. Anything else is out of model and fatal.
 */

#ifndef MBUS_BACKEND_MBUS_MESSAGE_BACKEND_HH
#define MBUS_BACKEND_MBUS_MESSAGE_BACKEND_HH

#include <cstdint>
#include <vector>

#include "backend/backend.hh"
#include "power/switching.hh"

namespace mbus {
namespace backend {

/** The message-level hardware-MBus fabric. */
class MbusMessageBackend final : public BusBackend
{
  public:
    MbusMessageBackend(sim::Simulator &sim, const BusParams &params);

    BackendKind kind() const override { return BackendKind::Mbus; }
    std::size_t nodeCount() const override { return nodes_; }
    double busClockHz() const override { return params_.busClockHz; }
    double maxSafeClockHz() const override;

    void send(std::size_t node, bus::Message msg,
              bus::SendCallback cb) override;
    void interject(std::size_t node) override;
    void sleep(std::size_t) override {} // Nothing is power gated.
    void wake(std::size_t) override {}
    std::size_t pendingTx(std::size_t node) const override;
    void retime(std::size_t node, double clockHz,
                std::function<void()> done) override;
    bus::Address unicastAddress(std::size_t node, bool fullAddressing,
                                std::uint8_t fuId) const override;

    void setDeliveryHandler(DeliveryHandler h) override
    {
        handler_ = std::move(h);
    }

    bool runUntilIdle(sim::SimTime timeout) override;
    void attachTrace(sim::TraceRecorder &recorder) override;

    double switchingJ() const override;
    double leakageJ() const override;
    double nodeEnergyJ(std::size_t node) const override;
    double poweredSeconds(std::size_t node) const override;
    std::uint64_t nodeEdges(std::size_t node) const override;
    std::uint64_t clockCycles() const override { return cycles_; }

    /** The model's listener calls: one per delivery handed to the
     *  delivery tap and one per terminal status (it has no Nets). */
    std::uint64_t dispatchCalls() const override { return dispatches_; }

  private:
    /** Resolve @p dest to its receivers, fatal if out of model. */
    std::vector<std::size_t> receiversOf(std::size_t sender,
                                         const bus::Address &dest) const;

    /** Script one transaction requested by @p sender at @p tReq. */
    void transact(std::size_t sender, bus::Message msg,
                  bus::SendCallback cb, sim::SimTime tReq);

    /** Local-clock latency of chip @p j behind a mediator edge. */
    sim::SimTime lambda(std::size_t j) const
    {
        return static_cast<sim::SimTime>(j == 0 ? 1 : j) * hop_;
    }

    /** No send in flight and the mediator back asleep. */
    bool idle() const { return !busy_ && sim_.now() >= sleepAt_; }

    /** Price every chip's ledger cells from its counts. */
    void priceEnergy() const;

    sim::Simulator &sim_;
    BusParams params_;
    std::size_t nodes_;
    int lanes_;
    power::SwitchingEnergyModel energy_;
    mutable power::EnergyLedger ledger_; ///< Priced on read.

    sim::SimTime hop_;    ///< h
    sim::SimTime period_; ///< P
    sim::SimTime half_;   ///< H = P / 2
    sim::SimTime flush_;  ///< R = (n + 2) h

    /** Per-chip counts; priceEnergy() adds each chip's local CLK
     *  and the mediator's cycles. */
    std::vector<power::SlotCounts> counts_;
    std::vector<std::uint8_t> laneLevel_; ///< Idle level, lanes 1..
    std::uint64_t cycles_ = 0;
    std::uint64_t dispatches_ = 0;

    // The one transaction in flight (or queued behind the last one).
    bool busy_ = false;          ///< A send awaits its completion.
    std::size_t busyNode_ = 0;   ///< Its sender.
    sim::SimTime sleepAt_ = 0;   ///< Mediator asleep after the last.
    std::vector<sim::SimTime> idleAt_; ///< Per chip: back to idle.

    DeliveryHandler handler_;
};

} // namespace backend
} // namespace mbus

#endif // MBUS_BACKEND_MBUS_MESSAGE_BACKEND_HH
