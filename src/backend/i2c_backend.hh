/**
 * @file
 * BusBackend over a transactional I2C bus.
 *
 * Promotes the analytic I2cModel (Secs 2.1, 6.2) from closed-form
 * per-message formulas into an event-kernel bus the sweep and
 * workload machinery can drive:
 *
 *  - transactions serialize on one shared SDA/SCL pair, FIFO in
 *    request order (the single-master discipline most nanopower
 *    deployments use; a queued sender is a master waiting for a
 *    free bus);
 *  - framing follows Table 1: START + 7-bit address + R/W + address
 *    ACK = 10 SCL cycles, then 9 cycles per payload byte (8 data +
 *    ACK), totalling I2cModel::totalBits() cycles per message, so
 *    the event bus and the analytic model agree bit-for-bit;
 *  - pull-up energy is charged per SCL cycle through the energy
 *    ledger (dump + charge loss + low-phase loss, plus the
 *    worst-case SDA provisioning of Sec 3), to the driving master;
 *  - addressing a power-gated receiver stretches the clock while
 *    the receiver's layer walks its wakeup ladder -- SCL held low
 *    burns low-phase resistor energy the whole time, charged to the
 *    stretching receiver. This is the always-on-interface tax the
 *    paper contrasts with MBus's wakeup-by-arbitration;
 *  - interject() models a bus stomp: the in-flight transaction
 *    aborts with TxStatus::Interrupted and the receiver sees a
 *    truncated, interjected delivery (I2C has no protocol-level
 *    interjection, which is exactly the comparison point).
 *
 * Two sizing disciplines (I2cSizing): Standard sizes the pull-up for
 * the fixed 300 ns fast-mode rise budget; Oracle knows the true bus
 * capacitance and spends the full half-cycle on the rise (Sec 6.2).
 */

#ifndef MBUS_BACKEND_I2C_BACKEND_HH
#define MBUS_BACKEND_I2C_BACKEND_HH

#include <deque>
#include <vector>

#include "backend/backend.hh"
#include "baseline/i2c.hh"
#include "power/energy.hh"

namespace mbus {
namespace backend {

/** Clock ceilings for the two pull-up sizing disciplines. */
constexpr double kI2cStdMaxClockHz = 1.0e6;    ///< Fast-mode+ limit.
constexpr double kI2cOracleMaxClockHz = 10.0e6; ///< Relaxed (Sec 6.2).

/** SCL cycles a gated receiver stretches while its layer wakes
 *  (START condition to address ACK hold; Sec 2.5's hand-tuned guard
 *  time, expressed in bus cycles). */
constexpr std::uint32_t kI2cWakeStretchCycles = 16;

/** The transactional-I2C fabric. */
class I2cBackend final : public BusBackend
{
  public:
    I2cBackend(sim::Simulator &sim, const BusParams &params,
               baseline::I2cSizing sizing);

    BackendKind kind() const override
    {
        return sizing_ == baseline::I2cSizing::Oracle
                   ? BackendKind::I2cOracle
                   : BackendKind::I2cStd;
    }
    std::size_t nodeCount() const override { return nodes_.size(); }
    double busClockHz() const override { return clockHz_; }
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

    // Fault injection, mapped to transaction-level damage (I2C has
    // no per-segment Nets): a stuck line jams the bus -- the active
    // transfer dies with TxStatus::Reset and the queue stalls until
    // release; glitches and dropped edges corrupt the in-flight
    // byte (abort as Interrupted, truncated delivery); drift scales
    // the SCL tick; a brownout Reset-kills the node's queued and
    // active transfers and NAKs traffic addressed to it.
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

    double switchingJ() const override { return ledger_.total(); }
    double leakageJ() const override;
    double nodeEnergyJ(std::size_t node) const override;
    double poweredSeconds(std::size_t node) const override;
    std::uint64_t nodeEdges(std::size_t node) const override;
    std::uint64_t clockCycles() const override { return cycles_; }

    /** The analytic model this bus is calibrated against. */
    const baseline::I2cModel &model() const { return model_; }

    /** Transactions aborted by interject() so far. */
    std::uint64_t aborts() const { return aborts_; }

  private:
    struct Transaction
    {
        std::size_t node = 0;   ///< Master (sender).
        bus::Message msg;
        bus::SendCallback cb;
        bool internal = false;  ///< Retime carrier, not app traffic.
        double retimeHz = 0;
        std::function<void()> retimeDone;
    };

    struct NodeState
    {
        bool gated = false;  ///< May sleep at all (mirrors MBus).
        bool asleep = false;
        sim::SimTime awakeSince = 0;
        sim::SimTime poweredAccum = 0;
        std::size_t pending = 0;     ///< Queued + active sends.
        std::uint64_t cyclesDriven = 0; ///< SCL cycles as master.
    };

    /** Resolve a destination address to a node index; nodes_.size()
     *  when unmatched (-> NAK). */
    std::size_t resolveDest(const bus::Address &addr) const;

    void pump();      ///< Start the next queued transaction, if idle.
    void startActive();
    void byteDone(std::uint64_t epoch, std::size_t index);
    void finishActive(bus::TxStatus status, std::size_t bytesDone);
    void chargeCycles(std::size_t node, std::uint64_t n);
    void setBusy(bool busy);

    /** SCL rate with any active drift window applied (drift is
     *  exactly 1.0 when no fault holds it, so timing is unchanged
     *  byte-for-byte with faults off). */
    double effClockHz() const { return clockHz_ * driftFactor_; }

    void watchdogPoll();
    /** Reset-kill every queued/active transfer owned by @p node. */
    void dropNodeTraffic(std::size_t node);

    sim::Simulator &sim_;
    BusParams params_;
    baseline::I2cSizing sizing_;
    baseline::I2cModel model_;
    power::EnergyLedger ledger_;
    double clockHz_;

    std::vector<NodeState> nodes_;
    std::deque<Transaction> queue_;
    bool active_ = false;
    Transaction current_;
    std::uint64_t epoch_ = 0;   ///< Stale-event guard for aborts.
    std::size_t bytesDone_ = 0;
    bool pumpScheduled_ = false;

    /** Nothing on the bus, queued, or about to start. */
    bool
    idle() const
    {
        return !active_ && queue_.empty() && !pumpScheduled_;
    }

    std::uint64_t cycles_ = 0;
    std::uint64_t aborts_ = 0;

    // --- Fault-injection state (idle unless a FaultSpec armed it) --
    int jamDepth_ = 0;       ///< Nested stuck-at holds on the pair.
    double driftFactor_ = 1.0;
    std::vector<std::uint8_t> browned_; ///< Power-cut members.
    std::uint64_t busResets_ = 0;
    std::uint32_t watchdogEpochs_ = 0;
    bool wdLastActive_ = false;
    std::uint64_t wdLastCycles_ = 0;

    DeliveryHandler handler_;
    sim::TraceRecorder *recorder_ = nullptr;
    sim::TraceRecorder::SignalId busyId_ = 0;
    std::vector<sim::TraceRecorder::SignalId> awakeIds_;
};

} // namespace backend
} // namespace mbus

#endif // MBUS_BACKEND_I2C_BACKEND_HH
