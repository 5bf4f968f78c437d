/**
 * @file
 * One traffic run: the send census, delivery check and wedge rule
 * every cell driver shares.
 *
 * The paper judges every workload by the same per-transaction
 * outcomes -- each MBus transaction ends in a control phase that
 * reports ACK, NAK or interruption (Sec 4) -- and compares fabrics by
 * the delivered bytes, latency and energy of the same traffic (Secs
 * 6.2, 6.6). The classic message-stream driver (sweep::runScenario)
 * and the WorkloadEngine therefore keep their books through one
 * TrafficRun: a driver decides only what to send and when.
 */

#ifndef MBUS_WORKLOAD_TRAFFIC_HH
#define MBUS_WORKLOAD_TRAFFIC_HH

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "backend/backend.hh"
#include "fault/retry.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

namespace mbus {
namespace workload {

/**
 * The bookkeeping of one cell's traffic.
 *
 *  - send() registers the expected deliveries, sends through
 *    fault::sendWithRetry with pooled RetryStats, and counts the
 *    terminal status, completed wire bits, arbitration retries and
 *    issue-to-completion latency;
 *  - the delivery handler counts ok/interrupted/overflow deliveries,
 *    credits payload bytes (and, by the first payload byte, the
 *    owning actor's bytes), and counts every complete delivery that
 *    matches no expected payload as a mismatch;
 *  - run() is the run and wedge rule (see there).
 *
 * Construction sets the simulator's horizon to the wedge guard plus
 * the idle drain and installs the backend's delivery handler, which
 * holds this object's address; run() uninstalls it.
 */
class TrafficRun
{
  public:
    /** @param timeLimit Absolute wedge guard: the bound run() passes
     *         to Simulator::run. */
    TrafficRun(backend::BusBackend &backend, sim::Simulator &simulator,
               sim::SimTime timeLimit);
    TrafficRun(const TrafficRun &) = delete;
    TrafficRun &operator=(const TrafficRun &) = delete;

    /**
     * Send @p msg from @p node under @p policy. Its expected
     * deliveries (one, or n-1 copies for a broadcast) are registered
     * first; the terminal status is counted, then @p done(result, ok)
     * runs, ok meaning ACKed or broadcast.
     */
    template <class Done>
    void
    send(std::size_t node, bus::Message msg,
         const fault::RetryPolicy &policy, Done done)
    {
        expect(msg);
        int wireBits = msg.wireDataBits();
        sim::SimTime issuedAt = simulator_.now();
        fault::sendWithRetry(
            backend_, simulator_, node, std::move(msg), policy, retry_,
            [this, issuedAt, wireBits,
             done = std::move(done)](const bus::TxResult &r) {
                done(r, count(r, issuedAt, wireBits));
            });
    }

    /** End run()'s traffic phase once @p finished; a no-op anywhere
     *  else, so the idle drain always runs to idle. */
    void
    stopIf(bool finished)
    {
        if (armed_ && finished)
            simulator_.stop();
    }

    /**
     * Unless @p finished already holds, run to the wedge guard (the
     * driver ends the run early through stopIf()); then drain the bus
     * for up to one simulated second. stats.wedged is set when the
     * traffic had not finished at the guard or the bus did not return
     * to idle. Folds the pooled retry counters into stats and
     * uninstalls the delivery handler.
     */
    void run(const std::function<bool()> &finished);

    /** The census; drivers add their own counts (planned, actors). */
    WorkloadRunStats stats;

  private:
    void expect(const bus::Message &msg);
    bool count(const bus::TxResult &r, sim::SimTime issuedAt,
               int wireBits);
    void onDelivery(const bus::ReceivedMessage &rx);

    backend::BusBackend &backend_;
    sim::Simulator &simulator_;
    sim::SimTime timeLimit_;
    fault::RetryStats retry_; ///< Pooled over every send's policy.
    /** Payloads issued and not yet delivered. A completion can run
     *  before the receiver's delivery at the same timestamp, so the
     *  check cannot key on "the message currently in flight". */
    std::multiset<std::vector<std::uint8_t>> expected_;
    bool armed_ = false; ///< True only inside run()'s traffic phase.
};

} // namespace workload
} // namespace mbus

#endif // MBUS_WORKLOAD_TRAFFIC_HH
