/**
 * @file
 * The always-on sleep controller (the minimalist wakeup frontend).
 *
 * Two jobs, both tiny enough to stay powered forever (Sec 4.4):
 *
 *  1. Feed CLK edges into the bus controller's power domain so the
 *     arbitration phase of every transaction doubles as the chip's
 *     four-edge wakeup sequence.
 *  2. Count edges from the start of each transaction. The count is
 *     the authoritative phase reference: a bus controller that woke
 *     mid-arbitration reads the always-on count instead of its own
 *     (it slept through the first edges).
 */

#ifndef MBUS_BUS_SLEEP_CONTROLLER_HH
#define MBUS_BUS_SLEEP_CONTROLLER_HH

#include <cstdint>
#include <functional>

#include "power/domain.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {

/**
 * Receiver of counted clock edges (the bus controller FSM).
 *
 * The sleep controller delivers each local CLK edge -- after wakeup
 * stepping and counting -- straight to this interface, so the
 * per-edge protocol path goes through one virtual call instead of a
 * std::function trampoline.
 */
class ClockEdgeSink
{
  public:
    virtual void onClkEdge(bool rising) = 0;

  protected:
    ~ClockEdgeSink() = default;
};

/** Always-on wakeup frontend and transaction edge counter. */
class SleepController : private wire::EdgeListener
{
  public:
    /** Callback fired on every local CLK edge after counting. */
    using EdgeHook = std::function<void(bool rising)>;

    /**
     * @param localClk The node's local clock reference net.
     * @param busDomain The bus controller's power domain to step.
     */
    SleepController(wire::Net &localClk, power::PowerDomain &busDomain);

    /** Rising edges seen since the current transaction began. */
    std::uint32_t risingCount() const { return rising_; }

    /** Falling edges seen since the current transaction began. */
    std::uint32_t fallingCount() const { return falling_; }

    /** True between the first CLK edge and noteIdle(). */
    bool transactionActive() const { return active_; }

    /** Bus controller signals end-of-transaction; counters reset. */
    void noteIdle();

    /** Fast-forward: count @p cycles whole clock cycles
     *  (one falling and one rising edge each) without delivering
     *  them; the bus domain is already active and the bus controller
     *  skips the same cycles itself. */
    void
    skipCycles(std::uint32_t cycles)
    {
        rising_ += cycles;
        falling_ += cycles;
    }

    /**
     * Register the edge sink run after this controller processes
     * each edge (the bus controller's FSM). Using a sink rather
     * than a second Net subscription pins the ordering: wakeup
     * stepping and counting always precede FSM work on the same
     * edge. The sink fires before any closure hook.
     */
    void setEdgeSink(ClockEdgeSink &sink) { sink_ = &sink; }

    /** Closure variant of setEdgeSink (tests / prototyping). */
    void setEdgeHook(EdgeHook hook) { hook_ = std::move(hook); }

    /** Transactions observed (for stats). */
    std::uint64_t transactionsSeen() const { return transactions_; }

  private:
    void onNetEdge(wire::Net &net, bool value) override;
    void onClkEdge(bool value);

    power::PowerDomain &busDomain_;
    ClockEdgeSink *sink_ = nullptr;
    EdgeHook hook_;

    bool active_ = false;
    std::uint32_t rising_ = 0;
    std::uint32_t falling_ = 0;
    std::uint64_t transactions_ = 0;
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_SLEEP_CONTROLLER_HH
