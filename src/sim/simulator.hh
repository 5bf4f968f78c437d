/**
 * @file
 * The Simulator: current time plus the event queue, with run control.
 *
 * The simulator is an ordinary object, not a global. Every simulated
 * component holds a reference to the Simulator it lives in, which
 * keeps independent simulations (e.g. parameter sweeps in tests)
 * fully isolated and trivially parallelisable at the process level.
 */

#ifndef MBUS_SIM_SIMULATOR_HH
#define MBUS_SIM_SIMULATOR_HH

#include <cstdint>

#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/interner.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace mbus {
namespace trace {
class Tracer;
} // namespace trace

namespace sim {

/**
 * Discrete-event simulator: a clock and an event queue.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time in picoseconds. */
    SimTime now() const { return now_; }

    /**
     * Schedule a callback after a relative delay.
     *
     * @param delay Picoseconds from now (0 fires after the current
     *              event completes, still at the same timestamp).
     * @param fn Callback to run.
     */
    template <typename F>
    EventHandle
    schedule(SimTime delay, F &&fn)
    {
        return queue_.schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedule a callback at an absolute time (must be >= now). */
    template <typename F>
    EventHandle
    scheduleAt(SimTime when, F &&fn)
    {
        if (when < now_)
            mbus_panic("scheduling into the past: ", when, " < ", now_);
        return queue_.schedule(when, std::forward<F>(fn));
    }

    /**
     * Fast path for delayed edge delivery: fires sink.onEdge(value)
     * after @p delay with zero closure construction or allocation.
     */
    EventHandle
    scheduleEdge(SimTime delay, EdgeSink &sink, bool value)
    {
        return queue_.scheduleEdge(now_ + delay, sink, value);
    }

    /**
     * Schedule a self edge train (see EventQueue::scheduleEdgeTrain):
     * @p count alternating edges, the first after @p delay, then one
     * every @p period -- all carried by a single kernel event.
     */
    EventHandle
    scheduleEdgeTrain(SimTime delay, SimTime period, std::uint32_t count,
                      EdgeSink &sink, bool firstValue)
    {
        return queue_.scheduleEdgeTrain(now_ + delay, period, count,
                                        sink, firstValue);
    }

    /**
     * Schedule a speculative edge train (see
     * EventQueue::scheduleSpeculativeEdgeTrain): the first edge is
     * confirmed by this call; later edges fire only once confirmed
     * through the returned handle.
     */
    EventHandle
    scheduleSpeculativeEdgeTrain(SimTime delay, SimTime period,
                                 std::uint32_t count, EdgeSink &sink,
                                 bool firstValue)
    {
        return queue_.scheduleSpeculativeEdgeTrain(now_ + delay, period,
                                                   count, sink,
                                                   firstValue);
    }

    /**
     * Run until the event queue drains or @p limit is reached.
     *
     * @param limit Absolute stop time; events at exactly @p limit
     *              still execute.
     * @return the final simulated time.
     */
    SimTime run(SimTime limit = kTimeForever);

    /** Request that run() return after the current event. */
    void stop() { halt_ = Halt::Stop; }

    /**
     * The wait rule: run until an event that called poke() returns
     * with @p done() true, or for @p timeout (kTimeForever: no
     * bound). done() runs only after a poking event has returned,
     * never inside it, and never per event. As with run(), events at
     * the bound still execute, a drained queue advances time to the
     * bound, and stop() ends the wait. A wait started inside an event
     * restores the enclosing one when it returns.
     *
     * @return true when done() ended the wait.
     */
    template <typename Done>
    bool
    runUntil(SimTime timeout, Done &&done)
    {
        const SimTime limit = addSaturating(now_, timeout);
        const bool outer = waiting_;
        waiting_ = true;
        bool met = false;
        while (!met && loop(limit) == Halt::Poke)
            met = done();
        waiting_ = outer;
        if (halt_ == Halt::Poke)
            halt_ = Halt::None;
        return met;
    }

    /** Under runUntil(): have the wait check its condition once the
     *  current event returns. Outside a wait it does nothing. */
    void
    poke()
    {
        if (waiting_ && halt_ == Halt::None)
            halt_ = Halt::Poke;
    }

    /** The limit of the run in progress: no event past it executes
     *  before the run returns (kTimeForever outside a run). */
    SimTime runLimit() const { return runLimit_; }

    /**
     * The latest simulated time the owner will ever run this
     * simulation to (kTimeForever, the default, when unknown). Cell
     * drivers set it to their wedge guard plus the idle drain;
     * components may size work by it -- nothing that would only
     * finish after it can be observed.
     */
    SimTime horizon() const { return horizon_; }
    void setHorizon(SimTime t) { horizon_ = t; }

    /** @return true if any events remain pending. */
    bool hasPendingEvents() const { return !queue_.empty(); }

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return queue_.executedCount(); }

    /** The event store (pool introspection for tests and stats). */
    const EventQueue &queue() const { return queue_; }

    /** Name interner shared by this simulation's components. */
    StringInterner &names() { return names_; }
    const StringInterner &names() const { return names_; }

    /**
     * This simulation's RNG stream. Components that need randomness
     * (workload generators, fault schedules) draw from here so that a
     * whole run is a pure function of the seed; sweep cells reseed it
     * with Random::split-derived seeds for solo replayability.
     */
    Random &rng() { return rng_; }

    /** Reseed the simulation's RNG stream (typically once, at setup). */
    void seedRng(std::uint64_t seed) { rng_ = Random(seed); }

    /**
     * The protocol tracer attached to this simulation, or nullptr --
     * the common case. Tracing is strictly opt-in: runScenario()
     * constructs a trace::Tracer only when the cell's TraceConfig
     * asks for one, so with tracing off the only cost anywhere is
     * this null check at each emission site:
     *
     *     if (auto *t = sim.tracer())
     *         t->record(trace::EventKind::ArbWin, node);
     *
     * The tracer is purely observational (see trace/trace.hh); it
     * never schedules events or draws randomness, so attaching one
     * cannot change simulated behavior.
     */
    trace::Tracer *tracer() const { return tracer_; }

    /** Attach (or detach, with nullptr) the protocol tracer. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

  private:
    /** Why loop() returned before its bound. */
    enum class Halt : std::uint8_t { None, Poke, Stop };

    /** The event loop behind run() and runUntil(). */
    Halt loop(SimTime limit);

    EventQueue queue_;
    StringInterner names_;
    Random rng_;
    SimTime now_ = 0;
    Halt halt_ = Halt::None;
    bool waiting_ = false; ///< Inside runUntil() (not a nested run()).
    SimTime runLimit_ = kTimeForever;
    SimTime horizon_ = kTimeForever;
    trace::Tracer *tracer_ = nullptr;
};

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_SIMULATOR_HH
