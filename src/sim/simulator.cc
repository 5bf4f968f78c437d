#include "sim/simulator.hh"

namespace mbus {
namespace sim {

SimTime
Simulator::run(SimTime limit)
{
    const bool outer = waiting_;
    waiting_ = false;
    loop(limit);
    waiting_ = outer;
    return now_;
}

Simulator::Halt
Simulator::loop(SimTime limit)
{
    halt_ = Halt::None;
    const SimTime outer = runLimit_;
    runLimit_ = limit;
    // step() advances now_ to the event time *before* the callback
    // runs, so callbacks observe the correct current time.
    while (halt_ == Halt::None) {
        EventQueue::Step r = queue_.step(limit, now_);
        if (r == EventQueue::Step::Executed)
            continue;
        if (r == EventQueue::Step::BeyondLimit) {
            now_ = limit;
            runLimit_ = outer;
            return halt_;
        }
        break; // Drained.
    }
    // The queue drained before the limit: idle time still passes
    // (leakage integration depends on this).
    if (halt_ == Halt::None && limit != kTimeForever && now_ < limit)
        now_ = limit;
    runLimit_ = outer;
    return halt_;
}

} // namespace sim
} // namespace mbus
