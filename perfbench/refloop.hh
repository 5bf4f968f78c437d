/**
 * @file
 * A frozen host-speed reference: a replica of the seed event kernel
 * (one make_shared per schedule, std::function entries, a shared live
 * counter, tombstone cancellation), the same shape as bench_kernel's
 * `legacy` namespace. It lives here, not in src/, so no change to the
 * simulator can move it: host.ref_loop_ns tells host drift apart from
 * code change.
 */

#ifndef PERFBENCH_REFLOOP_HH
#define PERFBENCH_REFLOOP_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

namespace perfbench {
namespace refloop {

using SimTime = std::uint64_t;

class EventQueue
{
  public:
    struct State
    {
        bool cancelled = false;
        bool fired = false;
        std::weak_ptr<std::uint64_t> liveCounter;
    };

    std::shared_ptr<State>
    schedule(SimTime when, std::function<void()> fn)
    {
        auto state = std::make_shared<State>();
        state->liveCounter = live_;
        heap_.push(Entry{when, nextSeq_++, std::move(fn), state});
        ++*live_;
        return state;
    }

    bool empty() const { return *live_ == 0; }

    SimTime
    executeNext()
    {
        while (!heap_.empty() && heap_.top().state->cancelled)
            heap_.pop();
        Entry &top = const_cast<Entry &>(heap_.top());
        SimTime when = top.when;
        std::function<void()> fn = std::move(top.fn);
        auto state = std::move(top.state);
        heap_.pop();
        state->fired = true;
        --*live_;
        ++executed_;
        fn();
        return when;
    }

    std::uint64_t executed() const { return executed_; }

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t seq;
        std::function<void()> fn;
        std::shared_ptr<State> state;

        bool
        operator>(const Entry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap_;
    std::uint64_t nextSeq_ = 0;
    std::shared_ptr<std::uint64_t> live_ = std::make_shared<std::uint64_t>(0);
    std::uint64_t executed_ = 0;
};

/** Run a self-rescheduling tick chain of @p n events; @return the
 *  number of events executed. */
inline std::uint64_t
tickChain(std::uint64_t n)
{
    EventQueue q;
    SimTime now = 0;
    std::uint64_t remaining = n;
    std::function<void()> tick = [&] {
        if (--remaining > 0)
            q.schedule(now + 1000, tick);
    };
    q.schedule(1000, tick);
    while (!q.empty())
        now = q.executeNext();
    return q.executed();
}

/** Host nanoseconds per reference event: the median of five short
 *  tick chains. */
inline double
nsPerEvent()
{
    std::vector<double> ns;
    for (int i = 0; i < 5; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t n = tickChain(100000);
        ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     static_cast<double>(n));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/**
 * The reference speed normalized metrics are scaled to: a ".norm"
 * time reads as it would on a host whose reference loop runs at this
 * many ns per event. Host load on a shared machine slows the simulator
 * and this loop together (the two track each other far better than
 * either tracks the clock), so the ratio cancels most of it.
 */
constexpr double kNominalNs = 50.0;

/** Multiply a host time by this to normalize it (divide a rate). */
inline double
timeScale(double refNs)
{
    return kNominalNs / refNs;
}

} // namespace refloop
} // namespace perfbench

#endif // PERFBENCH_REFLOOP_HH
