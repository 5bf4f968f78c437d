/**
 * @file
 * A lightweight named-statistics registry.
 *
 * Components register counters and scalar gauges under dotted names
 * ("node2.bus.bits_rx"). The registry formats a sorted dump, which
 * benches and examples print alongside their tables.
 */

#ifndef MBUS_SIM_STATS_HH
#define MBUS_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mbus {
namespace sim {

/**
 * A registry of named statistics.
 *
 * Counters are integral and monotone; scalars are doubles for derived
 * quantities (energies, rates). Lookup creates on first use so
 * instrumentation sites stay one-liners.
 */
class StatsRegistry
{
  public:
    /** Add @p delta to the named counter. */
    void
    incr(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Set a named scalar gauge. */
    void
    set(const std::string &name, double value)
    {
        scalars_[name] = value;
    }

    /** Add to a named scalar gauge. */
    void
    add(const std::string &name, double delta)
    {
        scalars_[name] += delta;
    }

    /** @return the counter value (0 if never touched). */
    std::uint64_t
    counter(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /** @return the scalar value (0.0 if never touched). */
    double
    scalar(const std::string &name) const
    {
        auto it = scalars_.find(name);
        return it == scalars_.end() ? 0.0 : it->second;
    }

    /** Reset everything to empty. */
    void
    clear()
    {
        counters_.clear();
        scalars_.clear();
    }

    /** Write a sorted, aligned dump of all statistics. */
    void dump(std::ostream &os) const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
};

/**
 * Nearest-rank percentile over an ascending-sorted sample: the one
 * definition per-cell stats, sweep aggregates, per-actor workload
 * stats and the metrics column's latency summary share.
 *
 * @param sorted Non-empty, ascending.
 * @param q Quantile in (0, 1].
 */
double nearestRankPercentile(const std::vector<double> &sorted,
                             double q);

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_STATS_HH
