#include "trace/metrics.hh"

#include "sim/fsio.hh"
#include "sim/stats.hh"

namespace mbus {
namespace trace {

void
MetricsRegistry::counter(const std::string &name, std::uint64_t v)
{
    samples_.push_back({name, std::to_string(v)});
}

void
MetricsRegistry::gauge(const std::string &name, double v)
{
    samples_.push_back({name, sim::formatDouble(v)});
}

void
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &sorted)
{
    counter(name + "_count", sorted.size());
    if (sorted.empty())
        return;
    gauge(name + "_p50", sim::nearestRankPercentile(sorted, 0.50));
    gauge(name + "_p95", sim::nearestRankPercentile(sorted, 0.95));
    gauge(name + "_p99", sim::nearestRankPercentile(sorted, 0.99));
}

} // namespace trace
} // namespace mbus
