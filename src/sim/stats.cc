#include "sim/stats.hh"

#include <cmath>
#include <iomanip>

namespace mbus {
namespace sim {

void
StatsRegistry::dump(std::ostream &os) const
{
    std::size_t width = 0;
    for (const auto &kv : counters_)
        width = std::max(width, kv.first.size());
    for (const auto &kv : scalars_)
        width = std::max(width, kv.first.size());

    for (const auto &kv : counters_) {
        os << std::left << std::setw(static_cast<int>(width) + 2)
           << kv.first << kv.second << "\n";
    }
    for (const auto &kv : scalars_) {
        os << std::left << std::setw(static_cast<int>(width) + 2)
           << kv.first << std::setprecision(6) << kv.second << "\n";
    }
}

double
nearestRankPercentile(const std::vector<double> &sorted, double q)
{
    std::size_t i = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[(i == 0 ? 1 : i) - 1];
}

} // namespace sim
} // namespace mbus
