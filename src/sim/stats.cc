#include "sim/stats.hh"

#include <cmath>

namespace mbus {
namespace sim {

double
nearestRankPercentile(const std::vector<double> &sorted, double q)
{
    std::size_t i = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[(i == 0 ? 1 : i) - 1];
}

} // namespace sim
} // namespace mbus
