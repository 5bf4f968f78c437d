/**
 * @file
 * Shared summary statistics.
 */

#ifndef MBUS_SIM_STATS_HH
#define MBUS_SIM_STATS_HH

#include <vector>

namespace mbus {
namespace sim {

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
