/**
 * @file
 * Maximum bus clock vs ring population (Figure 9).
 *
 * The paper budgets 10 ns of node-to-node propagation delay and
 * reports the peak clock as one hop per node per clock period:
 * f_max(n) = 1 / (n * 10 ns), giving 7.1 MHz at the 14-node maximum.
 *
 * Our edge-level simulator additionally requires that a bit driven on
 * a falling edge settles at every receiver -- including those reached
 * through the mediator wrap-around -- before the rising-edge latch,
 * which costs a further factor of two: the ratio of the two curves is
 * 2(n+2)/n, between 2.3x at 14 nodes and 4x at 2. Both curves are
 * exposed, and bench/fig9_max_frequency.cc prints them side by side.
 */

#ifndef MBUS_ANALYSIS_FREQUENCY_HH
#define MBUS_ANALYSIS_FREQUENCY_HH

namespace mbus {
namespace analysis {

/** The paper's Figure 9 curve: 1 / (n * hopDelay). */
double paperMaxClockHz(int nodes, double hopDelayS = 10e-9);

/** Our conservative settle-before-latch limit: 1 / (2 (n+2) hop). */
double conservativeMaxClockHz(int nodes, double hopDelayS = 10e-9);

} // namespace analysis
} // namespace mbus

#endif // MBUS_ANALYSIS_FREQUENCY_HH
