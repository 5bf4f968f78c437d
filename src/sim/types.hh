/**
 * @file
 * Fundamental simulation types: simulated time and frequency.
 *
 * All simulated time is kept in integer picoseconds. Integer time
 * avoids the cumulative floating point drift that plagues long
 * simulations (a 28.8 kB image transfer at 10 kHz spans minutes of
 * simulated time) and makes event ordering exact and deterministic.
 */

#ifndef MBUS_SIM_TYPES_HH
#define MBUS_SIM_TYPES_HH

#include <cstdint>

namespace mbus {
namespace sim {

/** Simulated time, in picoseconds since simulation start. */
using SimTime = std::uint64_t;

/** A signed time difference, in picoseconds. */
using SimTimeDelta = std::int64_t;

/** One picosecond. */
constexpr SimTime kPicosecond = 1;
/** One nanosecond in picoseconds. */
constexpr SimTime kNanosecond = 1000 * kPicosecond;
/** One microsecond in picoseconds. */
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
/** One millisecond in picoseconds. */
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
/** One second in picoseconds. */
constexpr SimTime kSecond = 1000 * kMillisecond;

/** A time that compares greater than every schedulable time. */
constexpr SimTime kTimeForever = ~SimTime(0);

/** @p a + @p b, saturating at kTimeForever. */
constexpr SimTime
addSaturating(SimTime a, SimTime b)
{
    return a > kTimeForever - b ? kTimeForever : a + b;
}

/** Convert a time in picoseconds to floating point seconds. */
constexpr double
toSeconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/** Convert floating point seconds to integer picoseconds. */
constexpr SimTime
fromSeconds(double seconds)
{
    return static_cast<SimTime>(seconds * static_cast<double>(kSecond) + 0.5);
}

/**
 * Convert a frequency in hertz to its period in picoseconds.
 *
 * @param hz Frequency in hertz; must be positive.
 * @return The rounded period of one cycle.
 */
constexpr SimTime
periodFromHz(double hz)
{
    return static_cast<SimTime>(static_cast<double>(kSecond) / hz + 0.5);
}

/** Convert a period in picoseconds to a frequency in hertz. */
constexpr double
hzFromPeriod(SimTime period)
{
    return static_cast<double>(kSecond) / static_cast<double>(period);
}

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_TYPES_HH
