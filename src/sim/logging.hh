/**
 * @file
 * Status and error reporting, following the gem5 logging discipline.
 *
 * panic() is for conditions that indicate a bug in the simulator
 * itself; it aborts. fatal() is for user errors (bad configuration,
 * impossible parameters); it exits cleanly with an error code.
 * warn() reports a condition on stderr without stopping.
 */

#ifndef MBUS_SIM_LOGGING_HH
#define MBUS_SIM_LOGGING_HH

#include <cstdio>
#include <sstream>
#include <string>

namespace mbus {
namespace sim {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Format a message from stream-insertable arguments. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report a simulator bug and abort. */
#define mbus_panic(...) \
    ::mbus::sim::detail::panicImpl(__FILE__, __LINE__, \
        ::mbus::sim::detail::format(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define mbus_fatal(...) \
    ::mbus::sim::detail::fatalImpl(__FILE__, __LINE__, \
        ::mbus::sim::detail::format(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::format(std::forward<Args>(args)...));
}

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_LOGGING_HH
