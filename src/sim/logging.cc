#include "sim/logging.hh"

#include <cstdlib>

namespace mbus {
namespace sim {

namespace detail {

namespace {

/**
 * Write one whole line to stderr in a single stdio call. stdio locks
 * the stream per call, so lines from concurrent sweep workers never
 * interleave.
 */
void
writeLine(const std::string &line)
{
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

std::string
located(const char *kind, const char *file, int line,
        const std::string &msg)
{
    return std::string(kind) + ": " + msg + "\n  at " + file + ":" +
           std::to_string(line) + "\n";
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine(located("panic", file, line, msg));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    writeLine(located("fatal", file, line, msg));
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    writeLine("warn: " + msg + "\n");
}

} // namespace detail

} // namespace sim
} // namespace mbus
