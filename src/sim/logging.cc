#include "sim/logging.hh"

#include <cstdlib>
#include <iostream>

namespace mbus {
namespace sim {

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail

} // namespace sim
} // namespace mbus
