#include "bitbang/bitbang_i2c.hh"

namespace mbus {
namespace bitbang {

I2cPathCost
BitbangI2c::longestPath() const
{
    // i2c_write_bit worst case: read SDA (arbitration check), branch,
    // set SDA, delay bookkeeping, raise SCL, read SCL (clock
    // stretching), branch, read SDA (lost-arbitration), branch, lower
    // SCL -- 21 instructions per the paper's compilation.
    I2cPathCost path;
    path.instructions = BitbangI2cReference::kLongestPathInstructions;
    path.cycles = cost_.isrEntryCycles +
                  3 * cost_.gpioReadCycles + 2 * cost_.gpioWriteCycles +
                  cost_.dispatchCycles + cost_.stateUpdateCycles +
                  cost_.isrExitCycles;
    return path;
}

double
BitbangI2c::maxSclHz() const
{
    return cost_.cpuHz / static_cast<double>(longestPath().cycles);
}

} // namespace bitbang
} // namespace mbus
