/**
 * @file
 * The Wikipedia-style bitbang I2C master used as the paper's
 * comparison point (Sec 6.6, [2]).
 *
 * The paper compiled the reference implementation with the stub
 * functions (read_SCL() etc.) converted to single-memory-operation
 * MMIO accesses and found a longest path of 21 instructions. We
 * reproduce the structure (the per-bit write/read primitives and
 * their operation counts) so the bench can regenerate the comparison
 * and tests can assert the instruction accounting.
 */

#ifndef MBUS_BITBANG_BITBANG_I2C_HH
#define MBUS_BITBANG_BITBANG_I2C_HH

#include <cstdint>

#include "bitbang/cost_model.hh"

namespace mbus {
namespace bitbang {

/** Operation counts for one step of the bitbang I2C master. */
struct I2cPathCost
{
    int instructions;
    int cycles;
};

/** Instruction/cycle accounting of the reference bitbang I2C. */
class BitbangI2c
{
  public:
    explicit BitbangI2c(Msp430CostModel cost = {}) : cost_(cost) {}

    /**
     * The longest straight-line path: the write-bit routine with
     * clock stretching check and arbitration-loss check.
     */
    I2cPathCost longestPath() const;

    /** Max SCL frequency from the straight-line path. */
    double maxSclHz() const;

  private:
    Msp430CostModel cost_;
};

} // namespace bitbang
} // namespace mbus

#endif // MBUS_BITBANG_BITBANG_I2C_HH
