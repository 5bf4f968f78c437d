/**
 * @file
 * Section 6.6 tests: the MSP430 cost model and the bitbang I2C
 * reference path. The software member on a mixed ring is exercised
 * through the bitbang fabric (tests/backend, tests/bitbang/
 * bitbang_limits_test.cc).
 */

#include <gtest/gtest.h>

#include "bitbang/bitbang_i2c.hh"
#include "bitbang/cost_model.hh"

using namespace mbus;
using namespace mbus::bitbang;

TEST(CostModel, WorstPathIs65CyclesAnd20Instructions)
{
    Msp430CostModel cost;
    EXPECT_EQ(cost.worstPathCycles(), 65);
    EXPECT_EQ(cost.worstPathInstructions(), 20);
}

TEST(CostModel, PaperMaxBusClockIsAbout120kHz)
{
    // "With an 8 MHz system clock speed, the MSP430 can support up
    // to a 120 kHz MBus clock" (8 MHz / 65 = 123 kHz).
    Msp430CostModel cost;
    EXPECT_NEAR(cost.maxBusClockHzPaper(), 123e3, 1e3);
    EXPECT_NEAR(cost.maxBusClockHzConservative(), 61.5e3, 1e3);
}

TEST(CostModel, ScalesWithCpuClock)
{
    Msp430CostModel slow;
    slow.cpuHz = 1e6;
    EXPECT_NEAR(slow.maxBusClockHzPaper(), 15.4e3, 0.2e3);
}

TEST(BitbangI2cRef, LongestPathIs21Instructions)
{
    BitbangI2c i2c;
    EXPECT_EQ(i2c.longestPath().instructions, 21);
    // Similar overhead to the MBus bitbang (the paper's point).
    Msp430CostModel cost;
    EXPECT_NEAR(static_cast<double>(i2c.longestPath().cycles),
                static_cast<double>(cost.worstPathCycles()), 15.0);
}
