/**
 * @file
 * Tests for the energy ledger, the calibration constants, and the
 * battery arithmetic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "power/battery.hh"
#include "power/constants.hh"
#include "power/energy.hh"
#include "power/switching.hh"
#include "sim/random.hh"

using namespace mbus::power;

TEST(Constants, MeasuredAverageIsThePapersHeadline)
{
    // Table 3: the 22.6 pJ/bit/chip average.
    EXPECT_NEAR(kMeasuredAvgJ, 22.57e-12, 0.05e-12);
}

TEST(Constants, MeasuredOverheadFactorNearSixPointFive)
{
    // Sec 6.2 attributes a ~6.5x gap between simulation and
    // measurement to unisolatable chip overheads.
    EXPECT_NEAR(kMeasuredOverheadFactor, 6.45, 0.1);
}

TEST(Constants, SimRoleEnergiesAverageTo3p5)
{
    double avg = (kSimTxJ + kSimRxJ + kSimFwdJ) / 3.0;
    EXPECT_NEAR(avg, kSimEnergyPerBitPerChipJ, 1e-15);
}

TEST(SwitchingModel, CalibratedForwardRoleMatchesTable3)
{
    SwitchingEnergyModel m;
    // Per bus cycle a forwarder sees 2 CLK edges + ~0.5 DATA edges
    // on its output segment plus the comb term.
    double fwd = 2.5 * m.segmentEdge() + m.combPerCycle();
    EXPECT_NEAR(fwd, kSimFwdJ, kSimFwdJ * 1e-6);
}

TEST(SwitchingModel, RoleDeltasMatchTable3)
{
    SwitchingEnergyModel m;
    double fwd = 2.5 * m.segmentEdge() + m.combPerCycle();
    double rx = fwd + m.fifoPerBit();
    double tx = fwd + m.drivePerBit() + m.mediatorPerCycle();
    EXPECT_NEAR(rx, kSimRxJ, kSimRxJ * 0.01);
    EXPECT_NEAR(tx, kSimTxJ, kSimTxJ * 0.01);
    // And scaled to the measured world they reproduce Table 3.
    EXPECT_NEAR(SwitchingEnergyModel::toMeasured(tx), kMeasuredTxJ,
                kMeasuredTxJ * 0.01);
    EXPECT_NEAR(SwitchingEnergyModel::toMeasured(rx), kMeasuredRxJ,
                kMeasuredRxJ * 0.01);
}

TEST(EnergyLedger, ChargesAccumulatePerNodeAndCategory)
{
    EnergyLedger ledger(3);
    ledger.charge(0, EnergyCategory::SegmentClk, 1e-12);
    ledger.charge(0, EnergyCategory::SegmentClk, 2e-12);
    ledger.charge(1, EnergyCategory::Fifo, 5e-12);

    EXPECT_DOUBLE_EQ(
        ledger.nodeCategory(0, EnergyCategory::SegmentClk), 3e-12);
    EXPECT_DOUBLE_EQ(ledger.nodeTotal(0), 3e-12);
    EXPECT_DOUBLE_EQ(ledger.nodeTotal(1), 5e-12);
    EXPECT_DOUBLE_EQ(ledger.categoryTotal(EnergyCategory::Fifo), 5e-12);
    EXPECT_DOUBLE_EQ(ledger.total(), 8e-12);

    ledger.reset();
    EXPECT_DOUBLE_EQ(ledger.total(), 0.0);
}

TEST(EnergyLedger, PriceIsCountTimesUnitAtEveryCount)
{
    // A cell priced from an event counter holds count x unit at every
    // read: random counts, zero, a lower count after a higher one and
    // a repeated read. Charged cells beside it keep their sums.
    const double unit = SwitchingEnergyModel().segmentEdge();
    mbus::sim::Random rng(0xf01du);
    std::vector<std::uint64_t> counts;
    for (int read = 0; read < 40; ++read)
        counts.push_back(rng.below(1000001));
    counts.insert(counts.end(), {0, 1000000, 17, 17});
    EnergyLedger ledger(2);
    ledger.charge(1, EnergyCategory::Fifo, 3e-12);
    ledger.charge(0, EnergyCategory::Comb, 5e-12);
    for (std::uint64_t count : counts) {
        ledger.price(1, EnergyCategory::Comb, unit, count);
        EXPECT_EQ(ledger.nodeCategory(1, EnergyCategory::Comb),
                  unit * static_cast<double>(count))
            << "count " << count;
        EXPECT_EQ(ledger.nodeCategory(1, EnergyCategory::Fifo), 3e-12);
        EXPECT_EQ(ledger.nodeCategory(0, EnergyCategory::Comb), 5e-12);
    }
    EXPECT_EQ(ledger.nodeTotal(0), 5e-12);
}

TEST(Battery, PaperCapacityArithmetic)
{
    // Sec 6.3.1: 2 uAh x 3.8 V = 27.4 mJ.
    Battery b(2.0, 3.8);
    EXPECT_NEAR(b.energyJ(), 27.4e-3, 0.1e-3);
}

TEST(Battery, LifetimeAtConstantDraw)
{
    Battery b(2.0, 3.8);
    // 100 nJ / 15 s = 6.67 nW -> ~47.5 days.
    double watts = 100e-9 / 15.0;
    EXPECT_NEAR(b.lifetimeDays(watts), 47.5, 0.3);
}
