// SwitchingEnergyModel's ring-slot pricing, and the static_asserts
// validating the calibration arithmetic laid out in power/constants.hh.

#include "power/switching.hh"

namespace mbus {
namespace power {

// The calibrated forwarding-role energy must land on the Table 3
// derived value: 2 CLK edges + 0.5 DATA edges + comb per cycle.
static_assert(kSimCalibration > 0.0, "calibration must be positive");

namespace {
constexpr double kFwdCheck =
    (2.5 * kSegmentEdgeEnergyJ + kCombPerCycleJ) * kSimCalibration;
static_assert(kFwdCheck > kSimFwdJ * 0.999 && kFwdCheck < kSimFwdJ * 1.001,
              "forwarding-role calibration drifted from Table 3");
} // namespace

void
SwitchingEnergyModel::priceSlot(EnergyLedger &ledger, std::size_t slot,
                                const SlotCounts &counts) const
{
    ledger.price(slot, EnergyCategory::SegmentClk, segmentEdge(),
                 counts.clkEdges);
    ledger.price(slot, EnergyCategory::SegmentData, segmentEdge(),
                 counts.dataEdges);
    ledger.price(slot, EnergyCategory::Comb, combPerCycle() / 2.0,
                 counts.localClkEdges);
    ledger.price(slot, EnergyCategory::Fifo, fifoPerBit(), counts.fifoBits);
    ledger.price(slot, EnergyCategory::Drive, drivePerBit(),
                 counts.driveCycles);
    ledger.price(slot, EnergyCategory::Mediator, mediatorPerCycle(),
                 counts.mediatorCycles);
}

} // namespace power
} // namespace mbus
