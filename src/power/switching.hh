/**
 * @file
 * The calibrated CV^2 switching-energy model.
 *
 * Raw physics (half-CV^2 per edge on a pad+wire+pad segment, plus
 * internal per-cycle component terms) multiplied by a single
 * calibration scalar that maps our conservative 2 pF pad model onto
 * the paper's post-APR PrimeTime result of 3.5 pJ/bit/chip. See
 * power/constants.hh for the derivation of every number.
 */

#ifndef MBUS_POWER_SWITCHING_HH
#define MBUS_POWER_SWITCHING_HH

#include <cstddef>
#include <cstdint>

#include "power/constants.hh"
#include "power/energy.hh"

namespace mbus {
namespace power {

/**
 * The switching events one MBus ring slot is charged for. A slot
 * without chip logic (a software member's) has only segment edges;
 * only slot 0 hosts the mediator.
 */
struct SlotCounts
{
    std::uint64_t clkEdges = 0;       ///< Its CLK_OUT segment's edges.
    std::uint64_t dataEdges = 0;      ///< Its DATA_OUT + lane segments'.
    std::uint64_t localClkEdges = 0;  ///< Its chip's local CLK edges.
    std::uint64_t fifoBits = 0;       ///< Bits latched as receiver.
    std::uint64_t driveCycles = 0;    ///< Cycles driven as sender.
    std::uint64_t mediatorCycles = 0; ///< Mediator clock cycles.
};

/**
 * Provides calibrated per-event energies for the simulator's charge
 * sites. Stateless; exists as a class so alternative calibrations
 * (e.g. the ablation benches) can be injected.
 */
class SwitchingEnergyModel
{
  public:
    /**
     * @param calibration Scalar applied to every raw CV^2 term.
     *        Defaults to the paper-derived kSimCalibration.
     * @param segmentCapF Capacitance of one ring segment (two pads
     *        plus the inter-chip wire). Defaults to the Sec 6.2
     *        conservative model; parameter sweeps vary it to study
     *        longer or denser interconnect.
     */
    explicit SwitchingEnergyModel(double calibration = kSimCalibration,
                                  double segmentCapF = kSegmentCapF)
        : calibration_(calibration),
          segmentEdgeJ_(0.5 * segmentCapF * kVdd * kVdd)
    {}

    /** Energy per edge on one ring segment (driver-attributed). */
    double
    segmentEdge() const
    {
        return segmentEdgeJ_ * calibration_;
    }

    /** Forwarding combinational energy, per bus cycle per chip. */
    double
    combPerCycle() const
    {
        return kCombPerCycleJ * calibration_;
    }

    /** RX FIFO flop energy per latched bit. */
    double fifoPerBit() const { return kFifoPerBitJ * calibration_; }

    /** Transmit drive-logic energy per driven bit. */
    double drivePerBit() const { return kDrivePerBitJ * calibration_; }

    /** Mediator clock-generation energy per bus cycle. */
    double
    mediatorPerCycle() const
    {
        return kMediatorPerCycleJ * calibration_;
    }

    /** Map a simulation-scale energy to the measured scale. */
    static double
    toMeasured(double simJoules)
    {
        return simJoules * kMeasuredOverheadFactor;
    }

    /** The active calibration scalar. */
    double calibration() const { return calibration_; }

    /**
     * Price ring slot @p slot's switching cells in @p ledger, each
     * as count x unit: segment edges at segmentEdge(), half a cycle's
     * comb energy per local CLK edge, fifoPerBit() per latched bit,
     * drivePerBit() per driven cycle, mediatorPerCycle() per mediator
     * cycle. Both MBus models price their energy here.
     */
    void priceSlot(EnergyLedger &ledger, std::size_t slot,
                   const SlotCounts &counts) const;

  private:
    double calibration_;
    double segmentEdgeJ_;
};

} // namespace power
} // namespace mbus

#endif // MBUS_POWER_SWITCHING_HH
