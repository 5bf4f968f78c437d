/**
 * @file
 * Single source of truth for every physical calibration constant.
 *
 * Each value is traced to the paper (section or table). Derived
 * constants are computed here, at compile time, from the primaries so
 * tests can assert the arithmetic the paper performs.
 *
 * Units are SI throughout: volts, farads, ohms, joules, watts,
 * seconds. (Simulated *time* is integer picoseconds; energy bookkeeping
 * is double-precision joules.)
 */

#ifndef MBUS_POWER_CONSTANTS_HH
#define MBUS_POWER_CONSTANTS_HH

namespace mbus {
namespace power {

// --- Electrical environment (Secs 2.1, 6.2, 6.5) ---------------------

/** Bus supply voltage; all chips in the paper operate at 1.2 V. */
constexpr double kVdd = 1.2;

/** Conservative bonding-pad capacitance (Sec 6.2), farads. */
constexpr double kPadCapF = 2.0e-12;

/** Inter-chip wire capacitance (Sec 6.2 Oracle I2C model), farads. */
constexpr double kWireCapF = 0.25e-12;

/**
 * Capacitance of one ring segment: the driver's output pad, the bond
 * wire, and the receiver's input pad. Attributed to the driving chip.
 */
constexpr double kSegmentCapF = 2 * kPadCapF + kWireCapF;

/** Dissipated switching energy per edge on a segment: CV^2 / 2. */
constexpr double kSegmentEdgeEnergyJ = 0.5 * kSegmentCapF * kVdd * kVdd;

// --- MBus energy calibration (Sec 6.2, Table 3) -----------------------

/** PrimeTime post-APR estimate: energy per bit per chip (Sec 6.2). */
constexpr double kSimEnergyPerBitPerChipJ = 3.5e-12;

/** PrimeTime post-APR estimate: idle leakage per chip (Sec 6.2). */
constexpr double kIdleLeakagePerChipW = 5.6e-12;

/** Table 3: measured pJ/bit, member+mediator node sending. */
constexpr double kMeasuredTxJ = 27.45e-12;
/** Table 3: measured pJ/bit, member node receiving. */
constexpr double kMeasuredRxJ = 22.71e-12;
/** Table 3: measured pJ/bit, member node forwarding. */
constexpr double kMeasuredFwdJ = 17.55e-12;
/** Table 3: average measured pJ/bit (the paper's 22.6 headline). */
constexpr double kMeasuredAvgJ =
    (kMeasuredTxJ + kMeasuredRxJ + kMeasuredFwdJ) / 3.0;

/**
 * Ratio of measured to simulated energy. The paper attributes this
 * ~6.5x factor to internal memory buses and other chip components
 * that could not be isolated from the MBus macro (Sec 6.2).
 */
constexpr double kMeasuredOverheadFactor =
    kMeasuredAvgJ / kSimEnergyPerBitPerChipJ;

/** Simulation-scale per-role energies implied by the Table 3 ratios. */
constexpr double kSimTxJ = kMeasuredTxJ / kMeasuredOverheadFactor;
constexpr double kSimRxJ = kMeasuredRxJ / kMeasuredOverheadFactor;
constexpr double kSimFwdJ = kMeasuredFwdJ / kMeasuredOverheadFactor;

/**
 * Internal (non-pad) per-cycle switching components, raw CV^2 scale.
 *
 * A forwarding chip toggles its CLK_OUT segment twice per bus cycle
 * and its DATA_OUT segment ~0.5 times per bit of random data, plus a
 * small combinational term. A receiver additionally clocks its RX
 * FIFO flops; the transmitter additionally runs its drive logic and
 * (being bundled with the mediator in Table 3) the clock generator.
 * Values are sized so the calibrated roles land on kSimTx/Rx/FwdJ for
 * random data: forwarding is 2.5 segment edges plus kCombPerCycleJ
 * (kSimCalibration below makes that kSimFwdJ exactly); receiving adds
 * kFifoPerBitJ, and transmitting adds kDrivePerBitJ and
 * kMediatorPerCycleJ, which lands within 1% of kSimRxJ and kSimTxJ
 * once calibrated (SwitchingModel.RoleDeltasMatchTable3).
 */
constexpr double kCombPerCycleJ = 0.2e-12;
constexpr double kFifoPerBitJ = 2.31e-12;
constexpr double kDrivePerBitJ = 2.43e-12;
constexpr double kMediatorPerCycleJ = 2.0e-12;

/**
 * Calibration scalar mapping our conservative raw CV^2 tally onto the
 * paper's post-APR PrimeTime scale. Raw forwarding activity per cycle
 * is 2 CLK edges + 0.5 DATA edges on a 4.25 pF segment plus the
 * combinational term; the scalar makes that equal kSimFwdJ.
 */
constexpr double kSimCalibration =
    kSimFwdJ / (2.5 * kSegmentEdgeEnergyJ + kCombPerCycleJ);

// --- Ring timing (Sec 6.1) -------------------------------------------

/** Specification limit on node-to-node propagation delay, seconds. */
constexpr double kMaxHopDelayS = 10e-9;

// --- I2C comparison model (Secs 2.1, 6.2) ------------------------------

/** Relaxed micro-scale I2C total bus capacitance, farads. */
constexpr double kI2cBusCapF = 50e-12;

/** I2C logic-high threshold: 80% of VDD. */
constexpr double kI2cRiseFraction = 0.8;

/** Standard (unrelaxed) I2C rise-time budget, seconds (fast mode). */
constexpr double kI2cStandardRiseS = 300e-9;

/** Lee's I2C variant: measured bus energy (Sec 2.2), joules per bit. */
constexpr double kLeeI2cEnergyPerBitJ = 88e-12;

/** Lee's variant needs a local clock 5x the bus clock (Sec 2.2). */
constexpr double kLeeI2cClockRatio = 5.0;

// --- System components (Sec 6.3) ---------------------------------------

/** The ARM Cortex-M0 processor energy per cycle (Sec 6.3.1). */
constexpr double kProcessorEnergyPerCycleJ = 20e-12;

/** Cycles for the processor to relay an 8-byte message (Sec 6.3.1). */
constexpr int kProcessorRelayCycles = 50;

/** Temperature system idle power: 8 nW total (Abstract, Sec 6.2). */
constexpr double kTempSystemIdleW = 8e-9;

/** Measured energy per sense-and-send event (Sec 6.3.1), joules. */
constexpr double kSenseAndSendEventJ = 100e-9;

} // namespace power
} // namespace mbus

#endif // MBUS_POWER_CONSTANTS_HH
