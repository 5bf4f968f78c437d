/**
 * @file
 * Value Change Dump (VCD) writer plus an ASCII waveform renderer.
 *
 * The VCD output loads in any waveform viewer (GTKWave etc.); the
 * ASCII renderer regenerates the paper's waveform figures (Figs 5-7)
 * directly on stdout so the benches are self-contained.
 */

#ifndef MBUS_SIM_VCD_HH
#define MBUS_SIM_VCD_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace mbus {
namespace sim {

/**
 * Records boolean signal traces and renders them as VCD or ASCII art.
 *
 * Signals are registered up front; each recorded change is stored as
 * a (time, value) pair. Rendering is done at the end of a run, so the
 * recorder has no interaction with the event queue.
 */
class TraceRecorder
{
  public:
    /** Opaque id for a registered signal. */
    using SignalId = std::size_t;

    /**
     * Register a signal for tracing.
     *
     * @param name Human-readable signal name (e.g. "n1.DATA_OUT").
     * @param initial Initial value at time zero.
     */
    SignalId addSignal(const std::string &name, bool initial);

    /** Record a value change on @p id at time @p when. */
    void record(SignalId id, SimTime when, bool value);

    /** Total changes recorded across all signals. */
    std::size_t changeCount() const;

    /**
     * Write a standard VCD file.
     *
     * @param os Output stream.
     * @param timescalePs VCD timescale unit in picoseconds (e.g.
     *        1000 for 1 ns resolution).
     */
    void writeVcd(std::ostream &os, SimTime timescalePs = 1000) const;

    /**
     * Render the traces as ASCII waveforms.
     *
     * Each signal becomes one row of '_'/ '#' cells; one cell covers
     * @p cellTime picoseconds starting at @p start. This mirrors the
     * waveform style of the paper's Figures 5-7.
     *
     * @param os Output stream.
     * @param start First rendered time.
     * @param end Last rendered time.
     * @param cellTime Duration of one character cell.
     */
    void renderAscii(std::ostream &os, SimTime start, SimTime end,
                     SimTime cellTime) const;

    /** Value of a signal at an arbitrary time (for assertions). */
    bool valueAt(SignalId id, SimTime when) const;

  private:
    struct Change
    {
        SimTime when;
        bool value;
    };

    struct Signal
    {
        std::string name;
        bool initial;
        std::vector<Change> changes;
    };

    std::vector<Signal> signals_;
};

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_VCD_HH
