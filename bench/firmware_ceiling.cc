/**
 * @file
 * Software-member clock ceiling: ISR latency x bus clock (Sec 6.6).
 *
 * The paper's software MBus implementation tops out far below the
 * hardware clock because every CLK edge must be serviced by an ISR
 * before the next one lands. This bench probes that ceiling with the
 * real (ported) firmware in the loop: the mixed ring is deliberately
 * overclocked past the software member's envelope
 * (allowUnsafeClock), the firmware runs in merge-missed-edges mode
 * (a second edge arriving while the ISR is pending is absorbed, as
 * the MCU's interrupt flag would), and extra seeded ISR-entry jitter
 * models a busier MCU. Where edges merge, the firmware's
 * MBUS_CLOCK_SYNCH_ERROR path fires and transfers fail -- the
 * highest clock with a clean sweep of round-trip messages is the
 * ceiling for that jitter level.
 *
 * Output: one CSV row per (jitter, clock) cell plus a per-jitter
 * ceiling summary -- the software-member twin of fig9's hardware
 * max-frequency sweep.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "backend/mbus_backend.hh"
#include "bench/bench_util.hh"
#include "sim/simulator.hh"

using namespace mbus;

namespace {

struct Cell
{
    std::uint32_t jitterCycles = 0;
    double clockHz = 0;
    int acked = 0;
    int failed = 0;
    std::uint64_t localErrors = 0;
    std::uint64_t mergedEdges = 0;
};

/** Round-trip traffic at one (jitter, clock) point. */
Cell
probe(std::uint32_t jitterCycles, double clockHz, int messages)
{
    sim::Simulator simulator;
    backend::BusParams p;
    p.nodes = 3;
    p.busClockHz = clockHz;
    p.fwIsrJitterCycles = jitterCycles;
    p.fwMergeMissedEdges = true;
    p.allowUnsafeClock = true;
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Firmware);

    Cell cell;
    cell.jitterCycles = jitterCycles;
    cell.clockHz = clockHz;
    for (int i = 0; i < messages; ++i) {
        // Alternate directions: the member both forwards under
        // pressure (hw -> soft) and transmits under pressure.
        bool fromSoft = i % 2 == 0;
        bus::Message msg;
        msg.dest = fromSoft
                       ? ring.unicastAddress(0, false, 7)
                       : ring.unicastAddress(ring.softIndex(), false, 0);
        msg.payload = {static_cast<std::uint8_t>(i), 0x5A, 0xC3};
        std::optional<bus::TxResult> result;
        ring.send(fromSoft ? ring.softIndex() : 0, msg,
                  [&](const bus::TxResult &r) {
                      result = r;
                      simulator.poke();
                  });
        // At most until 1 s of bus time.
        simulator.runUntil(sim::kSecond -
                               std::min(sim::kSecond, simulator.now()),
                           [&] { return result.has_value(); });
        if (result.has_value() &&
            result->status == bus::TxStatus::Ack)
            ++cell.acked;
        else
            ++cell.failed;
        if (!ring.runUntilIdle(sim::kSecond))
            break; // Wedged past the envelope: remaining sends fail.
    }
    cell.failed = messages - cell.acked;
    cell.localErrors = ring.softMember()->stats().localErrors;
    cell.mergedEdges = ring.softMember()->stats().mergedEdges;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out = "firmware_ceiling.csv";
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[i + 1];
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    benchutil::banner(
        "Firmware clock ceiling: ISR latency x bus clock",
        "Sec 6.6 -- the software member's envelope, firmware in the "
        "loop");

    const int messages = smoke ? 4 : 8;
    std::vector<std::uint32_t> jitters =
        smoke ? std::vector<std::uint32_t>{0, 32}
              : std::vector<std::uint32_t>{0, 8, 32, 64, 128};
    std::vector<double> clocks;
    for (double hz = 6e3; hz <= 60e3; hz *= smoke ? 1.6 : 1.25)
        clocks.push_back(hz);

    std::ofstream os(out);
    os << "jitter_cycles,clock_hz,acked,failed,local_errors,"
          "merged_edges\n";
    std::printf("%-8s %10s %6s %6s %8s %8s\n", "jitter", "clock[Hz]",
                "acked", "failed", "locErr", "merged");
    for (std::uint32_t j : jitters) {
        double ceiling = 0;
        for (double hz : clocks) {
            Cell c = probe(j, hz, messages);
            os << c.jitterCycles << ',' << c.clockHz << ','
               << c.acked << ',' << c.failed << ',' << c.localErrors
               << ',' << c.mergedEdges << '\n';
            std::printf("%-8u %10.0f %6d %6d %8llu %8llu\n",
                        c.jitterCycles, c.clockHz, c.acked, c.failed,
                        static_cast<unsigned long long>(c.localErrors),
                        static_cast<unsigned long long>(c.mergedEdges));
            if (c.failed == 0)
                ceiling = hz; // Clocks ascend: last clean sweep wins.
        }
        std::printf("jitter %3u cycles: ceiling ~%.0f Hz\n", j,
                    ceiling);
    }
    std::printf("wrote %s\n", out);
    return 0;
}
