/**
 * @file
 * Regenerates the Section 6.6 bitbang analysis: MSP430 worst-case
 * path accounting, the resulting maximum bus clock, the comparison
 * with Wikipedia's bitbang I2C, and a live mixed hardware/software
 * ring demonstration.
 */

#include <cstdio>

#include "backend/mbus_backend.hh"
#include "bench/bench_util.hh"
#include "bitbang/bitbang_i2c.hh"

using namespace mbus;
using namespace mbus::bitbang;

int
main()
{
    benchutil::banner("Sec 6.6: Bitbanging MBus",
                      "Pannuto et al., ISCA'15, Sec 6.6");

    Msp430CostModel cost;
    benchutil::section("Worst-case edge-to-output path (MSP430, "
                       "msp430-gcc)");
    std::printf("instructions: %d (paper: 20)\n",
                cost.worstPathInstructions());
    std::printf("cycles incl. interrupt entry/exit: %d (paper: "
                "65)\n", cost.worstPathCycles());
    std::printf("max MBus clock at 8 MHz, paper arithmetic "
                "(cpu/worst): %.0f kHz (paper: \"up to 120 kHz\")\n",
                cost.maxBusClockHzPaper() / 1e3);
    std::printf("conservative (response within half period, "
                "hardware peer latching): %.1f kHz\n",
                cost.maxBusClockHzConservative() / 1e3);

    benchutil::section("Bitbang I2C reference ([2], compiled per the "
                       "paper's footnote)");
    BitbangI2c i2c;
    std::printf("longest path: %d instructions (paper: 21) / %d "
                "cycles -- \"similar overhead\"\n",
                i2c.longestPath().instructions,
                i2c.longestPath().cycles);
    std::printf("max SCL from straight-line path: %.0f kHz\n",
                i2c.maxSclHz() / 1e3);

    benchutil::section("Mixed ring demo: 2 hardware nodes + 1 "
                       "software member at 20 kHz");
    sim::Simulator simulator;
    backend::BusParams p;
    p.busClockHz = 20e3;
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Bitbang);
    const std::size_t soft = ring.softIndex();

    int sw_rx = 0, hw_rx = 0;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &) {
            if (n == soft)
                ++sw_rx;
            if (n == 1)
                ++hw_rx;
        });

    // hw0 -> software member.
    bus::Message to_sw;
    to_sw.dest = ring.unicastAddress(soft, false, 0);
    to_sw.payload = {0xBE, 0xEF};
    ring.send(0, to_sw, [&](const bus::TxResult &r) {
        std::printf("hw0 -> bitbang: %s\n",
                    bus::txStatusName(r.status));
        simulator.stop();
    });
    simulator.run(sim::kSecond);

    // Software member -> hw1 (full TX path in software).
    bus::Message to_hw;
    to_hw.dest = ring.unicastAddress(1, false, bus::kFuMailbox);
    to_hw.payload = {0x42, 0x24, 0x99};
    ring.send(soft, to_hw, [&](const bus::TxResult &r) {
        std::printf("bitbang -> hw1: %s\n",
                    bus::txStatusName(r.status));
        simulator.stop();
    });
    simulator.run(2 * sim::kSecond);
    ring.runUntilIdle(100 * sim::kMillisecond);

    const auto &st = ring.softMember()->stats();
    std::printf("deliveries: software member %d, hardware member "
                "%d\n", sw_rx, hw_rx);
    std::printf("software ISR stats: %llu invocations, %llu cycles, "
                "max path %d cycles (model bound %d)\n",
                static_cast<unsigned long long>(st.isrInvocations),
                static_cast<unsigned long long>(st.cyclesSpent),
                ring.softMember()->maxObservedPathCycles(),
                cost.worstPathCycles());
    std::printf("\nShape: software members interoperate with "
                "hardware MBus with zero tuning, at clocks bounded "
                "by cpu_clock / worst_isr_path -- the Sec 6.6 "
                "claim.\n");
    return 0;
}
