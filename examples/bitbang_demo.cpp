/**
 * @file
 * Bitbanged MBus on four GPIOs (Sec 6.6): an off-the-shelf
 * microcontroller with no MBus peripheral joins a hardware ring,
 * forwards traffic, receives, and transmits -- at a bus clock
 * bounded by its ISR worst path.
 */

#include <cstdio>

#include "backend/mbus_backend.hh"

using namespace mbus;
using namespace mbus::bitbang;

int
main()
{
    Msp430CostModel cost; // 8 MHz MSP430-class core.
    std::printf("software member: worst ISR path %d instructions / "
                "%d cycles -> max bus clock ~%.0f kHz (paper: "
                "\"up to 120 kHz\")\n",
                cost.worstPathInstructions(), cost.worstPathCycles(),
                cost.maxBusClockHzPaper() / 1e3);

    // Two hardware chips (hw0 hosts the mediator) and the software
    // member, which runs the ported libmbus firmware.
    sim::Simulator simulator;
    backend::BusParams p;
    p.busClockHz = 20e3; // Well inside the software envelope.
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Bitbang);
    const std::size_t soft = ring.softIndex();

    ring.setDeliveryHandler(
        [soft](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == soft)
                std::printf("[bitbang] received %zu bytes via GPIO "
                            "ISRs\n", rx.payload.size());
            else if (n == 1)
                std::printf("[hw1] received %zu bytes from the "
                            "software member\n", rx.payload.size());
        });

    // Hardware -> software.
    bus::Message down;
    down.dest = ring.unicastAddress(soft, false, 0);
    down.payload = {0x01, 0x02, 0x03, 0x04};
    ring.send(0, down, [&](const bus::TxResult &r) {
        std::printf("[hw0] -> bitbang: %s\n",
                    bus::txStatusName(r.status));
        simulator.stop();
    });
    simulator.run(sim::kSecond);

    // Software -> hardware (the full TX path runs in ISRs).
    bus::Message up;
    up.dest = ring.unicastAddress(1, false, bus::kFuMailbox);
    up.payload = {0xAA, 0xBB};
    ring.send(soft, up, [&](const bus::TxResult &r) {
        std::printf("[bitbang] -> hw1: %s\n",
                    bus::txStatusName(r.status));
        simulator.stop();
    });
    simulator.run(2 * sim::kSecond);
    ring.runUntilIdle(100 * sim::kMillisecond);

    const auto &st = ring.softMember()->stats();
    std::printf("\nCPU accounting: %llu ISRs, %llu cycles total "
                "(%.1f ms at 8 MHz), max observed path %d cycles\n",
                static_cast<unsigned long long>(st.isrInvocations),
                static_cast<unsigned long long>(st.cyclesSpent),
                st.cyclesSpent / cost.cpuHz * 1e3,
                ring.softMember()->maxObservedPathCycles());
    std::printf("zero per-chip tuning was needed -- the "
                "interoperability claim of Sec 6.5/6.6.\n");
    return 0;
}
