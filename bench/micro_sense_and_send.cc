/**
 * @file
 * Regenerates the Section 6.3.1 "sense and send" microbenchmark:
 * the three-chip temperature system, direct sensor->radio addressing
 * vs relaying through the processor, and the battery-lifetime
 * arithmetic. Runs both flows through the edge-level simulator and
 * prints them next to the closed-form numbers.
 */

#include <cstdio>

#include "analysis/lifetime.hh"
#include "bench/bench_util.hh"
#include "mbus/system.hh"
#include "power/constants.hh"

using namespace mbus;

namespace {

struct FlowEnergy
{
    double busJ;
    double cpuJ;
};

/** Run one request/response sense-and-send event; return energies. */
FlowEnergy
runFlow(bool direct)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    const char *names[3] = {"proc", "sensor", "radio"};
    for (int i = 0; i < 3; ++i) {
        bus::NodeConfig nc;
        nc.name = names[i];
        nc.fullPrefix = 0x800u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = i != 0;
        system.addNode(nc);
    }
    system.finalize();

    double cpu_j = 0.0;

    // Sensor firmware: on request, send the 8-byte reading either
    // directly to the radio or back to the processor.
    system.node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) {
            bus::Message reply;
            reply.dest = bus::Address::shortAddr(
                direct ? 3 : 1, bus::kFuMailbox);
            reply.payload = {0x12, 0x34, 0x56, 0x78,
                             0x9A, 0xBC, 0xDE, 0xF0};
            system.node(1).send(reply);
        });

    // Processor firmware (relay flow): copy the reading to the radio
    // at ~50 cycles x 20 pJ (Sec 6.3.1).
    int radio_rx = 0;
    system.node(0).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) {
            cpu_j += power::kProcessorRelayCycles *
                     power::kProcessorEnergyPerCycleJ;
            bus::Message fwd;
            fwd.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
            fwd.payload = rx.payload;
            system.node(0).send(fwd);
        });
    system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) {
            if (++radio_rx == 1)
                simulator.stop();
        });

    // The periodic request (4 bytes, Sec 6.3.1).
    bus::Message request;
    request.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    request.payload = {0x01, 0x00, 0x00,
                       static_cast<std::uint8_t>(direct ? 3 : 1)};
    system.sendAndWait(0, request, sim::kSecond);
    if (radio_rx != 1)
        simulator.run(sim::kSecond);
    system.runUntilIdle(sim::kSecond);

    return FlowEnergy{system.ledger().total(), cpu_j};
}

} // namespace

int
main()
{
    benchutil::banner(
        "Sec 6.3.1 microbenchmark: Sense and Send",
        "Pannuto et al., ISCA'15, Sec 6.3.1 (temperature system)");

    analysis::SenseAndSendAnalysis a = analysis::analyzeSenseAndSend();

    benchutil::section("Closed form (paper arithmetic)");
    std::printf("8-byte message, 3 chips: (64+19) bits x (27.45 + "
                "22.71 + 17.55) pJ/bit = %.1f nJ (paper: 5.6)\n",
                a.directMessageJ * 1e9);
    std::printf("relay adds: bus x2 (+%.1f nJ) + 50 CPU cycles "
                "(+%.1f nJ) = %.1f nJ per event (~%.0f%% of the "
                "%.0f nJ event; paper: ~7%%)\n",
                a.directMessageJ * 1e9, a.relayCpuJ * 1e9,
                a.savedPerEventJ * 1e9, a.savedPercent,
                a.eventEnergyDirectJ * 1e9);
    std::printf("battery 2 uAh x 3.8 V = %.1f mJ; 15 s interval:\n",
                a.batteryJ * 1e3);
    std::printf("  direct: %.1f days   relayed: %.1f days   gain: "
                "%.0f hours (paper: 47.5 / 44.5 / 71)\n",
                a.lifetimeDirectDays, a.lifetimeRelayDays,
                a.lifetimeGainHours);

    benchutil::section("Edge-level simulation of both flows "
                       "(request + response, simulated scale)");
    FlowEnergy direct = runFlow(true);
    FlowEnergy relay = runFlow(false);
    double scale = power::kMeasuredOverheadFactor;
    std::printf("direct  sensor->radio: bus %.2f nJ (measured scale "
                "%.2f nJ), cpu 0 nJ\n", direct.busJ * 1e9,
                direct.busJ * scale * 1e9);
    std::printf("relayed sensor->proc->radio: bus %.2f nJ (measured "
                "scale %.2f nJ), cpu %.2f nJ\n", relay.busJ * 1e9,
                relay.busJ * scale * 1e9, relay.cpuJ * 1e9);
    double saved = (relay.busJ - direct.busJ) * scale + relay.cpuJ;
    std::printf("per-event saving from any-to-any addressing: %.2f "
                "nJ (paper: 6.6 nJ)\n", saved * 1e9);

    benchutil::section("Bus utilization (Sec 6.3.1)");
    double cycles = (19 + 32) + 2 * (19 + 64); // req + 2 legs worst.
    double util = cycles / 400e3 / 15.0 * 100.0;
    std::printf("request+response every 15 s at 400 kHz: %.4f%% "
                "(paper: 0.0022%%)\n", util);
    return 0;
}
