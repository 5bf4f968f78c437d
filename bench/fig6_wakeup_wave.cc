/**
 * @file
 * Regenerates Figure 6: the null-transaction wakeup. A power-gated
 * node's always-on interrupt controller pulls DATA low and resumes
 * forwarding before the arbitration edge; the mediator finds no
 * winner, raises a general error, and the edges generated along the
 * way walk the node's power-domain hierarchy awake.
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench/bench_util.hh"
#include "mbus/system.hh"
#include "sim/vcd.hh"

using namespace mbus;

int
main()
{
    benchutil::banner("Figure 6: MBus Wakeup (null transaction)",
                      "Pannuto et al., ISCA'15, Fig 6");

    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    bus::NodeConfig proc;
    proc.name = "proc";
    proc.fullPrefix = 0x600;
    proc.staticShortPrefix = 1;
    proc.powerGated = false;
    system.addNode(proc);

    bus::NodeConfig imager;
    imager.name = "imager";
    imager.fullPrefix = 0x601;
    imager.staticShortPrefix = 2;
    imager.powerGated = true;
    system.addNode(imager);
    system.finalize();

    sim::TraceRecorder rec;
    system.attachTrace(rec);

    bus::Node &node = system.node(1);
    std::printf("before: bus_ctrl=%s layer=%s\n",
                node.busDomain().off() ? "OFF" : "on",
                node.layerDomain().off() ? "OFF" : "on");

    bool serviced = false;
    node.busController().setInterruptCallback([&] {
        serviced = true;
        simulator.stop();
    });
    node.assertInterrupt();

    simulator.run(sim::kSecond);
    system.runUntilIdle(sim::kSecond);

    sim::SimTime period =
        sim::periodFromHz(system.config().busClockHz);
    std::printf("\nWaveform, one cell = 1/8 bus cycle:\n\n");
    rec.renderAscii(std::cout, 0, 16 * period, period / 8);

    std::printf("\nafter: bus_ctrl=%s layer=%s  (wakeups: bus=%llu "
                "layer=%llu)\n",
                node.busDomain().active() ? "ACTIVE" : "off",
                node.layerDomain().active() ? "ACTIVE" : "off",
                static_cast<unsigned long long>(
                    node.busDomain().wakeupCount()),
                static_cast<unsigned long long>(
                    node.layerDomain().wakeupCount()));
    std::printf("mediator general errors: %llu (the \"General "
                "Error\" control code of Fig 6)\n",
                static_cast<unsigned long long>(
                    system.mediator().stats().generalErrors));
    std::printf("interrupt serviced without any message and without "
                "waking any other node.\n");

    std::ofstream vcd("fig6.vcd");
    rec.writeVcd(vcd);
    std::printf("full trace written to fig6.vcd\n");
    return 0;
}
