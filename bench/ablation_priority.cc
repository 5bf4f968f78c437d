/**
 * @file
 * Ablation: the priority-arbitration cycle (Sec 4.3 / Sec 7).
 * Measures the latency of an urgent message from the topologically
 * worst-positioned node while a high-priority neighbour floods the
 * bus -- with and without the priority flag.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "mbus/system.hh"

using namespace mbus;

namespace {

/** Latency of one message from the last node under flood load.
 *  Returns a negative value if the message starved past the cutoff. */
double
urgentLatency(bool usePriority)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    for (int i = 0; i < 5; ++i) {
        bus::NodeConfig nc;
        nc.name = "n" + std::to_string(i);
        nc.fullPrefix = 0xB00u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = false;
        system.addNode(nc);
    }
    system.finalize();

    // Node 1 (top topological priority) floods node 2 forever.
    std::function<void()> flood = [&] {
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload.assign(16, 0xFF);
        system.node(1).send(msg,
                            [&](const bus::TxResult &) { flood(); });
    };
    flood();

    // Let the flood establish, then node 4 (worst position) sends an
    // urgent 2-byte alert to the processor.
    sim::SimTime t_send = 0, t_done = 0;
    simulator.run(simulator.now() + 5 * sim::kMillisecond);
    t_send = simulator.now();
    bool done = false;
    bus::Message urgent;
    urgent.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    urgent.payload = {0xA1, 0xE7};
    urgent.priority = usePriority;
    system.node(4).send(urgent, [&](const bus::TxResult &r) {
        if (r.status == bus::TxStatus::Ack) {
            done = true;
            simulator.stop();
        }
    });
    simulator.run(2 * sim::kSecond);
    t_done = simulator.now();
    if (!done)
        return -1.0;
    return sim::toSeconds(t_done - t_send) * 1e3;
}

} // namespace

int
main()
{
    benchutil::banner(
        "Ablation: Priority Arbitration under Contention",
        "Pannuto et al., ISCA'15, Secs 4.3, 7 (fairness/priority)");

    double without = urgentLatency(false);
    double with_priority = urgentLatency(true);

    std::printf("urgent 2-byte alert from the topologically worst "
                "node, bus flooded by the best-positioned node "
                "(400 kHz, 16 B flood messages):\n\n");
    if (without < 0)
        std::printf("  plain arbitration:    STARVED (>2 s; MBus "
                    "guarantees no fairness, Sec 7)\n");
    else
        std::printf("  plain arbitration:    %8.3f ms\n", without);
    std::printf("  priority arbitration: %8.3f ms\n", with_priority);
    std::printf("\nThe priority cycle lets physically low-priority "
                "nodes claim the next transaction instead of losing "
                "every topological race (Sec 4.3). MBus deliberately "
                "offers prioritisation rather than fairness (Sec 7, "
                "CAN-style) -- under a continuous flood from a "
                "better-positioned node, a plain request starves "
                "while a priority request lands in well under a "
                "millisecond.\n");
    return 0;
}
