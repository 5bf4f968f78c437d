/**
 * @file
 * Ablation: message coalescing. Figure 11b's caption advises that
 * "systems should attempt to coalesce messages if possible"; this
 * bench quantifies it by sending the same 64 bytes of telemetry as
 * 64x1 B, 8x8 B, and 1x64 B through the edge-level simulator and
 * comparing wall-clock time and energy.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "mbus/system.hh"
#include "sim/random.hh"

using namespace mbus;

namespace {

struct Outcome
{
    double seconds;
    double joules;
};

Outcome
run(std::size_t chunk, std::size_t total)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    for (int i = 0; i < 3; ++i) {
        bus::NodeConfig nc;
        nc.name = "n" + std::to_string(i);
        nc.fullPrefix = 0xA00u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = false;
        system.addNode(nc);
    }
    system.finalize();

    sim::Random rng(chunk);
    std::size_t sent = 0;
    int in_flight = 0;
    bool failed = false;
    sim::SimTime start = simulator.now();

    std::function<void()> send_next = [&] {
        if (sent >= total)
            return;
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
        msg.payload.resize(chunk);
        for (auto &b : msg.payload)
            b = rng.byte();
        sent += chunk;
        ++in_flight;
        system.node(1).send(msg, [&](const bus::TxResult &r) {
            --in_flight;
            if (r.status != bus::TxStatus::Ack)
                failed = true;
            send_next();
            if (sent >= total && in_flight == 0)
                simulator.stop();
        });
    };
    send_next();
    simulator.run(60 * sim::kSecond);
    if (failed)
        std::printf("(unexpected failure)\n");
    return Outcome{sim::toSeconds(simulator.now() - start),
                   system.ledger().total()};
}

} // namespace

int
main()
{
    benchutil::banner(
        "Ablation: Message Coalescing (64 B of telemetry)",
        "Pannuto et al., ISCA'15, Fig 11b caption + Sec 6.2");

    std::printf("%10s %10s %12s %14s %14s\n", "chunk[B]", "msgs",
                "time[ms]", "energy[nJ]", "overhead bits");
    Outcome base{};
    for (std::size_t chunk : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        Outcome o = run(chunk, 64);
        if (chunk == 1)
            base = o;
        std::size_t msgs = 64 / chunk;
        std::printf("%10zu %10zu %12.2f %14.2f %14zu\n", chunk, msgs,
                    o.seconds * 1e3, o.joules * 1e9, msgs * 19);
    }
    Outcome best = run(64, 64);
    std::printf("\ncoalescing 64x1 B -> 1x64 B: %.1fx faster, %.1fx "
                "less bus energy.\n", base.seconds / best.seconds,
                base.joules / best.joules);
    return 0;
}
