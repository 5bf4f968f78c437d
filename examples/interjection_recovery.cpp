/**
 * @file
 * The interjection as a Swiss-army knife (Sec 4.9): end-of-message
 * signalling, receiver aborts on buffer overrun, third-party
 * preemption of a bulk transfer (after the guaranteed four bytes),
 * the runaway-message watchdog, and rescuing a hung bus after a
 * stuck-at fault.
 */

#include <algorithm>
#include <cstdio>

#include "mbus/system.hh"

using namespace mbus;

int
main()
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    const char *names[4] = {"processor", "bulk-src", "bulk-dst",
                            "alarm"};
    for (int i = 0; i < 4; ++i) {
        bus::NodeConfig cfg;
        cfg.name = names[i];
        cfg.fullPrefix = 0x99000u + static_cast<std::uint32_t>(i);
        cfg.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        cfg.powerGated = false;
        if (i == 2)
            cfg.rxBufferLimit = 48; // Small receive buffer.
        system.addNode(cfg);
    }
    system.finalize();

    std::printf("1) Receiver abort: 64 B into a 48 B buffer\n");
    bus::Message too_big;
    too_big.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    too_big.payload.assign(64, 0xEE);
    auto r1 = system.sendAndWait(1, too_big);
    std::printf("   sender saw: %s (receiver interjected "
                "mid-message; rx aborts: %llu)\n",
                r1 ? bus::txStatusName(r1->status) : "timeout",
                static_cast<unsigned long long>(
                    system.node(2).busController().stats().rxAborts));
    system.runUntilIdle();

    std::printf("2) Third-party preemption honouring the 4-byte "
                "progress rule\n");
    bus::Message bulk;
    bulk.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    bulk.payload.assign(200, 0x55);
    std::optional<bus::TxResult> bulk_result;
    system.node(1).send(bulk, [&](const bus::TxResult &r) {
        bulk_result = r;
        simulator.stop();
    });
    // The alarm node needs the bus *now*.
    simulator.schedule(sim::kMillisecond, [&] {
        std::printf("   [alarm] interjecting the bulk transfer\n");
        system.node(3).interject();
    });
    simulator.run(sim::kSecond);
    std::printf("   bulk sender saw: %s\n",
                bulk_result ? bus::txStatusName(bulk_result->status)
                            : "timeout");
    system.runUntilIdle();
    bus::Message alarm;
    alarm.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    alarm.payload = {0xA1};
    alarm.priority = true;
    auto r2 = system.sendAndWait(3, alarm);
    std::printf("   alarm delivered: %s\n",
                r2 ? bus::txStatusName(r2->status) : "timeout");

    std::printf("3) Runaway-message watchdog (>%zu B)\n",
                system.mediator().maxMessageBytes());
    bus::Message runaway;
    runaway.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
    runaway.payload.assign(1200, 0x00);
    auto r3 = system.sendAndWait(1, runaway, 5 * sim::kSecond);
    std::printf("   sender saw: %s (watchdog kills: %llu)\n",
                r3 ? bus::txStatusName(r3->status) : "timeout",
                static_cast<unsigned long long>(
                    system.mediator().stats().watchdogKills));
    system.runUntilIdle();

    std::printf("4) Hung-bus rescue after a stuck-at fault\n");
    bus::Message victim;
    victim.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    victim.payload.assign(32, 0x3C);
    std::optional<bus::TxResult> victim_result;
    system.node(1).send(victim, [&](const bus::TxResult &r) {
        victim_result = r;
        simulator.poke();
    });
    // Wait for the victim's status, at most until 2 s of bus time.
    auto awaitVictim = [&] {
        const sim::SimTime end = 2 * sim::kSecond;
        simulator.runUntil(end - std::min(end, simulator.now()),
                           [&] { return victim_result.has_value(); });
    };
    simulator.schedule(200 * sim::kMicrosecond, [&] {
        std::printf("   [fault] CLK segment stuck high\n");
        system.clkSegment(2).force(true);
    });
    simulator.schedule(3 * sim::kMillisecond, [&] {
        std::printf("   [fault] released\n");
        system.clkSegment(2).release();
    });
    awaitVictim();
    if (!victim_result.has_value()) {
        std::printf("   bus wedged; host watchdog fires "
                    "recoverBus()\n");
        system.recoverBus();
        if (!victim_result.has_value())
            awaitVictim();
    }
    std::printf("   victim transfer: %s\n",
                victim_result
                    ? bus::txStatusName(victim_result->status)
                    : "timeout");
    // A sustained fault can leave controllers desynchronized; once
    // the transient passes, the host's watchdog issues a rescue
    // interjection -- the protocol's reliable reset (Sec 4.9).
    simulator.run(simulator.now() + 5 * sim::kMillisecond);
    std::printf("   host watchdog: rescue interjection -> bus idle: "
                "%s\n", system.recoverBus() ? "yes" : "no");

    bus::Message postcheck;
    postcheck.dest = bus::Address::shortAddr(4, bus::kFuMailbox);
    postcheck.payload = {0x0C};
    auto r4 = system.sendAndWait(1, postcheck);
    std::printf("   post-recovery message: %s\n",
                r4 ? bus::txStatusName(r4->status) : "timeout");
    return 0;
}
