/**
 * @file
 * Regenerates the Section 6.3.2 "monitor and alert" microbenchmark:
 * the motion-activated imager. Computes the row-wise vs single-
 * message overhead table and runs a scaled image transfer (plus the
 * motion-detector wakeup) through the edge-level simulator.
 */

#include <cstdio>

#include "analysis/overhead.hh"
#include "bench/bench_util.hh"
#include "mbus/system.hh"
#include "sim/random.hh"

using namespace mbus;

int
main()
{
    benchutil::banner(
        "Sec 6.3.2 microbenchmark: Motion Detection and Imaging",
        "Pannuto et al., ISCA'15, Sec 6.3.2 (160x160 9-bit imager)");

    benchutil::section("Image transfer overhead (28.8 kB image)");
    analysis::ImageTransferOverhead o =
        analysis::imageTransferOverhead(160, 180);
    std::printf("MBus single message:  %8zu overhead bits\n",
                o.mbusSingleBits);
    std::printf("MBus 160 row messages:%8zu overhead bits "
                "(+%zu = %.2f%%; paper: 3,021 = 1.31%%)\n",
                o.mbusRowBits, o.mbusExtraBits, o.mbusRowPercent);
    std::printf("I2C single message:   %8zu overhead bits (%.1f%%; "
                "paper: 28,810 = 12.5%%)\n",
                o.i2cSingleBits, o.i2cSinglePercent);
    std::printf("I2C row-by-row:       %8zu overhead bits (%.1f%%; "
                "paper: 30,400 = 13.2%%)\n",
                o.i2cRowBits, o.i2cRowPercent);
    double reduction = 100.0 * (1.0 - double(o.mbusRowBits) /
                                          double(o.i2cRowBits));
    std::printf("message-level vs byte-level ACK overhead "
                "reduction: %.0f%% (paper: 90-99%%)\n", reduction);

    benchutil::section("Transfer time vs clock (Sec 6.3.2)");
    for (double hz : {10e3, 400e3, 6.67e6}) {
        double cycles = 160.0 * (19 + 8 * 180);
        double seconds = cycles / hz;
        std::printf("  %7.2f kHz: full image %7.1f ms (%5.1f fps)\n",
                    hz / 1e3, seconds * 1e3, 1.0 / seconds);
    }
    std::printf("  (paper: 4.2 ms / 238 fps at max clock; 2.9 s / "
                "0.3 fps at 10 kHz, single-message framing)\n");

    benchutil::section("Edge-level simulation: motion wake + scaled "
                       "image (16 rows x 180 B)");
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    const char *names[3] = {"proc", "imager", "radio"};
    for (int i = 0; i < 3; ++i) {
        bus::NodeConfig nc;
        nc.name = names[i];
        nc.fullPrefix = 0x900u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = i != 0;
        system.addNode(nc);
    }
    system.finalize();

    bus::Node &imager = system.node(1);
    const int kRows = 16;
    const int kRowBytes = 180;
    sim::Random rng(160);

    int rows_rx = 0;
    std::size_t bytes_rx = 0;
    system.node(0).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) {
            bytes_rx += rx.payload.size();
            if (++rows_rx == kRows)
                simulator.stop();
        });

    // The always-on motion detector asserts one wire; MBus wakes the
    // imager, whose firmware streams the rows.
    int rows_sent = 0;
    std::function<void()> send_row = [&] {
        bus::Message row;
        row.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
        row.payload.resize(kRowBytes);
        for (auto &b : row.payload)
            b = rng.byte();
        imager.send(row, [&](const bus::TxResult &) {
            if (++rows_sent < kRows)
                send_row();
        });
    };
    imager.busController().setInterruptCallback([&] { send_row(); });

    std::printf("imager asleep: bus_ctrl=%s layer=%s\n",
                imager.busDomain().off() ? "yes" : "no",
                imager.layerDomain().off() ? "yes" : "no");
    sim::SimTime start = simulator.now();
    imager.assertInterrupt(); // Motion!

    simulator.run(60 * sim::kSecond);
    system.runUntilIdle(sim::kSecond);

    double elapsed = sim::toSeconds(simulator.now() - start);
    std::printf("motion -> %d rows (%zu bytes) delivered in %.2f ms "
                "at 400 kHz\n", rows_rx, bytes_rx, elapsed * 1e3);
    std::printf("bus energy: %.1f nJ (simulated scale); imager "
                "wakeups: layer=%llu\n",
                system.ledger().total() * 1e9,
                static_cast<unsigned long long>(
                    imager.layerDomain().wakeupCount()));
    double ideal =
        kRows * (19.0 + 8.0 * kRowBytes) / 400e3 * 1e3;
    std::printf("closed-form transfer time: %.2f ms (difference = "
                "per-message wakeup/idle cycles)\n", ideal);
    return 0;
}
