/**
 * @file
 * Parallel MBus (Sec 7): the same camera frame shipped over 1 and 4
 * DATA lanes. Each added lane costs one pad per chip side but
 * multiplies payload bandwidth; protocol phases stay serial on
 * DATA0, so the mediator is unchanged.
 */

#include <cstdio>
#include <functional>

#include "analysis/goodput.hh"
#include "mbus/system.hh"
#include "sim/random.hh"

using namespace mbus;

namespace {

double
shipFrame(int lanes, int rows, int rowBytes)
{
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.dataLanes = lanes;
    bus::MBusSystem system(simulator, cfg);
    const char *names[3] = {"processor", "imager", "radio"};
    for (int i = 0; i < 3; ++i) {
        bus::NodeConfig nc;
        nc.name = names[i];
        nc.fullPrefix = 0xAB000u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = false;
        system.addNode(nc);
    }
    system.finalize();

    sim::Random pixels(lanes);
    int sent = 0;
    std::function<void()> send_row = [&] {
        bus::Message row;
        row.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
        row.payload.resize(static_cast<std::size_t>(rowBytes));
        for (auto &b : row.payload)
            b = pixels.byte();
        system.node(1).send(row, [&](const bus::TxResult &) {
            if (++sent < rows)
                send_row();
            else
                simulator.stop();
        });
    };
    sim::SimTime start = simulator.now();
    send_row();
    simulator.run(60 * sim::kSecond);
    return sim::toSeconds(simulator.now() - start);
}

} // namespace

int
main()
{
    const int kRows = 20, kRowBytes = 180;
    std::printf("shipping %d rows x %d B (a slice of the 160x160 "
                "frame) at 400 kHz:\n\n", kRows, kRowBytes);
    std::printf("%6s %12s %14s %18s\n", "lanes", "time [ms]",
                "goodput[kbps]", "model [kbps]");
    double t1 = 0;
    for (int lanes = 1; lanes <= 4; ++lanes) {
        double t = shipFrame(lanes, kRows, kRowBytes);
        if (lanes == 1)
            t1 = t;
        double goodput = 8.0 * kRows * kRowBytes / t / 1e3;
        double model = analysis::parallelGoodputBps(400e3, kRowBytes,
                                                    lanes) /
                       1e3;
        std::printf("%6d %12.2f %14.1f %18.1f\n", lanes, t * 1e3,
                    goodput, model);
    }
    std::printf("\n4 lanes move the frame %.2fx faster; the "
                "mediator and the protocol phases are unchanged "
                "(backward compatible, Sec 7).\n",
                t1 / shipFrame(4, kRows, kRowBytes));
    return 0;
}
