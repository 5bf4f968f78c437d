/**
 * @file
 * Small shared helpers for the reproduction benches: consistent
 * headers and number formatting so every bench prints paper-style
 * rows that EXPERIMENTS.md can quote directly.
 */

#ifndef MBUS_BENCH_BENCH_UTIL_HH
#define MBUS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/fsio.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sweep/scenario.hh"
#include "wire/net.hh"

namespace mbus {
namespace benchutil {

inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Reproduces: %s\n", paperRef.c_str());
    std::printf("==============================================="
                "=====================\n");
}

inline void
section(const std::string &name)
{
    std::printf("\n--- %s ---\n", name.c_str());
}

/**
 * Append one single-line JSON object to the "runs" history array of
 * @p path, preserving every other byte of the file (a top-level
 * record such as BENCH_kernel.json's, earlier history entries). A
 * missing or empty file gets a minimal {"runs": [...]} skeleton; an
 * existing file without a recognizable "runs" array is left
 * untouched (returns false) rather than clobbered, so cross-bench
 * histories (workload_mix, fig11_energy) accumulate in the same
 * trajectory file.
 *
 * @return false if the file could not be written or was unparseable.
 */
inline bool
appendRunEntry(const std::string &path, const std::string &entry)
{
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (in && std::getline(in, line))
            lines.push_back(line);
    }
    // Find the "runs" array and its closing bracket. History entries
    // are one object per line, so the array closes on the first line
    // after "runs": [ whose first non-space character is ']'.
    std::size_t runsAt = lines.size();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].find("\"runs\": [") != std::string::npos) {
            runsAt = i;
            break;
        }
    }
    if (runsAt == lines.size()) {
        if (!lines.empty())
            return false; // Unrecognized layout; refuse to clobber.
        return sim::atomicWriteFile(
            path, "{\n  \"runs\": [\n    " + entry + "\n  ]\n}\n");
    }
    std::size_t closeAt = lines.size();
    bool hasEntries = false;
    for (std::size_t i = runsAt + 1; i < lines.size(); ++i) {
        std::size_t ns = lines[i].find_first_not_of(" \t");
        if (ns != std::string::npos && lines[i][ns] == ']') {
            closeAt = i;
            break;
        }
        if (ns != std::string::npos)
            hasEntries = true;
    }
    if (closeAt == lines.size())
        return false; // Malformed; refuse to rewrite.
    if (hasEntries) {
        // Terminate the previous entry with a comma.
        std::string &prev = lines[closeAt - 1];
        std::size_t end = prev.find_last_not_of(" \t");
        if (end != std::string::npos && prev[end] != ',')
            prev.insert(end + 1, ",");
    }
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(closeAt),
                 "    " + entry);
    // Rewriting history in place: go through the temp-file + atomic
    // rename path so a kill mid-write can never eat the trajectory.
    return sim::atomicWriteFile(path, [&](std::ostream &out) {
        for (const std::string &l : lines)
            out << l << "\n";
    });
}

/** The five backend fabrics, in the cyclic order the five-fabric
 *  grids assign them (cell i runs on fabric i % 5). Tests, benches
 *  and perfbench all draw from this one list. */
constexpr backend::BackendKind kFiveFabrics[] = {
    backend::BackendKind::Mbus,      backend::BackendKind::I2cStd,
    backend::BackendKind::I2cOracle, backend::BackendKind::Bitbang,
    backend::BackendKind::Firmware,
};

/** The fault recipe the smoke grids draw per cell: 1-3 events of any
 *  kind, compressed into the first ~1.5 ms (the fastest fabrics idle
 *  down in a couple of ms; an event drawn past idle-down never
 *  fires), under a 32-epoch watchdog. */
inline fault::FaultSpec
smokeFaults(sim::Random &rng)
{
    fault::FaultSpec fs;
    fs.name = "smoke";
    fs.watchdogEpochs = 32;
    std::size_t entries = 1 + rng.below(3);
    for (std::size_t j = 0; j < entries; ++j) {
        fault::FaultEntry e;
        e.kind = static_cast<fault::FaultKind>(rng.below(6));
        e.count = 1 + static_cast<int>(rng.below(2));
        e.startS = 0.0;
        e.endS = 1.5e-3;
        e.durationS = 1e-4 + 9e-4 * rng.uniform();
        e.jitterFrac = 0.3;
        e.pulses = 1 + static_cast<int>(rng.below(4));
        e.driftFrac = 0.05;
        fs.entries.push_back(e);
    }
    return fs;
}

/**
 * The faulty five-fabric grid: @p cells scenarios cycling through
 * all five fabrics with randomized-but-seeded topology, traffic,
 * faults, and retry policies, named @p namePrefix + index.
 * sweep_runner sweeps it, FirmwareGolden pins it, and the
 * benchmark's faulty_grid workload draws the same recipe. Grid n is
 * a prefix of grid n + k, so a grown grid reuses every cached cell.
 */
inline std::vector<sweep::ScenarioSpec>
faultyFiveFabricGrid(std::size_t cells, const std::string &namePrefix)
{
    sim::Random rng(0xFA17CE11ULL);
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = namePrefix + std::to_string(i);
        s.backend = kFiveFabrics[i % 5];
        s.nodes = static_cast<int>(rng.between(3, 6));
        s.payloadBytes = rng.below(9);
        s.messages = static_cast<int>(rng.between(2, 4));
        s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
        s.powerGated = rng.chance(0.3);
        s.faults = smokeFaults(rng);
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;
        grid.push_back(std::move(s));
    }
    return grid;
}

/**
 * The canonical sensing+imaging+storm application mix (the paper's
 * system rhythm: a duty-cycled temperature-style sensor, a
 * frame-burst imager, control-plane chatter at the mediator host,
 * under a third-party interjection storm). Shared by workload_mix
 * (the bench that documents it) and perf_gate (the regression
 * baseline that must measure the identical cell).
 *
 * @param nodes Ring population (>= 3; sensor on 1, imager on 2).
 * @param clockHz Bus clock.
 * @param stormFrac Fraction of the run covered by the storm window
 *        (0 disables it).
 * @param smoke CI-sized: 12 s of sim with proportionally faster
 *        actors instead of the full 90 s / 1 Hz / 30 s-burst mix.
 */
inline sweep::ScenarioSpec
canonicalWorkloadCell(int nodes, double clockHz, double stormFrac,
                      bool smoke)
{
    sweep::ScenarioSpec s;
    s.nodes = nodes;
    s.busClockHz = clockHz;
    s.powerGated = true;
    s.name = "mix_n" + std::to_string(nodes);

    workload::WorkloadSpec &w = s.workload;
    w.name = "sense_image_storm";
    w.durationS = smoke ? 12.0 : 90.0;

    // Periodic sensor @ 1 Hz duty cycle (8-byte samples to the
    // gateway), jittered like a real RC-timed wakeup.
    workload::ActorSpec sensor;
    sensor.kind = workload::ActorKind::PeriodicSensor;
    sensor.name = "sensor";
    sensor.node = 1;
    sensor.dest = 0;
    sensor.periodS = smoke ? 0.25 : 1.0;
    sensor.jitterFrac = 0.1;
    sensor.payloadBytes = 8;
    w.actors.push_back(sensor);

    // 4 KB imager burst every 30 s, 128-byte fragments.
    workload::ActorSpec imager;
    imager.kind = workload::ActorKind::BurstImager;
    imager.name = "imager";
    imager.node = 2;
    imager.dest = 0;
    imager.periodS = smoke ? 4.0 : 30.0;
    imager.payloadBytes = 128;
    imager.burstBytes = 4096;
    imager.startS = smoke ? 0.5 : 2.0;
    w.actors.push_back(imager);

    // Mediator-host-targeted control traffic (priority).
    workload::ActorSpec control;
    control.kind = workload::ActorKind::ControlPlane;
    control.name = "control";
    control.node = nodes - 1;
    control.dest = 0;
    control.periodS = smoke ? 1.0 : 5.0;
    control.payloadBytes = 4;
    control.priority = true;
    w.actors.push_back(control);

    if (stormFrac > 0) {
        workload::ScheduleSpec storm;
        storm.kind = workload::ScheduleKind::InterjectionStorm;
        storm.atS = 0.45 * w.durationS;
        storm.durationS = stormFrac * w.durationS;
        storm.rateHz = smoke ? 25.0 : 4.0;
        w.schedules.push_back(storm);
    }
    return s;
}

// --- Shared edge-train workload harnesses ---------------------------
//
// perf_gate (deterministic events/bit regression gate) and
// perfbench's sim.train_edge_ns and wire.forward_ring_ns_per_edge
// rows (wall-clock cost per edge) must measure the *same* workloads,
// or the checked-in baseline silently drifts away from what the
// benchmark times. Both build on these.

/**
 * Chunked self-train tick driver: the mediator's clock-generation
 * shape. Delivers `remaining` edges in trains of up to kChunk,
 * re-arming the next chunk from within the last edge's delivery.
 */
struct TrainTickDriver final : sim::EdgeSink
{
    static constexpr std::uint32_t kChunk = 1024;

    sim::Simulator *sim = nullptr;
    std::uint64_t remaining = 0;
    std::uint32_t chunkLeft = 0;

    void
    arm()
    {
        chunkLeft = remaining < kChunk
                        ? static_cast<std::uint32_t>(remaining)
                        : kChunk;
        sim->scheduleEdgeTrain(1000, 1000, chunkLeft, *this, true);
    }

    void
    onEdge(bool) override
    {
        --remaining;
        if (--chunkLeft == 0 && remaining > 0)
            arm();
    }
};

/**
 * A kHops-hop forwarding ring of Nets driven rhythmically (one edge
 * per half-period, the forwarded CLK broadcast shape), with or
 * without net-level edge-train batching.
 */
struct ForwardRing
{
    static constexpr int kHops = 14;
    static constexpr std::uint32_t kNetTrainLen = 64;
    static constexpr sim::SimTime kHalfPeriod =
        1250 * sim::kNanosecond;

    sim::Simulator simulator;
    std::vector<std::unique_ptr<wire::Net>> nets;

    struct Forwarder final : wire::EdgeListener
    {
        wire::Net *next = nullptr;
        void onNetEdge(wire::Net &, bool v) override { next->drive(v); }
    };
    std::vector<Forwarder> fwd{kHops - 1};

    struct Driver final : sim::EdgeSink
    {
        wire::Net *head = nullptr;
        void onEdge(bool v) override { head->drive(v); }
    } driver;

    explicit ForwardRing(bool trains)
    {
        nets.reserve(kHops);
        for (int i = 0; i < kHops; ++i) {
            nets.push_back(std::make_unique<wire::Net>(
                simulator, "hop" + std::to_string(i),
                10 * sim::kNanosecond, true));
            if (trains)
                nets.back()->enableEdgeTrains(kNetTrainLen);
        }
        for (int i = 0; i + 1 < kHops; ++i) {
            fwd[static_cast<std::size_t>(i)].next = nets[i + 1].get();
            nets[i]->listen(wire::Edge::Any, fwd[i]);
        }
        driver.head = nets[0].get();
    }

    /** Drive @p edges rhythmic edges into hop 0 and run to idle. */
    void
    pump(std::uint32_t edges, bool firstValue = false)
    {
        simulator.scheduleEdgeTrain(kHalfPeriod, kHalfPeriod, edges,
                                    driver, firstValue);
        simulator.run();
    }

    /** Kernel events retired per delivered edge so far. */
    double
    eventsPerEdge(std::uint64_t edges) const
    {
        return static_cast<double>(simulator.eventsExecuted()) /
               (static_cast<double>(edges) * kHops);
    }
};

} // namespace benchutil
} // namespace mbus

#endif // MBUS_BENCH_BENCH_UTIL_HH
