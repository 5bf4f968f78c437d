/**
 * @file
 * CI perf-smoke gate for the events/bit trajectory.
 *
 * Wall-clock benchmarks are too noisy to gate a shared runner, but
 * events/bit -- kernel events retired per delivered wire edge/bit --
 * is a pure function of the simulation, bit-identical on every
 * machine. This gate measures it on:
 *
 *  - tick: the mediator's clock-generation shape as a kernel edge
 *    train (events per delivered edge);
 *  - forward_ring: a 14-hop rhythmic forwarding ring with net-level
 *    train batching (events per delivered edge);
 *  - fig9_n4 / fig9_n10: two real fig9 sweep cells (a full
 *    MBusSystem at 99.9% of the conservative max clock), events per
 *    completed wire data bit;
 *  - workload_mix: the canonical sensing+imaging+storm application
 *    mix (benchutil::canonicalWorkloadCell, the cell workload_mix
 *    documents), events per completed wire data bit through the
 *    workload engine's hot path;
 *  - i2c_std_mix / bitbang_mix: the same canonical mix through the
 *    transactional-I2C backend and the mixed ring with the software
 *    member, gating the scheduler cost of the non-MBus fabrics
 *    (bitbang_mix gates firmware::FirmwareNode, the one engine behind
 *    both the bitbang and the firmware fabric labels, so a
 *    firmware_mix line would repeat it);
 *  - workload_mix_dispatch / bitbang_mix_dispatch: listener virtual
 *    calls per completed wire data bit on the same cells -- the cost
 *    chunked dispatch (muting a driving wire controller's input)
 *    keeps down;
 *
 * and fails if any metric regresses more than 10% over the
 * checked-in baseline (bench/perf_baseline.json). Regenerate the
 * baseline with --write-baseline after an intentional change; it
 * writes each value with sim::formatDouble (17 significant digits,
 * which round-trip), so even a small real move shows in the file. Every
 * cell above forces Fidelity::Edge: these gate the edge engine.
 *
 * One more cell, fig9_n4_auto, runs the fig9_n4 shape at the default
 * Fidelity::Auto and must land on the message-level model under a
 * fixed events/bit ceiling (kMessageLevelCeiling, far below the edge
 * engine's ~4): CI fails if eligible cells quietly fall back to the
 * edge engine. Likewise workload_mix_auto and bitbang_mix_auto run
 * the workload_mix and bitbang_mix cells at Fidelity::Auto, where the
 * fast-forward must hold each under its kFastForwardCeilings entry,
 * far below the edge engine's ~2.2 and ~2.4 and below what skipping
 * data phases alone leaves: CI fails if either ring quietly falls
 * back to every edge, or stops skipping address phases. faulty_runaway_auto runs cell 895
 * of the faulty five-fabric grid (benchutil::kFaultyRunawayCells, at
 * sweep_runner's seed), whose browned-out sender leaves ~8,400
 * cycles of a data phase nobody drives, at Fidelity::Auto: its
 * kernel events plus train edges per clock cycle must stay under
 * kRunawayCeiling, so CI fails if runaway phases fall back to edges
 * or stop at every watchdog poll.
 *
 * Usage: perf_gate [--baseline PATH] [--write-baseline PATH]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/fsio.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

struct Metric
{
    std::string name;
    double value = 0;
};

/** Conservative fig9 max clock (mirrors analysis::conservativeMaxClockHz
 *  without dragging the analysis lib into the gate's hot loop). */
double
fig9ClockHz(int nodes)
{
    double hop_s = 10e-9;
    return 0.999 / (2.0 * hop_s * (nodes + 2.0));
}

/** events/bit ceiling for the auto-fidelity fig9 cell: the message
 *  model runs a few kernel events per transaction, the edge engine
 *  about four per wire bit. */
constexpr double kMessageLevelCeiling = 0.5;

/** events/bit ceilings for the auto-fidelity canonical mix cells: the
 *  fast-forward leaves about 0.141 (hardware ring) and 0.170 (mixed
 *  ring) of the edge engine's ~2.2 and ~2.4 (arbitration, control,
 *  gated receivers' wakeups and short messages); skipping data phases
 *  alone left 0.166 and 0.197. */
constexpr double kFastForwardCeilings[] = {0.155, 0.185};

/** (events + train edges) per clock cycle ceiling for the runaway
 *  cell: about 1.17 with the transmitter-less skip running past
 *  watchdog polls, 1.95 if every poll ends a skip, ~16.5 on edges. */
constexpr double kRunawayCeiling = 1.5;

/** The faulty grid's runaway cell at Fidelity::Auto: kernel events
 *  plus train edges per clock cycle. */
double
runawayWorkPerCycle()
{
    const auto [spec, seed] =
        benchutil::faultyGridCell(benchutil::kFaultyRunawayCells[0]);
    const sweep::ScenarioStats st = sweep::runScenario(spec, seed);
    return static_cast<double>(st.eventsExecuted + st.trainEdges) /
           static_cast<double>(st.clockCycles);
}

double
tickEventsPerEdge()
{
    mbus::sim::Simulator simulator;
    benchutil::TrainTickDriver sink;
    sink.sim = &simulator;
    sink.remaining = 100000;
    sink.arm();
    simulator.run();
    return static_cast<double>(simulator.eventsExecuted()) / 100000.0;
}

double
forwardRingEventsPerEdge()
{
    const std::uint32_t kEdges = 20000;
    benchutil::ForwardRing ring(/*trains=*/true);
    ring.pump(kEdges);
    return ring.eventsPerEdge(kEdges);
}

/** The 2-cell fig9 smoke sweep: events per completed wire data bit. */
std::vector<Metric>
fig9EventsPerBit()
{
    std::vector<sweep::ScenarioSpec> grid;
    for (int n : {4, 10}) {
        sweep::ScenarioSpec s;
        s.name = "fig9_n" + std::to_string(n);
        s.nodes = n;
        s.busClockHz = fig9ClockHz(n);
        s.traffic = sweep::TrafficPattern::SingleSender;
        s.messages = 2;
        s.payloadBytes = 4;
        s.fidelity = sweep::Fidelity::Edge;
        grid.push_back(std::move(s));
    }
    sweep::SweepConfig cfg;
    cfg.threads = 2;
    sweep::SweepResult result = sweep::SweepDriver(cfg).run(grid);
    std::vector<Metric> out;
    for (const sweep::CellResult &c : result.cells()) {
        if (c.stats.wedged || c.stats.eventsPerBit <= 0) {
            std::fprintf(stderr, "FAIL: %s produced no events/bit\n",
                         c.spec.name.c_str());
            std::exit(1);
        }
        out.push_back({c.spec.name, c.stats.eventsPerBit});
    }
    return out;
}

/** fig9_n4 at Fidelity::Auto: events per completed wire data bit,
 *  fatal unless the message-level model produced it. */
double
fig9AutoEventsPerBit()
{
    sweep::ScenarioSpec s;
    s.name = "fig9_n4_auto";
    s.nodes = 4;
    s.busClockHz = fig9ClockHz(4);
    s.traffic = sweep::TrafficPattern::SingleSender;
    s.messages = 2;
    s.payloadBytes = 4;
    sweep::ScenarioStats st = sweep::runScenario(s, 0x66696739ULL);
    if (st.fidelity != sweep::Fidelity::Message || st.wedged ||
        st.eventsPerBit <= 0) {
        std::fprintf(stderr,
                     "FAIL: %s ran on the %s model (want message)\n",
                     s.name.c_str(), sweep::fidelityName(st.fidelity));
        std::exit(1);
    }
    return st.eventsPerBit;
}

struct MixCosts
{
    double eventsPerBit = 0;
    double dispatchPerBit = 0;
};

/** One deterministic canonical-mix cell (CI-sized) through @p kind:
 *  kernel events and listener virtual calls per completed wire data
 *  bit. The bitbang fabric needs a 3-chip ring (the software member
 *  caps the population we gate). */
MixCosts
backendMixCosts(backend::BackendKind kind,
                sweep::Fidelity fidelity = sweep::Fidelity::Edge)
{
    int nodes = kind == backend::BackendKind::Bitbang ? 3 : 4;
    sweep::ScenarioSpec spec = benchutil::canonicalWorkloadCell(
        nodes, /*clockHz=*/400e3, /*stormFrac=*/0.10,
        /*smoke=*/true);
    spec.backend = kind;
    spec.fidelity = fidelity;
    sweep::ScenarioStats st = sweep::runScenario(spec, 0x6d6978ULL);
    if (st.wedged || st.eventsPerBit <= 0 ||
        st.samplesDelivered == 0) {
        std::fprintf(stderr,
                     "FAIL: %s mix cell produced no events/bit\n",
                     backend::backendKindName(kind));
        std::exit(1);
    }
    MixCosts costs;
    costs.eventsPerBit = st.eventsPerBit;
    // eventsPerBit = events / bits, so bits = events / eventsPerBit:
    // recover the completed-wire-bit denominator without widening the
    // ScenarioStats surface.
    double bits = static_cast<double>(st.eventsExecuted) /
                  st.eventsPerBit;
    costs.dispatchPerBit =
        static_cast<double>(st.dispatchCalls) / bits;
    return costs;
}

/** Flat {"name": value, ...} reader; tolerant of whitespace. */
bool
readBaseline(const std::string &path, const std::string &key,
             double &value)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    std::string needle = "\"" + key + "\":";
    std::size_t at = text.find(needle);
    if (at == std::string::npos)
        return false;
    value = std::strtod(text.c_str() + at + needle.size(), nullptr);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath = "bench/perf_baseline.json";
    std::string writePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baselinePath = argv[++i];
        else if (std::strcmp(argv[i], "--write-baseline") == 0 &&
                 i + 1 < argc)
            writePath = argv[++i];
    }

    std::vector<Metric> metrics;
    metrics.push_back({"tick", tickEventsPerEdge()});
    metrics.push_back({"forward_ring", forwardRingEventsPerEdge()});
    for (Metric &m : fig9EventsPerBit())
        metrics.push_back(m);
    MixCosts mbusMix = backendMixCosts(backend::BackendKind::Mbus);
    MixCosts i2cMix = backendMixCosts(backend::BackendKind::I2cStd);
    MixCosts bbMix = backendMixCosts(backend::BackendKind::Bitbang);
    metrics.push_back({"workload_mix", mbusMix.eventsPerBit});
    metrics.push_back({"i2c_std_mix", i2cMix.eventsPerBit});
    metrics.push_back({"bitbang_mix", bbMix.eventsPerBit});
    metrics.push_back(
        {"workload_mix_dispatch", mbusMix.dispatchPerBit});
    metrics.push_back({"bitbang_mix_dispatch", bbMix.dispatchPerBit});

    if (!writePath.empty()) {
        bool ok = mbus::sim::atomicWriteFile(
            writePath, [&](std::ostream &out) {
                out << "{\n";
                for (std::size_t i = 0; i < metrics.size(); ++i) {
                    out << "  \"" << metrics[i].name
                        << "\": "
                        << mbus::sim::formatDouble(metrics[i].value)
                        << (i + 1 < metrics.size() ? ",\n" : "\n");
                }
                out << "}\n";
            });
        if (!ok) {
            std::fprintf(stderr, "FAIL: could not write %s\n",
                         writePath.c_str());
            return 1;
        }
        std::printf("wrote baseline %s\n", writePath.c_str());
        return 0;
    }

    std::printf("%-14s %14s %14s %9s\n", "metric", "events/bit",
                "baseline", "ratio");
    bool fail = false;
    for (const Metric &m : metrics) {
        double base = 0;
        if (!readBaseline(baselinePath, m.name, base)) {
            std::fprintf(stderr,
                         "FAIL: no baseline for %s in %s (regenerate "
                         "with --write-baseline)\n",
                         m.name.c_str(), baselinePath.c_str());
            return 1;
        }
        double ratio = base > 0 ? m.value / base : 0;
        std::printf("%-14s %14.5f %14.5f %8.3fx\n", m.name.c_str(),
                    m.value, base, ratio);
        if (m.value > base * 1.10) {
            std::fprintf(stderr,
                         "FAIL: %s events/bit regressed >10%% "
                         "(%f vs baseline %f)\n",
                         m.name.c_str(), m.value, base);
            fail = true;
        }
    }
    double autoEpb = fig9AutoEventsPerBit();
    std::printf("%-14s %14.5f %14.5f %8.3fx  (fixed ceiling)\n",
                "fig9_n4_auto", autoEpb, kMessageLevelCeiling,
                autoEpb / kMessageLevelCeiling);
    if (autoEpb > kMessageLevelCeiling) {
        std::fprintf(stderr,
                     "FAIL: fig9_n4_auto events/bit %f above the "
                     "message-level ceiling %f\n",
                     autoEpb, kMessageLevelCeiling);
        fail = true;
    }
    // The canonical mix at Fidelity::Auto on the hardware ring and on
    // the mixed ring: the data-phase fast-forward must hold both.
    const std::pair<const char *, backend::BackendKind> autoMixes[] = {
        {"workload_mix_auto", backend::BackendKind::Mbus},
        {"bitbang_mix_auto", backend::BackendKind::Bitbang},
    };
    for (std::size_t i = 0; i < std::size(autoMixes); ++i) {
        const auto &[name, kind] = autoMixes[i];
        const double ceiling = kFastForwardCeilings[i];
        double epb =
            backendMixCosts(kind, sweep::Fidelity::Auto).eventsPerBit;
        std::printf("%-14s %14.5f %14.5f %8.3fx  (fixed ceiling)\n",
                    name, epb, ceiling, epb / ceiling);
        if (epb > ceiling) {
            std::fprintf(stderr,
                         "FAIL: %s events/bit %f above the "
                         "fast-forward ceiling %f\n",
                         name, epb, ceiling);
            fail = true;
        }
    }
    const double runaway = runawayWorkPerCycle();
    std::printf("%-14s %14.5f %14.5f %8.3fx  (fixed ceiling, per cycle)\n",
                "faulty_runaway_auto", runaway, kRunawayCeiling,
                runaway / kRunawayCeiling);
    if (runaway > kRunawayCeiling) {
        std::fprintf(stderr,
                     "FAIL: faulty_runaway_auto work/cycle %f above the "
                     "runaway ceiling %f\n",
                     runaway, kRunawayCeiling);
        fail = true;
    }
    if (!fail)
        std::printf("perf gate OK (all metrics within 10%% of "
                    "baseline)\n");
    return fail ? 1 : 0;
}
