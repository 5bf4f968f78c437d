/**
 * @file
 * Byte pins on every report the sweep layer writes, over one small
 * grid that reaches each record path: the five fabrics, the
 * message-level model, a workload, a fault schedule, a traced cell
 * with a flight-recorder dump and tracer counts, a captured VCD,
 * and a cell name full of bytes the CSV, JSON and codec must escape
 * or strip.
 *
 * The pins are FNV-1a hashes of writeCsv() (with and without the
 * wall-time column), writeJson(), fingerprint(), and the concatenated
 * encodeSpec()/encodeStats() bytes. Any change to a column, a key, a
 * field's order or a number's format moves one of them. Two more
 * pins hold the literal `metrics` column of a busy traced cell and
 * of a traced cell that completes no transaction.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/hash.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"

using namespace mbus;

namespace {

std::vector<sweep::ScenarioSpec>
goldenGrid()
{
    std::vector<sweep::ScenarioSpec> grid;
    {
        sweep::ScenarioSpec message; // Auto fidelity: message level.
        message.name = "gold_message";
        message.messages = 3;
        grid.push_back(message);
    }
    for (backend::BackendKind kind : benchutil::kFiveFabrics) {
        sweep::ScenarioSpec s;
        s.name = std::string("gold_") + backend::backendKindName(kind);
        s.backend = kind;
        s.fidelity = sweep::Fidelity::Edge;
        s.messages = 3;
        s.payloadBytes = 5;
        s.traffic = sweep::TrafficPattern::RandomPairs;
        grid.push_back(s);
    }
    {
        sweep::ScenarioSpec w;
        w.name = "gold_workload";
        w.nodes = 4;
        w.powerGated = true;
        w.workload.name = "gold,mix";
        w.workload.durationS = 0.2;
        workload::ActorSpec sensor;
        sensor.kind = workload::ActorKind::PeriodicSensor;
        sensor.name = "sensor|a";
        sensor.node = 1;
        sensor.periodS = 0.02;
        w.workload.actors.push_back(sensor);
        workload::ActorSpec imager;
        imager.kind = workload::ActorKind::BurstImager;
        imager.name = "imager";
        imager.node = 2;
        imager.periodS = 0.05;
        imager.payloadBytes = 8;
        imager.burstBytes = 32;
        w.workload.actors.push_back(imager);
        grid.push_back(w);
    }
    {
        sweep::ScenarioSpec f;
        f.name = "gold_fault";
        f.nodes = 4;
        f.messages = 4;
        f.payloadBytes = 3;
        fault::FaultEntry fe;
        fe.kind = fault::FaultKind::GlitchBurst;
        fe.endS = 2e-4;
        fe.count = 3;
        fe.pulses = 2;
        f.faults.name = "glitch\"s";
        f.faults.entries.push_back(fe);
        f.faults.watchdogEpochs = 32;
        f.retry.maxRetries = 2;
        f.retry.backoffEpochs = 8;
        grid.push_back(f);
    }
    {
        // A CLK segment held low mid-transfer: the watchdog rescues
        // the bus and the flight recorder dumps the stalled span.
        sweep::ScenarioSpec t;
        t.name = "gold_traced";
        t.nodes = 4;
        t.messages = 3;
        t.payloadBytes = 8;
        t.trace.protocol = true;
        t.trace.flight = true;
        fault::FaultEntry stuck;
        stuck.kind = fault::FaultKind::StuckAt0;
        stuck.node = 1;
        stuck.lane = 0;
        stuck.startS = 2e-5;
        stuck.endS = 4e-5;
        stuck.durationS = 5e-4;
        t.faults.entries.push_back(stuck);
        t.faults.watchdogEpochs = 16;
        t.retry.maxRetries = 1;
        grid.push_back(t);
    }
    {
        sweep::ScenarioSpec v;
        v.name = "gold_vcd";
        v.messages = 2;
        v.captureVcd = true;
        grid.push_back(v);
    }
    {
        sweep::ScenarioSpec odd;
        odd.name = std::string("odd,\"name|50%\tx") + '\x01' + "\\end";
        odd.messages = 2;
        odd.traffic = sweep::TrafficPattern::BroadcastMix;
        grid.push_back(odd);
    }
    return grid;
}

const sweep::SweepResult &
goldenSweep()
{
    static const sweep::SweepResult r = [] {
        sweep::SweepConfig cfg;
        cfg.masterSeed = 0x60'1d'e4ULL;
        cfg.threads = 2;
        return sweep::SweepDriver(cfg).run(goldenGrid());
    }();
    return r;
}

/** The golden sweep with every cell's host wall time zeroed, so the
 *  wall-time column has stable bytes. */
sweep::SweepResult
zeroedWallTime()
{
    std::vector<sweep::CellResult> cells = goldenSweep().cells();
    for (sweep::CellResult &c : cells)
        c.wallSeconds = 0;
    sweep::SweepConfig cfg;
    cfg.masterSeed = 0x60'1d'e4ULL;
    return sweep::SweepResult::fromCells(cfg, std::move(cells));
}

/** The last CSV column (`metrics`) of @p spec swept alone on the
 *  default master seed. */
std::string
metricsColumnOf(const sweep::ScenarioSpec &spec)
{
    sweep::SweepConfig cfg;
    cfg.threads = 1;
    std::ostringstream os;
    sweep::SweepDriver(cfg).run({spec}).writeCsv(os);
    std::string csv = os.str();
    csv.pop_back(); // The row's newline.
    return csv.substr(csv.rfind(',') + 1);
}

std::string
csvOf(const sweep::SweepResult &r, bool wallTime)
{
    std::ostringstream os;
    r.writeCsv(os, wallTime);
    return os.str();
}

std::string
jsonOf(const sweep::SweepResult &r, bool wallTime)
{
    std::ostringstream os;
    r.writeJson(os, wallTime);
    return os.str();
}

} // namespace

TEST(SweepGolden, GridReachesEveryRecordPath)
{
    const sweep::SweepResult &r = goldenSweep();
    ASSERT_EQ(r.size(), 11u);
    EXPECT_EQ(r.cell(0).stats.fidelity, sweep::Fidelity::Message);
    EXPECT_EQ(r.cell(1).stats.fidelity, sweep::Fidelity::Edge);
    EXPECT_EQ(r.cell(6).stats.actorStats.size(), 2u);
    EXPECT_GT(r.cell(6).stats.samplesDelivered, 0);
    EXPECT_GT(r.cell(7).stats.faultEvents, 0);
    const sweep::ScenarioStats &traced = r.cell(8).stats;
    EXPECT_FALSE(traced.traceJson.empty());
    EXPECT_FALSE(traced.flightDumps.empty());
    EXPECT_GT(traced.watchdogRescues, 0u);
    EXPECT_FALSE(r.cell(9).stats.vcd.empty());
    EXPECT_GT(r.cell(10).stats.acked, 0);
}

TEST(SweepGolden, CsvBytesArePinned)
{
    EXPECT_EQ(sim::fnv1a(csvOf(goldenSweep(), false)),
              0x86ac0eb3'959606daULL);
    EXPECT_EQ(sim::fnv1a(csvOf(zeroedWallTime(), true)),
              0x81038da2'a28182faULL);
}

TEST(SweepGolden, JsonBytesArePinned)
{
    EXPECT_EQ(sim::fnv1a(jsonOf(goldenSweep(), false)),
              0xfd660bf3'720b5006ULL);
    EXPECT_EQ(sim::fnv1a(jsonOf(zeroedWallTime(), true)),
              0x0ffd93ff'882dae0aULL);
}

TEST(SweepGolden, FingerprintIsPinnedAndHashesTheCsv)
{
    const sweep::SweepResult &r = goldenSweep();
    EXPECT_EQ(r.fingerprint(), sim::fnv1a(csvOf(r, false)));
    EXPECT_EQ(r.fingerprint(), 0x86ac0eb3'959606daULL);
    // Wall time never reaches the fingerprint.
    EXPECT_EQ(zeroedWallTime().fingerprint(), r.fingerprint());
}

TEST(SweepGolden, CodecBytesArePinned)
{
    std::string specs, stats;
    for (const sweep::CellResult &c : goldenSweep().cells()) {
        specs += sweep::encodeSpec(c.spec);
        stats += sweep::encodeStats(c.stats);
    }
    EXPECT_EQ(sim::fnv1a(specs), 0xc73a459d'69d55704ULL);
    EXPECT_EQ(sim::fnv1a(stats), 0xd47096f1'b41b64e1ULL);
}

TEST(SweepGolden, TracedCellMetricsColumnIsPinned)
{
    // A contended workload with a stuck CLK segment and per-actor
    // retries, so every metric is nonzero: watchdog rescues,
    // arbitration losses, interjections and a recovery.
    sweep::ScenarioSpec busy;
    busy.name = "metrics_busy";
    busy.nodes = 4;
    busy.trace.protocol = true;
    busy.trace.flight = true;
    busy.workload.name = "metrics_pin";
    busy.workload.durationS = 0.05;
    for (int n : {1, 2, 3}) {
        workload::ActorSpec sensor;
        sensor.kind = workload::ActorKind::PeriodicSensor;
        sensor.name = "s" + std::to_string(n);
        sensor.node = n;
        sensor.periodS = 0.01;
        sensor.jitterFrac = 0;
        sensor.payloadBytes = 4;
        sensor.retry.maxRetries = 1;
        sensor.retry.backoffEpochs = 8;
        busy.workload.actors.push_back(sensor);
    }
    fault::FaultEntry stuck;
    stuck.kind = fault::FaultKind::StuckAt0;
    stuck.node = 1;
    stuck.lane = 0;
    stuck.startS = 2e-5;
    stuck.endS = 4e-5;
    stuck.durationS = 5e-4;
    busy.faults.entries.push_back(stuck);
    busy.faults.watchdogEpochs = 16;

    EXPECT_EQ(metricsColumnOf(busy),
              "events_executed=3643|dispatch_calls=12756|train_edges=5727|"
              "trains_scheduled=607|clock_cycles=772|slab_slots=14|"
              "slab_live_peak=135|heap_callbacks=33|fault_events=2|"
              "bus_resets=13|retries=1|recovered_tx=1|abandoned_tx=0|"
              "trace_events=175|flight_dumps=8|watchdog_rescues=13|"
              "arb_losses=17|interjections=15|"
              "goodput_bps=11884.777086149777|"
              "energy_per_sample_j=6.9143948619699158e-10|"
              "tx_latency_s_count=15|"
              "tx_latency_s_p50=0.00025643999999999998|"
              "tx_latency_s_p95=0.00096783000000000004|"
              "tx_latency_s_p99=0.00096783000000000004|"
              "node_edges_total=8215");
}

TEST(SweepGolden, IdleTracedCellMetricsColumnIsPinned)
{
    // No transaction completes, so there is no tx_latency_s_* summary.
    sweep::ScenarioSpec idle;
    idle.name = "metrics_idle";
    idle.messages = 0;
    idle.trace.flight = true;
    EXPECT_EQ(metricsColumnOf(idle),
              "events_executed=0|dispatch_calls=0|train_edges=0|"
              "trains_scheduled=0|clock_cycles=0|slab_slots=0|"
              "slab_live_peak=0|heap_callbacks=0|fault_events=0|"
              "bus_resets=0|retries=0|recovered_tx=0|abandoned_tx=0|"
              "trace_events=0|flight_dumps=0|watchdog_rescues=0|"
              "arb_losses=0|interjections=0|goodput_bps=0|"
              "energy_per_sample_j=0|node_edges_total=0");
}
