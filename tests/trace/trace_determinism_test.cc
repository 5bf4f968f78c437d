/**
 * @file
 * The observability determinism contract, end to end:
 *
 *  - a traced, faulty five-fabric sweep gives per-cell records, Chrome
 *    JSON included, that are identical across worker-thread counts;
 *  - any traced cell replayed solo reproduces its whole record;
 *  - with tracing off, the tracer is never constructed and every
 *    deterministic byte (VCD included) matches a trace-on run of the
 *    same cell -- tracing is purely observational;
 *  - a watchdog rescue, and a sweep cell that hits its time limit,
 *    each produce a flight-recorder dump that names the stalled
 *    transaction.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "bench/bench_util.hh"
#include "mbus/layer_controller.hh"
#include "sim/simulator.hh"
#include "sweep/sweep.hh"
#include "trace/trace.hh"
#include "tests/record_equality.hh"

using namespace mbus;

namespace {

/** A small faulty grid spanning all five fabrics, traffic mixed. */
std::vector<sweep::ScenarioSpec>
tracedFaultyGrid()
{
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < 10; ++i) {
        sweep::ScenarioSpec s;
        s.name = "trace_det" + std::to_string(i);
        s.backend = benchutil::kFiveFabrics[i % 5];
        s.nodes = 3 + static_cast<int>(i % 3);
        s.messages = 3;
        s.payloadBytes = 2 + i % 4;
        s.traffic = static_cast<sweep::TrafficPattern>(i % 4);
        s.interjectRate = i % 2 ? 0.5 : 0.0;
        s.retry.maxRetries = 1;
        s.retry.backoffEpochs = 8;

        fault::FaultEntry e;
        e.kind = static_cast<fault::FaultKind>(i % 6);
        e.count = 1;
        e.endS = 1.5e-3;
        e.durationS = 2e-4;
        e.pulses = 2;
        e.driftFrac = 0.05;
        s.faults.name = "det";
        s.faults.entries.push_back(e);
        s.faults.watchdogEpochs = 32;

        s.trace.protocol = true;
        s.trace.flight = true;
        grid.push_back(std::move(s));
    }
    return grid;
}

} // namespace

TEST(TraceDeterminism, FiveFabricTraceBytesAreThreadCountInvariant)
{
    std::vector<sweep::ScenarioSpec> grid = tracedFaultyGrid();
    sweep::SweepConfig four;
    four.threads = 4;
    sweep::SweepConfig one;
    one.threads = 1;
    sweep::SweepResult a = sweep::SweepDriver(four).run(grid);
    sweep::SweepResult b = sweep::SweepDriver(one).run(grid);

    ASSERT_EQ(a.size(), grid.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const sweep::ScenarioStats &sa = a.cell(i).stats;
        const sweep::ScenarioStats &sb = b.cell(i).stats;
        EXPECT_GT(sa.traceEvents, 0u) << "cell " << i;
        EXPECT_TRUE(test::sameRecord(sa, sb)) << "cell " << i;
    }
    // The new trace/metrics CSV columns obey the same contract.
    std::ostringstream csvA, csvB;
    a.writeCsv(csvA);
    b.writeCsv(csvB);
    EXPECT_EQ(csvA.str(), csvB.str());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(TraceDeterminism, SoloReplayReproducesTraceBytes)
{
    std::vector<sweep::ScenarioSpec> grid = tracedFaultyGrid();
    sweep::SweepConfig cfg;
    cfg.threads = 4;
    sweep::SweepDriver driver(cfg);
    sweep::SweepResult all = driver.run(grid);
    for (std::size_t i : {std::size_t{0}, std::size_t{3},
                          std::size_t{7}, std::size_t{9}}) {
        sweep::CellResult solo = driver.runCell(grid[i], i);
        EXPECT_TRUE(test::sameRecord(solo.stats, all.cell(i).stats))
            << "cell " << i;
    }
}

TEST(TraceDeterminism, TracingIsObservationallyInvisible)
{
    // The tracer observes and never feeds back: every deterministic
    // byte of a traced run -- the VCD stream included -- must equal
    // the untraced run of the same (spec, seed).
    std::vector<sweep::ScenarioSpec> grid = tracedFaultyGrid();
    for (std::size_t i : {std::size_t{0}, std::size_t{1},
                          std::size_t{3}, std::size_t{4}}) {
        sweep::ScenarioSpec on = grid[i];
        on.captureVcd = true;
        sweep::ScenarioSpec off = on;
        off.trace = trace::TraceConfig{};

        sweep::ScenarioStats a = sweep::runScenario(on, 0xC0FFEE);
        sweep::ScenarioStats b = sweep::runScenario(off, 0xC0FFEE);

        EXPECT_TRUE(test::sameRecord(a, b, test::Except::TracePayload))
            << "cell " << i;
        // And the off run carries no trace payload at all.
        EXPECT_EQ(b.traceEvents, 0u);
        EXPECT_TRUE(b.traceJson.empty());
        EXPECT_TRUE(b.flightDumps.empty());
        EXPECT_EQ(b.watchdogRescues, 0u);
        EXPECT_EQ(b.arbLosses, 0u);
        EXPECT_EQ(b.interjectRequests, 0u);
        EXPECT_GT(a.traceEvents, 0u);
    }
}

TEST(TraceDeterminism, WatchdogRescueDumpNamesTheStalledTransaction)
{
    // Mirror the fault suite's hung-transmitter scenario with a
    // tracer attached: break the CLK ring mid-transfer so node 2's
    // send stalls with its span open, and check the rescue dump
    // names exactly that transaction.
    sim::Simulator simulator;
    backend::BusParams p;
    p.nodes = 4;
    p.busClockHz = 400e3;
    auto b = backend::makeBackend(backend::BackendKind::Mbus,
                                  simulator, p);
    trace::TraceConfig cfg;
    cfg.protocol = true;
    cfg.flight = true;
    trace::Tracer tracer(simulator, cfg, p.nodes);
    simulator.setTracer(&tracer);

    b->armWatchdog(16);
    bus::Message msg;
    msg.dest = b->unicastAddress(3, false, bus::kFuMailbox);
    msg.payload = {1, 2, 3, 4};
    std::optional<bus::TxResult> result;
    b->send(2, msg, [&](const bus::TxResult &r) {
                        result = r;
                        simulator.stop();
                    });
    // Cut the ring after the transfer is underway (a few bit times
    // into a ~100 us transaction at 400 kHz).
    simulator.schedule(25 * sim::kMicrosecond,
                       [&] { b->injectWireForce(1, 0, false); });
    simulator.schedule(600 * sim::kMicrosecond,
                       [&] { b->injectWireRelease(1, 0); });
    simulator.run(5 * sim::kSecond);
    ASSERT_TRUE(result.has_value());

    EXPECT_GT(tracer.countOf(trace::EventKind::WatchdogRescue), 0u);
    ASSERT_FALSE(tracer.dumps().empty());
    const std::string &d = tracer.dumps()[0];
    EXPECT_NE(d.find("watchdog-rescue"), std::string::npos);
    EXPECT_NE(d.find("node 2 tx#"), std::string::npos)
        << "dump did not name the stalled transaction:\n"
        << d;
    simulator.setTracer(nullptr);
}

TEST(TraceDeterminism, WedgedSweepCellDumpNamesTheStalledTransaction)
{
    // A traced cell whose time limit cannot cover its traffic trips
    // runScenario's wedge guard, and the flight dump taken there
    // names the transaction still open.
    sweep::ScenarioSpec s = tracedFaultyGrid()[0];
    s.name = "forced_wedge";
    s.faults = fault::FaultSpec{};
    s.messages = 8;
    s.payloadBytes = 16;
    s.timeLimit = 40 * sim::kMicrosecond;
    sweep::CellResult c = sweep::SweepDriver().runCell(s, 0);

    EXPECT_TRUE(c.stats.wedged);
    ASSERT_FALSE(c.stats.flightDumps.empty());
    const std::string &d = c.stats.flightDumps.back();
    EXPECT_NE(d.find("wedge-guard"), std::string::npos) << d;
    EXPECT_NE(d.find("tx#"), std::string::npos)
        << "dump did not name the stalled transaction:\n"
        << d;
}
