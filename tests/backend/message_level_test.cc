/**
 * @file
 * The message-level MBus model against the edge engine.
 *
 * MbusMessageBackend computes each fault-free transaction in closed
 * form; the edge-level MbusBackend simulates every wire transition.
 * The differential suite runs randomized eligible cells through both
 * (Fidelity::Edge vs Fidelity::Auto) and requires the whole sweep
 * record to match, model costs aside (tests/record_equality.hh):
 * outcomes, bytes, latencies, simulated time, per-node edges, clock
 * cycles, and switching and leakage energy are exact, because both
 * models price the same counts with the same products. Backend-level
 * runs add powered time and energy per node. The model-cost fields
 * measure the model, not the bus.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "backend/mbus_backend.hh"
#include "backend/mbus_message_backend.hh"
#include "bench/bench_util.hh"
#include "mbus/layer_controller.hh"
#include "sim/hash.hh"
#include "sim/random.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"
#include "tests/record_equality.hh"

using namespace mbus;
using sweep::Fidelity;
using sweep::ScenarioSpec;
using sweep::ScenarioStats;

namespace {

/** A payload length: mostly short, sometimes up to the mediator's
 *  1 kB watchdog limit (the eligibility cap), and exactly at it. */
std::size_t
randomPayloadBytes(sim::Random &rng)
{
    if (rng.chance(0.1))
        return 0;
    if (rng.chance(0.05))
        return bus::kMinMaxMessageBytes;
    if (rng.chance(0.08))
        return rng.between(300, bus::kMinMaxMessageBytes);
    return rng.below(rng.chance(0.1) ? 300 : 70);
}

/** A random cell inside the eligible class: every traffic pattern,
 *  1-4 lanes, short and full addressing, priority requests, rings of
 *  2-14 at 5%..99.9% of the safe clock, 1-20 ns hops, any wire,
 *  payloads up to the watchdog limit. */
ScenarioSpec
randomEligibleSpec(sim::Random &rng, int i)
{
    ScenarioSpec s;
    s.name = "ml" + std::to_string(i);
    s.nodes = static_cast<int>(rng.between(2, 14));
    s.hopDelayNs = static_cast<double>(rng.between(1, 20));
    double fmax = 1.0 / (2.0 * s.hopDelayNs * 1e-9 * (s.nodes + 2));
    s.busClockHz = rng.chance(0.2) ? 0.999 * fmax
                                   : fmax * (0.05 + 0.94 * rng.uniform());
    s.wireLengthMm = 0.5 + 10.0 * rng.uniform();
    s.dataLanes = static_cast<int>(rng.between(1, 4));
    s.fullAddressing = rng.chance(0.3);
    s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
    s.messages = static_cast<int>(rng.between(0, 10));
    s.payloadBytes = randomPayloadBytes(rng);
    s.priorityRate = rng.chance(0.3) ? rng.uniform() : 0.0;
    s.retry.maxRetries = static_cast<int>(rng.below(3));
    return s;
}

std::string
describe(const ScenarioSpec &s)
{
    std::ostringstream os;
    os << s.name << ": n=" << s.nodes << " hop=" << s.hopDelayNs
       << "ns clk=" << s.busClockHz << " lanes=" << s.dataLanes
       << " full=" << s.fullAddressing << " traffic="
       << sweep::trafficPatternName(s.traffic) << " msgs=" << s.messages
       << " bytes=" << s.payloadBytes;
    return os.str();
}

/** Runs @p spec at Fidelity::Auto (the message-level model) and on the
 *  edge engine, and expects the same record, model costs aside.
 *  @return the edge engine's record. */
ScenarioStats
expectModelsAgree(const ScenarioSpec &spec, std::uint64_t seed)
{
    ScenarioSpec edgeSpec = spec;
    edgeSpec.fidelity = Fidelity::Edge;
    EXPECT_FALSE(sweep::messageLevelEligible(edgeSpec));
    ScenarioStats edge = sweep::runScenario(edgeSpec, seed);
    ScenarioStats msg = sweep::runScenario(spec, seed);
    EXPECT_EQ(edge.fidelity, Fidelity::Edge);
    EXPECT_EQ(msg.fidelity, Fidelity::Message);
    EXPECT_TRUE(test::sameRecord(edge, msg, test::Except::ModelCosts));
    if (msg.planned > 0) {
        EXPECT_GT(msg.eventsExecuted, 0u); // Runs on the event kernel.
    }
    return edge;
}

/** One terminal status or delivery, as a backend announced it. */
struct Observed
{
    std::size_t node;
    sim::SimTime at;
    int status; ///< TxStatus, or -1 for a delivery.
    std::vector<std::uint8_t> payload;

    bool
    operator==(const Observed &o) const
    {
        return node == o.node && at == o.at && status == o.status &&
               payload == o.payload;
    }
};

/** Everything a backend-level run exposes per node. */
struct BackendRun
{
    std::vector<Observed> log;
    sim::SimTime end = 0;
    bool idle = false;
    std::uint64_t cycles = 0;
    double switchingJ = 0, leakageJ = 0;
    std::vector<double> nodeJ, poweredS;
    std::vector<std::uint64_t> edges;
};

/** Send @p msgs back to back (each from the previous completion) on
 *  @p be, drain to idle, and read every per-node tap. */
BackendRun
drive(sim::Simulator &sim, backend::BusBackend &be,
      const std::vector<std::pair<std::size_t, bus::Message>> &msgs)
{
    BackendRun run;
    be.setDeliveryHandler(
        [&](std::size_t node, const bus::ReceivedMessage &rx) {
            run.log.push_back({node, sim.now(), -1, rx.payload});
        });
    std::size_t next = 0;
    std::function<void()> issue = [&] {
        if (next >= msgs.size())
            return;
        std::size_t from = msgs[next].first;
        bus::Message m = msgs[next].second;
        ++next;
        be.send(from, std::move(m), [&, from](const bus::TxResult &r) {
            run.log.push_back({from, r.completedAt,
                               static_cast<int>(r.status), {}});
            issue();
        });
    };
    issue();
    run.idle = be.runUntilIdle(sim::kSecond * 100);
    be.setDeliveryHandler(nullptr);
    run.end = sim.now();
    run.cycles = be.clockCycles();
    run.switchingJ = be.switchingJ();
    run.leakageJ = be.leakageJ();
    for (std::size_t i = 0; i < be.nodeCount(); ++i) {
        run.nodeJ.push_back(be.nodeEnergyJ(i));
        run.poweredS.push_back(be.poweredSeconds(i));
        run.edges.push_back(be.nodeEdges(i));
    }
    return run;
}

backend::BusParams
paramsOf(const ScenarioSpec &s)
{
    backend::BusParams p;
    p.nodes = s.nodes;
    p.busClockHz = s.busClockHz;
    p.hopDelayNs = s.hopDelayNs;
    p.wireCapF = s.wireLengthMm * s.wireCapFPerMm;
    p.dataLanes = s.dataLanes;
    return p;
}

} // namespace

TEST(MessageLevel, TwoHundredRandomizedSpecsMatchTheEdgeEngine)
{
    sim::Random master(0x6d73676c766cULL); // "msglvl"
    for (int i = 0; i < 240; ++i) {
        ScenarioSpec spec = randomEligibleSpec(master, i);
        std::uint64_t seed = master.next();
        SCOPED_TRACE(describe(spec));
        ASSERT_TRUE(sweep::messageLevelEligible(spec));
        expectModelsAgree(spec, seed);
        if (::testing::Test::HasFailure())
            return; // One spec's report is enough to debug from.
    }
}

TEST(MessageLevel, PayloadsUpToTheWatchdogLimitMatchTheEdgeEngine)
{
    // The mediator's watchdog sits closest to firing on the longest
    // eligible payloads: cover 300 B..1 kB, and exactly 1 kB, on every
    // lane count with both address widths.
    sim::Random master(0x77646f67ULL); // "wdog"
    int i = 0;
    for (int lanes = 1; lanes <= 4; ++lanes) {
        for (bool full : {false, true}) {
            for (std::size_t bytes :
                 {std::size_t{300}, master.between(301, 1023),
                  bus::kMinMaxMessageBytes - 1, bus::kMinMaxMessageBytes}) {
                ScenarioSpec spec = randomEligibleSpec(master, i++);
                spec.dataLanes = lanes;
                spec.fullAddressing = full;
                spec.payloadBytes = bytes;
                spec.messages = static_cast<int>(master.between(1, 3));
                std::uint64_t seed = master.next();
                SCOPED_TRACE(describe(spec));
                ASSERT_TRUE(sweep::messageLevelEligible(spec));
                ScenarioStats edge = expectModelsAgree(spec, seed);
                EXPECT_EQ(edge.interrupted, 0);
                EXPECT_FALSE(edge.wedged);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
    ScenarioSpec over;
    over.payloadBytes = bus::kMinMaxMessageBytes + 1;
    EXPECT_FALSE(sweep::messageLevelEligible(over));
}

TEST(MessageLevel, PerNodeEnergyAndPoweredTimeMatchTheEdgeEngine)
{
    sim::Random master(0x7065726e6f6465ULL); // "pernode"
    for (int i = 0; i < 60; ++i) {
        ScenarioSpec spec = randomEligibleSpec(master, i);
        SCOPED_TRACE(describe(spec));
        backend::BusParams p = paramsOf(spec);
        auto n = static_cast<std::size_t>(spec.nodes);

        // Any sender to any other node, or to the user channel.
        std::vector<std::pair<std::size_t, bus::Message>> msgs;
        {
            sim::Simulator probeSim;
            backend::MbusMessageBackend addr(probeSim, p);
            for (int k = 0; k < spec.messages; ++k) {
                std::size_t from = master.below(n);
                std::size_t to = (from + 1 + master.below(n - 1)) % n;
                bus::Message m;
                m.dest = master.chance(0.2)
                             ? bus::Address::broadcast(
                                   bus::kChannelUserBase)
                             : addr.unicastAddress(to, spec.fullAddressing,
                                                   bus::kFuMailbox);
                m.payload.resize(spec.payloadBytes);
                for (auto &b : m.payload)
                    b = master.byte();
                msgs.emplace_back(from, std::move(m));
            }
        }

        sim::Simulator edgeSim, msgSim;
        backend::MbusBackend edge(edgeSim, p);
        backend::MbusMessageBackend model(msgSim, p);
        BackendRun a = drive(edgeSim, edge, msgs);
        BackendRun b = drive(msgSim, model, msgs);

        EXPECT_TRUE(a.idle);
        EXPECT_TRUE(b.idle);
        EXPECT_EQ(b.log, a.log);
        EXPECT_EQ(b.end, a.end);
        EXPECT_EQ(b.cycles, a.cycles);
        EXPECT_EQ(b.edges, a.edges);
        EXPECT_EQ(b.poweredS, a.poweredS);
        EXPECT_EQ(b.switchingJ, a.switchingJ);
        EXPECT_EQ(b.leakageJ, a.leakageJ);
        EXPECT_EQ(b.nodeJ, a.nodeJ);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(MessageLevel, MixedFidelityGridIsByteIdenticalAcrossThreadsAndSolo)
{
    sim::Random master(0x6d69786564ULL); // "mixed"
    std::vector<ScenarioSpec> grid;
    for (int i = 0; i < 32; ++i) {
        ScenarioSpec s = randomEligibleSpec(master, i);
        if (i % 3 == 1)
            s.fidelity = Fidelity::Edge;
        if (i % 5 == 2)
            s.powerGated = true; // Ineligible: edge engine.
        grid.push_back(std::move(s));
    }
    sweep::SweepConfig one, four;
    one.masterSeed = four.masterSeed = 0x1234;
    one.threads = 1;
    four.threads = 4;
    sweep::SweepResult r1 = sweep::SweepDriver(one).run(grid);
    sweep::SweepResult r4 = sweep::SweepDriver(four).run(grid);

    std::ostringstream csv1, csv4, json1, json4;
    r1.writeCsv(csv1);
    r4.writeCsv(csv4);
    r1.writeJson(json1);
    r4.writeJson(json4);
    EXPECT_EQ(csv1.str(), csv4.str());
    EXPECT_EQ(json1.str(), json4.str());
    EXPECT_EQ(r1.fingerprint(), r4.fingerprint());
    EXPECT_NE(csv1.str().find(",mbus,message,"), std::string::npos);
    EXPECT_NE(csv1.str().find(",mbus,edge,"), std::string::npos);
    EXPECT_NE(json1.str().find("\"fidelity\": \"message\""),
              std::string::npos);

    sweep::SweepDriver solo(one);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        sweep::CellResult c = solo.runCell(grid[i], i);
        EXPECT_TRUE(test::sameRecord(c.stats, r1.cells()[i].stats))
            << grid[i].name;
        ScenarioStats back;
        ASSERT_TRUE(sweep::decodeStats(sweep::encodeStats(c.stats), back));
        EXPECT_EQ(back.fidelity, c.stats.fidelity);
    }
}

TEST(MessageLevel, IneligibleCellsRunTheEdgeEngine)
{
    ScenarioSpec base;
    base.name = "base";
    base.nodes = 4;
    base.messages = 3;
    base.payloadBytes = 8;
    ASSERT_TRUE(sweep::messageLevelEligible(base));

    std::vector<ScenarioSpec> grid{base};
    auto variant = [&](const char *name,
                       const std::function<void(ScenarioSpec &)> &edit) {
        ScenarioSpec s = base;
        s.name = name;
        edit(s);
        EXPECT_FALSE(sweep::messageLevelEligible(s)) << name;
        grid.push_back(std::move(s));
    };
    variant("vcd", [](ScenarioSpec &s) { s.captureVcd = true; });
    variant("trace", [](ScenarioSpec &s) { s.trace.protocol = true; });
    variant("faults", [](ScenarioSpec &s) {
        sim::Random rng(3);
        s.faults = benchutil::smokeFaults(rng);
    });
    variant("storm", [](ScenarioSpec &s) { s.interjectRate = 0.5; });
    variant("gated", [](ScenarioSpec &s) { s.powerGated = true; });
    variant("workload", [](ScenarioSpec &s) {
        s.workload =
            benchutil::canonicalWorkloadCell(4, 400e3, 0.0, true).workload;
        s.workload.durationS = 0.5;
    });
    variant("i2c", [](ScenarioSpec &s) {
        s.backend = backend::BackendKind::I2cOracle;
    });
    variant("forced_edge",
            [](ScenarioSpec &s) { s.fidelity = Fidelity::Edge; });
    variant("no_trains", [](ScenarioSpec &s) { s.edgeTrains = false; });

    sweep::SweepResult r = sweep::SweepDriver().run(grid);
    std::ostringstream csv;
    r.writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string header, row;
    ASSERT_TRUE(std::getline(lines, header));
    // Column position of "fidelity" in the header.
    std::size_t col = 0;
    {
        std::istringstream h(header);
        std::string name;
        while (std::getline(h, name, ',') && name != "fidelity")
            ++col;
    }
    for (const sweep::CellResult &c : r.cells()) {
        ASSERT_TRUE(std::getline(lines, row));
        std::istringstream fields(row);
        std::string field;
        for (std::size_t k = 0; k <= col; ++k)
            std::getline(fields, field, ',');
        EXPECT_EQ(field, c.spec.name == "base" ? "message" : "edge")
            << c.spec.name;
        EXPECT_EQ(c.stats.fidelity, c.spec.name == "base"
                                        ? Fidelity::Message
                                        : Fidelity::Edge);
    }
}

TEST(MessageLevel, MakeBackendStillBuildsTheEdgeEngine)
{
    sim::Simulator sim;
    backend::BusParams p;
    auto be = backend::makeBackend(backend::BackendKind::Mbus, sim, p);
    EXPECT_NE(dynamic_cast<backend::MbusBackend *>(be.get()), nullptr);
}

TEST(RunLoop, StopOnCompletionMatchesPredicatePolling)
{
    // An edge-level cell driven by Simulator::stop() from its last
    // completion, then drained with the stop-driven runUntilIdle().
    // Final times, kernel counters and waveform are pinned to the
    // values the per-event predicate poll produced before both loops
    // became stop-driven; energy to that run's counts priced as
    // count x unit. The sixth send (done = 5) goes from
    // node 2 to node 2's own short prefix and ends NAKed: the pins
    // include that self-addressed transfer on purpose, because the
    // old loop no longer exists to re-derive them for other traffic.
    sim::Simulator sim;
    backend::BusParams p;
    p.nodes = 5;
    p.dataLanes = 2;
    backend::MbusBackend be(sim, p);
    sim::TraceRecorder rec;
    be.attachTrace(rec);
    const int kMessages = 6;
    int done = 0;
    bus::TxStatus last = bus::TxStatus::GeneralError;
    std::function<void()> issue = [&] {
        bus::Message m;
        m.dest = be.unicastAddress(4 - done % 3, false, bus::kFuMailbox);
        m.payload.assign(static_cast<std::size_t>(3 + done), 0xA5);
        be.send(1 + done % 2, std::move(m), [&](const bus::TxResult &r) {
            last = r.status;
            if (++done >= kMessages) {
                sim.stop();
                return;
            }
            issue();
        });
    };
    issue();
    sim.run(sim::kSecond);
    EXPECT_EQ(done, kMessages);
    EXPECT_EQ(last, bus::TxStatus::Nak); // The self-addressed sixth.
    EXPECT_EQ(sim.now(), 633230000u);
    EXPECT_EQ(sim.eventsExecuted(), 875u);
    EXPECT_TRUE(be.runUntilIdle(sim::kSecond));
    EXPECT_EQ(sim.now(), 635780000u);
    EXPECT_EQ(be.dispatchCalls(), 6863u);
    std::ostringstream os;
    rec.writeVcd(os);
    EXPECT_EQ(os.str().size(), 30918u);
    EXPECT_EQ(sim::fnv1a(os.str()), 0x16d5a48b'd644c02fULL);
    EXPECT_EQ(be.switchingJ(), 0x1.163cddae3762ep-28);
}
