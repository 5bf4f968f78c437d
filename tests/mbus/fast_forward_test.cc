/**
 * @file
 * The data-phase fast-forward guard: with the fast-forward on, an
 * MBus ring -- hardware-only or with the software member in its last
 * slot -- must land on exactly the state the edge engine reaches edge
 * by edge -- outcomes, bytes, latencies, simulated time, per-node
 * edges, clock cycles, every energy double and every software-member
 * ISR counter -- while retiring no more kernel events. Only the
 * model costs (tests/record_equality.hh) may differ.
 *
 *  - differential sweeps of randomized hardware-ring and mixed-ring
 *    cells, each run at Fidelity::Auto (fast-forward on) and
 *    Fidelity::Edge (every edge), compared as whole records, model
 *    costs aside (tests/record_equality.hh), and on mixed rings by
 *    the member's FirmwareStats too;
 *  - boundary cases where something lands mid-data-phase (a third-
 *    party interjection, a fault event, watchdog polls), the
 *    receiver's capacity point, the 1 kB length limit, and a glitch
 *    still in flight at a falling tick, which must block entry;
 *  - the member transmitting mid-data-phase, and the cases that keep
 *    every edge: a receiving member, ISR jitter and merged edges;
 *  - the canonical-mix cells (hardware and mixed ring) under
 *    deterministic events ceilings.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "backend/mbus_backend.hh"
#include "bench/bench_util.hh"
#include "firmware/firmware_node.hh"
#include "mbus/data_phase.hh"
#include "mbus/system.hh"
#include "sim/random.hh"
#include "sweep/scenario.hh"
#include "tests/mbus/testutil.hh"
#include "tests/record_equality.hh"
#include "wire/net.hh"

using namespace mbus;
using sweep::Fidelity;
using sweep::ScenarioSpec;
using sweep::ScenarioStats;

namespace {

/** One randomized hardware-ring cell that runs on the edge engine at
 *  Fidelity::Auto: gated, stormy, faulty, traced or a workload mix,
 *  over 1-4 lanes, short or full addressing, any traffic pattern. */
ScenarioSpec
randomCell(sim::Random &rng, int i)
{
    ScenarioSpec s;
    s.name = "ff" + std::to_string(i);
    s.nodes = 2 + static_cast<int>(rng.below(7));
    s.dataLanes = 1 + static_cast<int>(rng.below(4));
    s.hopDelayNs = rng.chance(0.5) ? 10.0 : 4.0;
    const double maxHz =
        1.0 / (2e-9 * s.hopDelayNs * (s.nodes + 2.0));
    s.busClockHz = std::min(8e6, maxHz * (0.2 + 0.78 * rng.uniform()));
    s.fullAddressing = rng.chance(0.3);
    s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
    s.messages = 2 + static_cast<int>(rng.below(5));
    s.payloadBytes = 1 + rng.below(160);
    s.priorityRate = rng.chance(0.3) ? 0.5 : 0.0;
    switch (rng.below(5)) {
      case 0:
        s.powerGated = true;
        break;
      case 1:
        s.interjectRate = 0.3 + 0.5 * rng.uniform();
        s.powerGated = rng.chance(0.5);
        break;
      case 2:
        s.faults = benchutil::smokeFaults(rng);
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;
        break;
      case 3: {
        s.nodes = std::max(s.nodes, 3);
        s.busClockHz = 400e3;
        s.powerGated = rng.chance(0.7);
        workload::WorkloadSpec &w = s.workload;
        w.name = "ff_mix";
        w.durationS = 0.15;
        workload::ActorSpec sensor;
        sensor.kind = workload::ActorKind::PeriodicSensor;
        sensor.node = 1;
        sensor.periodS = 0.02;
        sensor.payloadBytes = 8;
        w.actors.push_back(sensor);
        workload::ActorSpec imager;
        imager.kind = workload::ActorKind::BurstImager;
        imager.node = 2;
        imager.periodS = 0.06;
        imager.payloadBytes = 64 + rng.below(65);
        imager.burstBytes = 512;
        w.actors.push_back(imager);
        workload::ActorSpec control;
        control.kind = workload::ActorKind::ControlPlane;
        control.node = s.nodes - 1;
        control.periodS = 0.05;
        control.priority = true;
        w.actors.push_back(control);
        if (rng.chance(0.6)) {
            workload::ScheduleSpec storm;
            storm.kind = workload::ScheduleKind::InterjectionStorm;
            storm.atS = 0.03;
            storm.durationS = 0.08;
            storm.rateHz = 100.0;
            w.schedules.push_back(storm);
        }
        break;
      }
      default:
        s.trace.protocol = true;
        s.trace.flight = rng.chance(0.5);
        s.powerGated = rng.chance(0.5);
        break;
    }
    return s;
}

TEST(FastForward, LaneTransitionsMatchABitByBitCount)
{
    sim::Random rng(0x1a9e5u);
    for (int i = 0; i < 400; ++i) {
        std::vector<std::uint8_t> payload(1 + rng.below(40));
        for (auto &b : payload)
            b = rng.chance(0.3) ? 0xFF : rng.byte();
        const int w = 1 + static_cast<int>(rng.below(4));
        const std::uint64_t cycles =
            (8 * payload.size() + static_cast<std::uint64_t>(w) - 1) / w;
        const std::uint64_t first = rng.below(cycles + 1);
        const std::uint64_t count = rng.below(cycles - first + 2);
        std::array<bool, bus::kMaxDataLanes> start{};
        for (bool &s : start)
            s = rng.chance(0.5);

        bus::LaneRun want;
        want.last = start;
        for (int l = 0; l < w; ++l) {
            for (std::uint64_t c = first; c < first + count; ++c) {
                bool b = bus::payloadBit(
                    payload, c * static_cast<std::uint64_t>(w) +
                                 static_cast<std::uint64_t>(l));
                want.edges[l] += b != want.last[l];
                want.last[l] = b;
            }
        }
        bus::LaneRun got =
            bus::laneTransitions(payload, w, first, count, start);
        SCOPED_TRACE("case " + std::to_string(i));
        EXPECT_EQ(got.edges, want.edges);
        EXPECT_EQ(got.last, want.last);
    }
}

TEST(FastForward, LaneRidesPriceTrainsAndDiscreteEdges)
{
    const std::array<bool, bus::kMaxDataLanes> low{};
    // 0x55: one lane toggling every cycle rides trains of 32 edges
    // from its first edge (its beat is taken as already running).
    std::vector<std::uint8_t> alt(13, 0x55);
    bus::LaneRides r = bus::laneRides(alt, 1, 0, 100, low, 32);
    EXPECT_EQ(r.events[0], 4u); // Edges 1, 33, 65 and 97 head trains.
    EXPECT_TRUE(r.onBeat[0]);
    // Constant lanes cost nothing and end off any beat.
    std::vector<std::uint8_t> zero(16, 0x00);
    r = bus::laneRides(zero, 4, 0, 32, low, 32);
    for (int l = 0; l < 4; ++l) {
        EXPECT_EQ(r.events[l], 0u);
        EXPECT_FALSE(r.onBeat[l]);
    }
    // 0x01 over 4 lanes: only lane 3 toggles, every cycle.
    std::vector<std::uint8_t> one(16, 0x01);
    r = bus::laneRides(one, 4, 0, 32, low, 32);
    EXPECT_EQ(r.events[3], 1u);
    EXPECT_EQ(r.events[0] + r.events[1] + r.events[2], 0u);
    // Gaps of 1, 2, 3, 4, 5 cycles never settle on a beat: past the
    // opening pair (taken as a running beat, one train head) every
    // edge is discrete.
    std::vector<std::uint8_t> odd = {0x4E, 0x1F, 0x00};
    const bus::LaneRun run = bus::laneTransitions(odd, 1, 0, 17, low);
    ASSERT_EQ(run.edges[0], 6u);
    r = bus::laneRides(odd, 1, 0, 17, low, 32);
    EXPECT_EQ(r.events[0], 5u);
    EXPECT_FALSE(r.onBeat[0]);
    // With trains off every transition is its own event.
    r = bus::laneRides(alt, 1, 0, 100, low, 0);
    EXPECT_EQ(r.events[0], bus::laneTransitions(alt, 1, 0, 100, low).edges[0]);

    // The price is what a segment retires: a bare net with trains of
    // maxEdges edges, driven with a lane's levels one cycle apart and
    // primed on the lane's opening beat the way Net::skipEdges primes
    // a segment, executes exactly that many kernel events.
    const sim::SimTime kCycle = 2500 * sim::kNanosecond;
    const std::uint32_t kMaxEdges[] = {0, 2, 32};
    // Bytes that toggle every lane every cycle at w = 1, 2 and 4.
    const std::uint8_t kBeat[] = {0, 0x55, 0x33, 0x55, 0x0F};
    sim::Random rng(0x1a9e5u);
    std::uint64_t transitions = 0, events = 0;
    for (int i = 0; i < 90; ++i) {
        const auto w = 1 + rng.below(4);
        std::vector<std::uint8_t> payload(1 + rng.below(24));
        for (auto &b : payload)
            b = rng.chance(0.6) ? kBeat[w]
                                : static_cast<std::uint8_t>(rng.below(256));
        const std::uint64_t cycles = (8 * payload.size() + w - 1) / w;
        const std::uint64_t first = rng.below(cycles);
        const std::uint64_t count = rng.below(cycles - first + 1);
        std::array<bool, bus::kMaxDataLanes> start{};
        for (bool &s : start)
            s = rng.chance(0.5);
        const std::uint32_t maxEdges = kMaxEdges[i % 3];
        const bus::LaneRides want = bus::laneRides(
            payload, static_cast<int>(w), first, count, start, maxEdges);
        auto at = [&](std::uint64_t c) { return (count + c) * kCycle; };
        for (std::uint64_t l = 0; l < w; ++l) {
            std::vector<std::uint64_t> edges;
            bool level = start[l];
            for (std::uint64_t c = first; c < first + count; ++c) {
                const bool b = bus::payloadBit(payload, c * w + l);
                if (b != level)
                    edges.push_back(c);
                level = b;
            }
            sim::Simulator sim;
            wire::Net net(sim, "lane", 10 * sim::kNanosecond, start[l]);
            net.enableEdgeTrains(maxEdges);
            if (edges.size() >= 2) {
                const sim::SimTime gap = (edges[1] - edges[0]) * kCycle;
                net.skipEdges(2, at(edges[0]) - gap, gap);
            }
            for (std::uint64_t c = first; c < first + count; ++c) {
                sim.run(at(c));
                net.drive(bus::payloadBit(payload, c * w + l));
            }
            sim.run();
            SCOPED_TRACE("case " + std::to_string(i) + " lane " +
                         std::to_string(l));
            EXPECT_EQ(net.value(), level);
            EXPECT_EQ(sim.eventsExecuted(), want.events[l]);
            transitions += edges.size();
            events += sim.eventsExecuted();
        }
    }
    // A good share of the edges ride trains.
    EXPECT_GT(transitions - events, transitions / 4);
}

TEST(FastForward, LatchBitsMatchesABitByBitShift)
{
    // The receiver skip's byte latch against the per-bit shift it
    // replaces (latchDataBits()'s order): random streams, offsets and
    // lengths over 1-4 lanes, past the stream's end (padding), with
    // any bits already pending.
    sim::Random rng(0x1a7c4u);
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> stream(rng.below(40));
        for (auto &b : stream)
            b = rng.byte();
        const std::uint64_t w = 1 + rng.below(4);
        const std::uint64_t first = rng.below(8 * stream.size() / w + 4);
        const std::uint64_t cycles = rng.below(70);
        const int pending = static_cast<int>(rng.below(8));
        const auto buffer =
            static_cast<std::uint32_t>(rng.below(std::uint64_t(1) << pending));
        std::vector<std::uint8_t> want(rng.below(3), 0xA5);
        std::vector<std::uint8_t> got = want;
        std::uint32_t wantBuffer = buffer;
        int wantPending = pending;
        for (std::uint64_t p = first * w; p < (first + cycles) * w; ++p) {
            wantBuffer = (wantBuffer << 1) |
                         (bus::payloadBit(stream, p) ? 1 : 0);
            if (++wantPending == 8) {
                want.push_back(static_cast<std::uint8_t>(wantBuffer & 0xFF));
                wantBuffer = 0;
                wantPending = 0;
            }
        }
        std::uint32_t gotBuffer = buffer;
        int gotPending = pending;
        bus::latchBits(stream, first * w, cycles * w, got, gotBuffer,
                       gotPending);
        SCOPED_TRACE("case " + std::to_string(i));
        EXPECT_EQ(got, want);
        EXPECT_EQ(gotBuffer, wantBuffer);
        EXPECT_EQ(gotPending, wantPending);
    }
}

TEST(FastForward, RandomHardwareCellsMatchTheEdgeEngine)
{
    sim::Random rng(0xfa57f00du);
    std::uint64_t autoEvents = 0, edgeEvents = 0;
    int fewer = 0;
    const int kCells = 240;
    for (int i = 0; i < kCells; ++i) {
        ScenarioSpec spec = randomCell(rng, i);
        ASSERT_FALSE(sweep::messageLevelEligible(spec)) << spec.name;
        ScenarioSpec edge = spec;
        edge.fidelity = Fidelity::Edge;
        const std::uint64_t seed = 0xf0f0u + static_cast<std::uint64_t>(i);
        ScenarioStats a = sweep::runScenario(spec, seed);
        ScenarioStats b = sweep::runScenario(edge, seed);
        SCOPED_TRACE(spec.name + " seed=" + std::to_string(seed));
        ASSERT_EQ(a.fidelity, Fidelity::Edge);
        EXPECT_TRUE(test::sameRecord(a, b, test::Except::ModelCosts));
        EXPECT_LE(a.eventsExecuted, b.eventsExecuted);
        autoEvents += a.eventsExecuted;
        edgeEvents += b.eventsExecuted;
        fewer += a.eventsExecuted < b.eventsExecuted;
    }
    // The sweep must actually exercise the fast-forward.
    EXPECT_GT(fewer, kCells / 2);
    EXPECT_LT(autoEvents, edgeEvents / 2);
}

// --- Boundary cases on a directly driven ring -------------------------

/** Everything observable about a ring run, kernel costs excluded,
 *  the edges the kernel delivered (events plus train edges), and
 *  every ledger cell (%a, node-major). */
struct RingRun
{
    std::string state;
    std::uint64_t events = 0;
    std::uint64_t deliveries = 0;
    std::string ledger;
};

std::uint64_t
deliveries(const sim::Simulator &sim)
{
    return sim.eventsExecuted() + sim.queue().trainEdgesDelivered();
}

/** A %a rendering: doubles compare bit for bit. */
std::string
exact(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

std::string
ringState(bus::MBusSystem &sys)
{
    std::ostringstream os;
    os << "now=" << sys.simulator().now();
    const bus::MediatorStats &m = sys.mediator().stats();
    os << " med=" << m.transactions << "/" << m.interjections << "/"
       << m.generalErrors << "/" << m.watchdogKills << "/"
       << m.clockCycles << " resets=" << sys.busResets() << "\n";
    const power::EnergyLedger &ledger = sys.ledger();
    for (std::size_t i = 0; i < sys.nodeCount(); ++i) {
        bus::Node &n = sys.node(i);
        const bus::BusControllerStats &s = n.busController().stats();
        os << n.name() << " tx=" << s.messagesSent << " ack="
           << s.messagesAcked << " nak=" << s.messagesNaked
           << " fail=" << s.messagesFailed << " rx="
           << s.messagesReceived << " btx=" << s.bytesSent
           << " brx=" << s.bytesReceived << " arb="
           << s.arbitrationLosses << " intj="
           << s.interjectionsRequested << " abort=" << s.rxAborts
           << " edges=" << n.sleepController().risingCount() << "/"
           << n.sleepController().fallingCount() << " wake="
           << n.busDomain().wakeupCount() << "/"
           << n.layerDomain().wakeupCount() << " energy";
        for (std::size_t c = 0; c < power::EnergyLedger::kNumCategories;
             ++c)
            os << " " << exact(ledger.nodeCategory(
                             i, static_cast<power::EnergyCategory>(c)));
        auto seg = [&os](const char *what, wire::Net &net) {
            os << " " << what << "=" << net.risingEdges() << "/"
               << net.fallingEdges() << "/" << net.value()
               << net.edgeEpoch();
        };
        seg("clk", sys.clkSegment(i));
        seg("data", sys.dataSegment(i));
        for (int l = 1; l < sys.config().dataLanes; ++l)
            seg("lane", sys.laneSegment(l, i));
        os << "\n";
    }
    return os.str();
}

/** Build a ring (with the arbitration break rotating after every
 *  transaction when @p rotating), let @p drive start its traffic (and
 *  schedule any mid-run disturbance), run to idle, and snapshot it. */
RingRun
runRing(bool fastForward, int nodes, int lanes,
        const std::function<void(bus::MBusSystem &, std::ostream &)>
            &drive,
        std::size_t rxLimit = ~std::size_t(0), bool rotating = false)
{
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.dataLanes = lanes;
    cfg.fastForward = fastForward;
    cfg.useNodeArbBreak = rotating;
    bus::MBusSystem sys(simulator, cfg);
    for (int i = 0; i < nodes; ++i) {
        bus::NodeConfig nc = test::nodeCfg(
            "n" + std::to_string(i), 0x10000u + static_cast<std::uint32_t>(i),
            static_cast<std::uint8_t>(i + 1), i != 0);
        nc.rxBufferLimit = rxLimit;
        sys.addNode(nc);
    }
    sys.finalize();
    if (rotating)
        sys.enableRotatingPriority();
    std::ostringstream log;
    for (std::size_t i = 0; i < sys.nodeCount(); ++i) {
        sys.node(i).layer().setMailboxHandler(
            [&log, &simulator, i](const bus::ReceivedMessage &rx) {
                log << "rx" << i << "@" << simulator.now() << " n="
                    << rx.payload.size() << " intj=" << rx.interjected
                    << " sum=";
                unsigned sum = 0;
                for (std::uint8_t b : rx.payload)
                    sum = sum * 31 + b;
                log << sum << "\n";
            });
    }
    drive(sys, log);
    simulator.run(simulator.now() + 100 * sim::kMillisecond);
    sys.runUntilIdle(sim::kSecond);
    RingRun r;
    r.state = log.str() + ringState(sys);
    r.events = simulator.eventsExecuted();
    r.deliveries = deliveries(simulator);
    const power::EnergyLedger &ledger = sys.ledger();
    for (std::size_t i = 0; i < ledger.nodeCount(); ++i)
        for (std::size_t c = 0; c < power::EnergyLedger::kNumCategories;
             ++c)
            r.ledger += exact(ledger.nodeCategory(
                            i, static_cast<power::EnergyCategory>(c))) +
                        " ";
    return r;
}

/** Send @p bytes random bytes from @p from to @p dest, logging the
 *  terminal status. */
void
sendAddressed(bus::MBusSystem &sys, std::ostream &log, std::size_t from,
              bus::Address dest, std::size_t bytes, std::uint64_t seed)
{
    sim::Random rng(seed);
    bus::Message msg;
    msg.dest = dest;
    msg.payload = test::randomPayload(rng, bytes);
    sys.node(from).send(std::move(msg),
                        [&log, &sys, from](const bus::TxResult &r) {
                            log << "tx" << from << " "
                                << bus::txStatusName(r.status) << " bytes="
                                << r.bytesSent << " at=" << r.completedAt
                                << " @" << sys.simulator().now() << "\n";
                        });
}

/** Send @p bytes random bytes from @p from to node @p to's mailbox. */
void
sendLogged(bus::MBusSystem &sys, std::ostream &log, std::size_t from,
           std::size_t to, std::size_t bytes, std::uint64_t seed)
{
    sendAddressed(sys, log, from, sys.node(to).address(bus::kFuMailbox),
                  bytes, seed);
}

/** The same ring run with the fast-forward on and off must agree on
 *  everything but kernel events, which must drop; returns the run
 *  with the fast-forward on. */
RingRun
expectExact(int nodes, int lanes,
            const std::function<void(bus::MBusSystem &, std::ostream &)>
                &drive,
            std::size_t rxLimit = ~std::size_t(0), bool rotating = false)
{
    RingRun on = runRing(true, nodes, lanes, drive, rxLimit, rotating);
    RingRun off = runRing(false, nodes, lanes, drive, rxLimit, rotating);
    EXPECT_EQ(on.state, off.state);
    EXPECT_LE(on.events, off.events);
    EXPECT_LT(on.deliveries, off.deliveries);
    return on;
}

/** Falling tick k of the first transaction node @p s requests at 0. */
sim::SimTime
fallingTick(bus::MBusSystem &sys, std::size_t s, int k)
{
    const bus::SystemConfig &cfg = sys.config();
    const sim::SimTime period = sim::periodFromHz(cfg.busClockHz);
    const auto n = static_cast<sim::SimTime>(sys.nodeCount());
    const sim::SimTime start =
        (n - static_cast<sim::SimTime>(s)) * cfg.hopDelay + period;
    return start + 2 * static_cast<sim::SimTime>(k - 1) * (period / 2);
}

TEST(FastForward, StormInterjectionMidDataPhase)
{
    // On the mediator's fixed priority, and under the mutable-priority
    // break (Sec 7), whose per-edge CLK listener on every chip the
    // skip passes by, rotating after each transaction.
    for (bool rotating : {false, true}) {
        SCOPED_TRACE(rotating ? "rotating" : "fixed");
        RingRun on = expectExact(
            5, 2,
            [](bus::MBusSystem &sys, std::ostream &log) {
                sendLogged(sys, log, 1, 3, 200, 7);
                // A third party stomps the transfer 40 cycles into
                // its data.
                sys.simulator().scheduleAt(
                    fallingTick(sys, 1, 52) + 1234,
                    [&sys] { sys.node(4).interject(); });
            },
            ~std::size_t(0), rotating);
        if (!rotating)
            continue;
        // Pinned as each cell's count x unit. Four lines per node:
        // seg_clk seg_data, comb fifo, drive mediator, leakage external.
        EXPECT_EQ(on.ledger,
                  "0x1.0548c42da6e76p-33 0x1.009e52f5fac7dp-34 "
                  "0x1.113d09639c229p-38 0x0p+0 "
                  "0x0p+0 0x1.4f72eef4931cbp-35 "
                  "0x0p+0 0x0p+0 "
                  "0x1.0548c42da6e76p-33 0x1.dbe91c2e94933p-35 "
                  "0x1.113d09639c229p-38 0x0p+0 "
                  "0x1.6b1bb646f8e38p-35 0x0p+0 "
                  "0x0p+0 0x0p+0 "
                  "0x1.0548c42da6e76p-33 0x1.dbe91c2e94933p-35 "
                  "0x1.113d09639c229p-38 0x0p+0 "
                  "0x0p+0 0x0p+0 "
                  "0x0p+0 0x0p+0 "
                  "0x1.0548c42da6e76p-33 0x1.dbe91c2e94933p-35 "
                  "0x1.113d09639c229p-38 0x1.20d25153173d5p-34 "
                  "0x0p+0 0x0p+0 "
                  "0x0p+0 0x0p+0 "
                  "0x1.009e52f5fac7dp-33 0x1.dbe91c2e94933p-35 "
                  "0x1.113d09639c229p-38 0x0p+0 "
                  "0x0p+0 0x0p+0 "
                  "0x0p+0 0x0p+0 ");
    }
}

TEST(FastForward, FaultEventMidDataPhase)
{
    auto run = [](bool ff) {
        sim::Simulator sim;
        backend::BusParams p;
        p.nodes = 4;
        p.dataLanes = 1;
        p.fastForward = ff;
        backend::MbusBackend be(sim, p);
        std::ostringstream log;
        bus::Message msg;
        msg.dest = be.unicastAddress(2, false, bus::kFuMailbox);
        msg.payload.assign(150, 0x5A);
        be.send(1, msg, [&log, &sim](const bus::TxResult &r) {
            log << bus::txStatusName(r.status) << " " << r.bytesSent
                << " @" << sim.now() << "\n";
        });
        // A short stuck-at on a DATA segment and a glitch on CLK,
        // both well inside the data phase.
        sim.scheduleAt(300 * sim::kMicrosecond,
                       [&be] { be.injectWireForce(3, 1, false); });
        sim.scheduleAt(300 * sim::kMicrosecond + 777,
                       [&be] { be.injectWireRelease(3, 1); });
        sim.scheduleAt(900 * sim::kMicrosecond,
                       [&be] { be.injectGlitch(2, 0, 1); });
        be.runUntilIdle(sim::kSecond);
        log << "now=" << sim.now() << " cycles=" << be.clockCycles()
            << " sw=" << exact(be.switchingJ());
        for (std::size_t i = 0; i < be.nodeCount(); ++i)
            log << " " << be.nodeEdges(i) << ":"
                << exact(be.nodeEnergyJ(i));
        return std::make_pair(log.str(), deliveries(sim));
    };
    auto on = run(true), off = run(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_LT(on.second, off.second);
}

TEST(FastForward, WatchdogPollsMidDataPhase)
{
    struct Costs
    {
        std::string state;
        std::uint64_t events = 0;
        std::uint64_t deliveries = 0;
    };
    auto run = [](bool ff, std::uint32_t pollEpochs) {
        sim::Simulator sim;
        backend::BusParams p;
        p.nodes = 3;
        p.dataLanes = 4;
        p.powerGated = true;
        p.fastForward = ff;
        backend::MbusBackend be(sim, p);
        be.armWatchdog(pollEpochs); // Polls every pollEpochs periods.
        std::ostringstream log;
        for (int k = 0; k < 3; ++k) {
            bus::Message msg;
            msg.dest = be.unicastAddress(2 - k % 2, k == 1,
                                         bus::kFuMailbox);
            msg.payload.assign(90 + 10 * k, static_cast<std::uint8_t>(k));
            be.send(k % 2 == 0 ? 1 : 2, msg,
                    [&log, &sim](const bus::TxResult &r) {
                        log << bus::txStatusName(r.status) << " "
                            << r.bytesSent << " @" << sim.now() << "\n";
                    });
        }
        sim.run(20 * sim::kMillisecond);
        log << "now=" << sim.now() << " cycles=" << be.clockCycles()
            << " resets=" << be.busResets()
            << " sw=" << exact(be.switchingJ());
        for (std::size_t i = 0; i < be.nodeCount(); ++i)
            log << " " << be.nodeEdges(i) << ":"
                << exact(be.nodeEnergyJ(i)) << ":"
                << be.poweredSeconds(i);
        return Costs{log.str(), sim.eventsExecuted(), deliveries(sim)};
    };
    // A poll inside a skip finds the bus busy, the mediator awake and
    // the tail CLK epoch moving, so the skip answers it and runs on:
    // even polls every 16 periods do not bound the data phases.
    for (std::uint32_t epochs : {16u, 32u, 64u}) {
        SCOPED_TRACE("poll every " + std::to_string(epochs));
        Costs on = run(true, epochs), off = run(false, epochs);
        EXPECT_EQ(on.state, off.state);
        EXPECT_LT(on.events, off.events);
        EXPECT_LT(on.deliveries, off.deliveries);
    }
}

TEST(FastForward, ReceiverCapacityPointStaysOnEdges)
{
    // The receiver overflows 40 bytes into a 120-byte message and
    // aborts it; every lane count reaches the point differently.
    for (int lanes = 1; lanes <= 4; ++lanes) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        expectExact(
            4, lanes,
            [](bus::MBusSystem &sys, std::ostream &log) {
                sendLogged(sys, log, 2, 1, 120, 11);
            },
            /*rxLimit=*/40);
    }
}

TEST(FastForward, LengthLimitStaysOnEdges)
{
    // Past the mediator's 1 kB limit: the watchdog kills the message.
    for (int lanes : {1, 3}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        expectExact(3, lanes, [](bus::MBusSystem &sys, std::ostream &log) {
            sendLogged(sys, log, 1, 2, 1100, 13);
        });
    }
}

/** Per-edge tap on one segment: when each delivered edge arrived. */
struct EdgeTimes final : wire::EdgeListener
{
    sim::Simulator *sim = nullptr;
    std::vector<sim::SimTime> at;
    void onNetEdge(wire::Net &, bool) override { at.push_back(sim->now()); }
};

TEST(FastForward, GlitchInFlightBlocksEntry)
{
    // A sub-hop pulse on a DATA segment that is still crossing the
    // ring at a falling tick: that tick must run on edges, the next
    // one may skip. Without the pulse the same tick is skipped.
    const int kTick = 40;
    auto run = [kTick](bool ff, bool glitch, bool &tickDelivered,
                       bool &nextDelivered) {
        sim::Simulator sim;
        bus::SystemConfig cfg;
        cfg.fastForward = ff;
        bus::MBusSystem sys(sim, cfg);
        test::buildRing(sys, 5);
        EdgeTimes tap;
        tap.sim = &sim;
        sys.clkSegment(0).listen(wire::Edge::Falling, tap);
        std::ostringstream log;
        sendLogged(sys, log, 1, 3, 64, 17);
        const sim::SimTime tick = fallingTick(sys, 1, kTick);
        const sim::SimTime h = sys.config().hopDelay;
        if (glitch) {
            // Force and release both land before the tick; the pulse
            // then rides the forwarding chain past it.
            wire::Net *seg = &sys.dataSegment(2);
            sim.scheduleAt(tick - h / 2 - 1,
                           [seg] { seg->force(!seg->value()); });
            sim.scheduleAt(tick - 1, [seg] { seg->release(); });
        }
        sys.runUntilIdle(sim::kSecond);
        auto seen = [&tap, h](sim::SimTime t) {
            for (sim::SimTime a : tap.at)
                if (a == t + h)
                    return true;
            return false;
        };
        const sim::SimTime next = fallingTick(sys, 1, kTick + 1);
        tickDelivered = seen(tick);
        nextDelivered = seen(next);
        return log.str() + ringState(sys);
    };
    bool tickOn, nextOn, tickOff, nextOff, tickClean, nextClean;
    std::string on = run(true, true, tickOn, nextOn);
    std::string off = run(false, true, tickOff, nextOff);
    EXPECT_EQ(on, off);
    EXPECT_TRUE(tickOff && nextOff);
    EXPECT_TRUE(tickOn) << "entry not blocked by the in-flight pulse";
    EXPECT_FALSE(nextOn) << "no fast-forward once the pulse settled";
    run(true, false, tickClean, nextClean);
    EXPECT_FALSE(tickClean) << "the same tick skips without the pulse";
}

TEST(FastForward, CanonicalMixCellStaysUnderItsEventsCeiling)
{
    // perf_gate's workload_mix cell at Fidelity::Auto: exact against
    // the edge engine, under a fixed events ceiling (14,560 events
    // when pinned; 17,072 skipping data phases alone, 223,192 on
    // every edge).
    ScenarioSpec spec = benchutil::canonicalWorkloadCell(
        4, 400e3, /*stormFrac=*/0.10, /*smoke=*/true);
    ScenarioSpec edge = spec;
    edge.fidelity = Fidelity::Edge;
    ScenarioStats a = sweep::runScenario(spec, 0x6d6978ULL);
    ScenarioStats b = sweep::runScenario(edge, 0x6d6978ULL);
    EXPECT_TRUE(test::sameRecord(a, b, test::Except::ModelCosts));
    EXPECT_GT(a.samplesDelivered, 0);
    EXPECT_LE(a.eventsExecuted, 15300u)
        << "edge engine: " << b.eventsExecuted;
}

// --- Mixed rings: the software member in the last slot ---------------

/** Every FirmwareStats field and the worst ISR path, as text. */
std::string
memberState(const firmware::FirmwareNode &m)
{
    const firmware::FirmwareStats &s = m.stats();
    std::ostringstream os;
    os << "isr=" << s.isrInvocations << " cycles=" << s.cyclesSpent
       << " sent=" << s.messagesSent << " rcvd=" << s.messagesReceived
       << " stalls=" << s.serializationStalls << " runs=" << s.runWakeups
       << " merged=" << s.mergedEdges << " req=" << s.requestsIssued
       << " errs=" << s.localErrors
       << " path=" << m.maxObservedPathCycles() << " fsm="
       << firmware::mbusStateName(m.fsm().state());
    return os.str();
}

/** A mixed-ring cell and the member knobs a spec does not carry. */
struct MixedCell
{
    ScenarioSpec spec;
    std::uint32_t jitter = 0;
    bool merge = false;
};

/** One randomized bitbang or firmware cell on the edge engine: 3-14
 *  nodes, gated, stormy, faulty (watchdog armed) or a workload mix,
 *  every traffic pattern incl. broadcast and priority -- so the
 *  member sends, receives and forwards -- and now and then a small
 *  member RX buffer, ISR jitter or merged edges. */
MixedCell
randomMixedCell(sim::Random &rng, int i)
{
    MixedCell c;
    ScenarioSpec &s = c.spec;
    s.name = "ffm" + std::to_string(i);
    s.backend = rng.chance(0.5) ? backend::BackendKind::Bitbang
                                : backend::BackendKind::Firmware;
    s.nodes = 3 + static_cast<int>(rng.below(12));
    s.hopDelayNs = rng.chance(0.5) ? 10.0 : 4.0;
    s.busClockHz = 30e3 + 370e3 * rng.uniform(); // Clamped to the ceiling.
    s.fullAddressing = rng.chance(0.3);
    s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
    s.messages = 2 + static_cast<int>(rng.below(4));
    s.payloadBytes = 1 + rng.below(120);
    s.priorityRate = rng.chance(0.3) ? 0.5 : 0.0;
    if (rng.chance(0.15))
        s.softRxCapacity = 8 + rng.below(24); // The member overflows.
    switch (rng.below(4)) {
      case 0:
        s.powerGated = true;
        break;
      case 1:
        s.interjectRate = 0.3 + 0.5 * rng.uniform();
        s.powerGated = rng.chance(0.5);
        break;
      case 2:
        s.faults = benchutil::smokeFaults(rng);
        s.retry.maxRetries = static_cast<int>(rng.below(3));
        s.retry.backoffEpochs = 8;
        break;
      default: {
        const int nodes = s.nodes;
        const std::string name = s.name;
        const backend::BackendKind kind = s.backend;
        s = benchutil::canonicalWorkloadCell(
            nodes, s.busClockHz, rng.chance(0.5) ? 0.3 : 0.0,
            /*smoke=*/true);
        s.name = name;
        s.backend = kind;
        workload::WorkloadSpec &w = s.workload;
        w.durationS = 0.4;
        w.actors[0].periodS = 0.05;
        w.actors[1].startS = 0.02;
        w.actors[1].payloadBytes = 32 + rng.below(97);
        w.actors[1].burstBytes = 512;
        w.actors[2].periodS = 0.1;
        break;
      }
    }
    if (rng.chance(0.1))
        c.jitter = 1 + static_cast<std::uint32_t>(rng.below(16));
    c.merge = rng.chance(0.08);
    return c;
}

/** One mixed-ring cell's record and its member's counters. */
struct MixedRun
{
    ScenarioStats stats;
    std::string member;
};

MixedRun
runMixed(const MixedCell &cell, Fidelity fidelity, std::uint64_t seed)
{
    MixedRun r;
    ScenarioSpec spec = cell.spec;
    spec.fidelity = fidelity;
    sweep::CellHooks hooks;
    hooks.tune = [&cell](backend::BusParams &p) {
        p.fwIsrJitterCycles = cell.jitter;
        p.fwMergeMissedEdges = cell.merge;
    };
    hooks.inspect = [&r](backend::BusBackend &be) {
        auto *ring = dynamic_cast<backend::MbusBackend *>(&be);
        if (ring && ring->softMember())
            r.member = memberState(*ring->softMember());
    };
    r.stats = sweep::runScenario(spec, seed, hooks);
    return r;
}

/** A cell's records at Fidelity::Auto and at Fidelity::Edge. */
struct AutoVsEdge
{
    ScenarioStats autoRun;
    ScenarioStats edgeRun;
};

/** Runs @p cell (a hardware or mixed ring on the edge engine) at Auto
 *  and at Edge with @p seed, and expects the same record, kernel
 *  costs aside, the same member state, and Auto retiring no more
 *  events. */
AutoVsEdge
expectAutoMatchesEdge(const MixedCell &cell, std::uint64_t seed)
{
    MixedRun a = runMixed(cell, Fidelity::Auto, seed);
    MixedRun b = runMixed(cell, Fidelity::Edge, seed);
    EXPECT_EQ(a.stats.fidelity, Fidelity::Edge);
    EXPECT_TRUE(
        test::sameRecord(a.stats, b.stats, test::Except::ModelCosts));
    EXPECT_EQ(a.member, b.member);
    EXPECT_LE(a.stats.eventsExecuted, b.stats.eventsExecuted);
    return {a.stats, b.stats};
}

TEST(FastForward, RandomMixedRingCellsMatchTheEdgeEngine)
{
    sim::Random rng(0x50f7f00du);
    std::uint64_t autoEvents = 0, edgeEvents = 0;
    int fewer = 0;
    const int kCells = 120;
    for (int i = 0; i < kCells; ++i) {
        const MixedCell cell = randomMixedCell(rng, i);
        ASSERT_FALSE(sweep::messageLevelEligible(cell.spec));
        const std::uint64_t seed = 0x5f0u + static_cast<std::uint64_t>(i);
        SCOPED_TRACE(cell.spec.name + " seed=" + std::to_string(seed) +
                     " jitter=" + std::to_string(cell.jitter) +
                     " merge=" + std::to_string(cell.merge));
        const AutoVsEdge r = expectAutoMatchesEdge(cell, seed);
        autoEvents += r.autoRun.eventsExecuted;
        edgeEvents += r.edgeRun.eventsExecuted;
        fewer += r.autoRun.eventsExecuted < r.edgeRun.eventsExecuted;
    }
    // The sweep must actually exercise the fast-forward.
    EXPECT_GT(fewer, kCells / 3);
    EXPECT_LT(autoEvents, edgeEvents / 2);
}

/** A mixed ring run through MbusBackend: what its traffic logged,
 *  every observable and the member's state, and its kernel costs. */
struct MixedRing
{
    std::string state;
    std::uint64_t events = 0;
    std::uint64_t deliveries = 0;
};

MixedRing
runMixedRing(bool fastForward, int nodes,
             const std::function<void(backend::MbusBackend &,
                                      std::ostream &)> &drive,
             const std::function<void(backend::BusParams &)> &tune =
                 nullptr)
{
    sim::Simulator sim;
    backend::BusParams p;
    p.nodes = nodes;
    p.busClockHz = 100e3;
    p.softRxCapacity = 1024;
    p.fastForward = fastForward;
    if (tune)
        tune(p);
    backend::MbusBackend be(sim, p, backend::BackendKind::Bitbang);
    std::ostringstream log;
    be.setDeliveryHandler([&log, &sim](std::size_t node,
                                       const bus::ReceivedMessage &rx) {
        unsigned sum = 0;
        for (std::uint8_t b : rx.payload)
            sum = sum * 31 + b;
        log << "rx" << node << "@" << sim.now() << " n="
            << rx.payload.size() << " intj=" << rx.interjected
            << " err=" << static_cast<int>(rx.error) << " sum=" << sum
            << "\n";
    });
    drive(be, log);
    be.runUntilIdle(sim::kSecond);
    log << "now=" << sim.now() << " cycles=" << be.clockCycles()
        << " sw=" << exact(be.switchingJ());
    for (std::size_t i = 0; i < be.nodeCount(); ++i)
        log << " " << be.nodeEdges(i) << ":" << exact(be.nodeEnergyJ(i));
    log << "\n" << memberState(*be.softMember());
    return MixedRing{log.str(), sim.eventsExecuted(), deliveries(sim)};
}

/** Send @p bytes random bytes from ring slot @p from to slot @p to,
 *  logging the terminal status. */
void
sendMixed(backend::MbusBackend &be, std::ostream &log, std::size_t from,
          std::size_t to, std::size_t bytes, std::uint64_t seed)
{
    sim::Random rng(seed);
    bus::Message msg;
    msg.dest = be.unicastAddress(to, false, bus::kFuMailbox);
    msg.payload = test::randomPayload(rng, bytes);
    be.send(from, std::move(msg),
            [&log, from](const bus::TxResult &r) {
                log << "tx" << from << " " << bus::txStatusName(r.status)
                    << " bytes=" << r.bytesSent << " at=" << r.completedAt
                    << "\n";
            });
}

TEST(FastForward, SoftMemberTransmitsMidDataPhase)
{
    // The member (slot 2 of 3) streams to both chips; a chip stomps
    // its first message partway, inside a skippable stretch.
    auto drive = [](backend::MbusBackend &be, std::ostream &log) {
        sendMixed(be, log, 2, 0, 200, 21);
        sendMixed(be, log, 2, 1, 150, 22);
        be.system().simulator().scheduleAt(
            30 * sim::kMillisecond + 1234, [&be] { be.interject(1); });
    };
    MixedRing on = runMixedRing(true, 3, drive);
    MixedRing off = runMixedRing(false, 3, drive);
    EXPECT_EQ(on.state, off.state);
    EXPECT_NE(on.state.find("INTERRUPTED"), std::string::npos)
        << on.state;
    EXPECT_LE(on.events, off.events);
    EXPECT_LT(on.deliveries, off.deliveries);
}

TEST(FastForward, SoftMemberReceiverStaysOnEdges)
{
    // Every data phase ends at the member, which latches each bit in
    // its CLK ISR: past the address nothing may be skipped, with or
    // without its RX buffer overflowing. The address before it may:
    // a window ends at the member's last address cycle, so its CLKIN
    // misses at most the 8 falling edges of each short address.
    for (std::size_t rx : {std::size_t(1024), std::size_t(40)}) {
        SCOPED_TRACE("rx capacity " + std::to_string(rx));
        auto run = [rx](bool ff, std::size_t &clkFalls) {
            EdgeTimes tap;
            auto drive = [&tap](backend::MbusBackend &be,
                                std::ostream &log) {
                tap.sim = &be.system().simulator();
                be.system().clkSegment(2).listen(wire::Edge::Falling, tap);
                sendMixed(be, log, 1, 3, 200, 31);
                sendMixed(be, log, 0, 3, 120, 32);
            };
            auto tune = [rx](backend::BusParams &p) {
                p.softRxCapacity = rx;
            };
            MixedRing r = runMixedRing(ff, 4, drive, tune);
            clkFalls = tap.at.size();
            return r;
        };
        std::size_t fallsOn = 0, fallsOff = 0;
        MixedRing on = run(true, fallsOn);
        MixedRing off = run(false, fallsOff);
        EXPECT_EQ(on.state, off.state);
        EXPECT_LT(on.deliveries, off.deliveries);
        EXPECT_LT(fallsOn, fallsOff);
        EXPECT_LE(fallsOff - fallsOn, 2u * 8u);
    }
}

TEST(FastForward, IsrJitterKeepsEveryEdge)
{
    // The member forwards chip-to-chip traffic, but a jittered or
    // edge-merging ISR has no closed form: every edge stays.
    for (int mode = 0; mode < 2; ++mode) {
        SCOPED_TRACE(mode == 0 ? "jitter" : "merged edges");
        auto drive = [](backend::MbusBackend &be, std::ostream &log) {
            sendMixed(be, log, 1, 0, 200, 41);
            sendMixed(be, log, 0, 2, 120, 42);
        };
        auto tune = [mode](backend::BusParams &p) {
            if (mode == 0)
                p.fwIsrJitterCycles = 12;
            else
                p.fwMergeMissedEdges = true;
        };
        MixedRing on = runMixedRing(true, 4, drive, tune);
        MixedRing off = runMixedRing(false, 4, drive, tune);
        EXPECT_EQ(on.state, off.state);
        EXPECT_EQ(on.deliveries, off.deliveries);
        // Without the knob the same traffic is skipped.
        MixedRing plain = runMixedRing(true, 4, drive);
        EXPECT_LT(plain.deliveries, off.deliveries);
    }
}

TEST(FastForward, CanonicalMixedRingCellStaysUnderItsEventsCeiling)
{
    // perf_gate's bitbang_mix cell, under both fabric labels of its
    // one engine, at Fidelity::Auto: exact against the edge
    // engine (member counters included), under a fixed events ceiling
    // (15,566 events when pinned; 18,074 skipping data phases alone,
    // 216,189 on every edge), and at least 10x fewer kernel events
    // plus train edges.
    for (backend::BackendKind kind :
         {backend::BackendKind::Bitbang, backend::BackendKind::Firmware}) {
        SCOPED_TRACE(backend::backendKindName(kind));
        MixedCell cell;
        cell.spec = benchutil::canonicalWorkloadCell(3, 400e3,
                                                     /*stormFrac=*/0.10,
                                                     /*smoke=*/true);
        cell.spec.backend = kind;
        MixedRun a = runMixed(cell, Fidelity::Auto, 0x6d6978ULL);
        MixedRun b = runMixed(cell, Fidelity::Edge, 0x6d6978ULL);
        EXPECT_TRUE(
            test::sameRecord(a.stats, b.stats, test::Except::ModelCosts));
        EXPECT_EQ(a.member, b.member);
        EXPECT_GT(a.stats.samplesDelivered, 0);
        const std::uint64_t autoWork =
            a.stats.eventsExecuted + a.stats.trainEdges;
        const std::uint64_t edgeWork =
            b.stats.eventsExecuted + b.stats.trainEdges;
        EXPECT_LE(a.stats.eventsExecuted, 16350u)
            << "edge engine: " << b.stats.eventsExecuted;
        EXPECT_LE(10 * autoWork, edgeWork)
            << autoWork << " vs " << edgeWork;
    }
}

// --- Runaway data phases: nobody transmits -------------------------

TEST(FastForward, TransmitterlessRunawayMatchesTheEdgeEngine)
{
    // Direct rings over 1-4 lanes: the sender browns out at a random
    // data cycle and the mediator clocks phantom bits -- each lane's
    // last level, all around the ring -- until its 1 kB watchdog or a
    // receiver's RX limit ends the message, with watchdog polls every
    // 16, 32 or 64 periods passed inside the skips.
    sim::Random rng(0x52a4a7a7u);
    for (int i = 0; i < 24; ++i) {
        const int lanes = 1 + i % 4;
        const int nodes = 3 + static_cast<int>(rng.below(4));
        const std::uint32_t epochs = 16u << (i % 3);
        const std::size_t rx = rng.chance(0.4)
                                   ? 300 + rng.below(700)
                                   : ~std::size_t(0);
        const int cut = 12 + static_cast<int>(rng.below(60));
        const std::size_t bytes = 40 + rng.below(160);
        const std::uint64_t seed = rng.next();
        SCOPED_TRACE("ring " + std::to_string(i) + " lanes=" +
                     std::to_string(lanes) + " nodes=" +
                     std::to_string(nodes) + " polls=" +
                     std::to_string(epochs) + " rx=" + std::to_string(rx) +
                     " cut=" + std::to_string(cut));
        RingRun on = expectExact(
            nodes, lanes,
            [=](bus::MBusSystem &sys, std::ostream &log) {
                sys.armWatchdog(epochs);
                sendLogged(sys, log, 1, static_cast<std::size_t>(nodes - 1),
                           bytes, seed);
                sys.simulator().scheduleAt(
                    fallingTick(sys, 1, cut) + 777,
                    [&sys] { sys.node(1).brownout(); });
            },
            rx);
        EXPECT_NE(on.state.find("tx1 RESET"), std::string::npos)
            << on.state;
    }

    // Sweep cells, hardware and mixed rings: the sender (chip 1)
    // browns out mid-message, now and then with a stuck line, and a
    // small member RX buffer.
    int halved = 0;
    const int kCells = 60;
    for (int i = 0; i < kCells; ++i) {
        MixedCell cell;
        ScenarioSpec &s = cell.spec;
        s.name = "ffr" + std::to_string(i);
        const bool mixed = i % 2 == 1;
        s.backend = !mixed ? backend::BackendKind::Mbus
                    : rng.chance(0.5) ? backend::BackendKind::Bitbang
                                      : backend::BackendKind::Firmware;
        s.nodes = 3 + static_cast<int>(rng.below(mixed ? 6 : 4));
        s.dataLanes = mixed ? 1 : 1 + (i / 2) % 4;
        // Mostly to chip 0: a receiving member keeps every edge.
        s.traffic = rng.chance(mixed ? 0.2 : 0.5)
                        ? sweep::TrafficPattern::SingleSender
                        : sweep::TrafficPattern::AllToOne;
        s.messages = 1 + static_cast<int>(rng.below(3));
        s.payloadBytes = 60 + rng.below(140);
        s.powerGated = rng.chance(0.3);
        if (mixed && rng.chance(0.3))
            s.softRxCapacity = 16 + rng.below(64);
        // The first message's data phase, at the spec's clock (a
        // mixed ring runs slower, so its cut lands earlier in it).
        const double data = 8.0 * static_cast<double>(s.payloadBytes) /
                            s.dataLanes / s.busClockHz;
        const double start = 12 / s.busClockHz;
        fault::FaultEntry cut;
        cut.kind = fault::FaultKind::Brownout;
        cut.node = 1;
        cut.startS = start + 0.1 * data;
        cut.endS = start + 0.8 * data;
        cut.durationS = 1e-4 + 9e-4 * rng.uniform();
        s.faults.entries.push_back(cut);
        if (rng.chance(0.4)) {
            fault::FaultEntry stuck;
            stuck.kind = rng.chance(0.5) ? fault::FaultKind::StuckAt0
                                         : fault::FaultKind::StuckAt1;
            stuck.lane = static_cast<int>(rng.below(
                static_cast<std::uint64_t>(s.dataLanes) + 1));
            stuck.startS = cut.startS;
            stuck.endS = start + 4 * data;
            stuck.durationS = 5e-5 + 2.5e-4 * rng.uniform();
            s.faults.entries.push_back(stuck);
        }
        s.faults.watchdogEpochs = 16u << (i % 3);
        s.retry.maxRetries = static_cast<int>(rng.below(2));
        s.retry.backoffEpochs = 8;
        const std::uint64_t seed = 0x7a0u + static_cast<std::uint64_t>(i);
        SCOPED_TRACE(s.name + " " + backend::backendKindName(s.backend) +
                     " seed=" + std::to_string(seed));
        const AutoVsEdge r = expectAutoMatchesEdge(cell, seed);
        halved += 2 * r.autoRun.eventsExecuted < r.edgeRun.eventsExecuted;
    }
    // Most cells clock a runaway phase, and skip it.
    EXPECT_GT(halved, 2 * kCells / 3);
}

TEST(FastForward, FaultyGridRunawayCellsStayUnderTheirEventsCeilings)
{
    // The faulty five-fabric grid's runaway cells
    // (benchutil::kFaultyRunawayCells at sweep_runner's seeds): a
    // brownout leaves each clocking ~8,400 cycles of a data phase
    // nobody drives. Pinned at 1,680, 1,132 and 1,104 events (with
    // every edge: 5,483, 5,508 and 5,480; skipping only between
    // watchdog polls: 3,971, 3,716 and 3,690); each ceiling is half
    // the last.
    const std::uint64_t ceilings[] = {1985, 1858, 1845};
    static_assert(std::size(ceilings) ==
                  std::size(benchutil::kFaultyRunawayCells));
    for (std::size_t k = 0; k < std::size(ceilings); ++k) {
        MixedCell cell;
        std::uint64_t seed = 0;
        std::tie(cell.spec, seed) =
            benchutil::faultyGridCell(benchutil::kFaultyRunawayCells[k]);
        SCOPED_TRACE(cell.spec.name + " seed=" + std::to_string(seed));
        const AutoVsEdge r = expectAutoMatchesEdge(cell, seed);
        EXPECT_GT(r.autoRun.clockCycles, 8000u);
        EXPECT_LE(r.autoRun.eventsExecuted, ceilings[k])
            << "edge engine: " << r.edgeRun.eventsExecuted;
    }
}

// --- Windows opening at the reserved cycle ---------------------------

TEST(FastForward, AddressPhaseWindowMatchesTheEdgeEngine)
{
    // A window opens at the reserved cycle and runs through the
    // address into the data: exact against every edge, retiring fewer
    // kernel events.
    //
    // Direct rings of 5 chips (chips 1-4 gated) over 1-4 lanes, with
    // short, full and broadcast addresses: the ungated mediator host
    // receives through one window; a gated receiver (every chip, for a
    // broadcast) ends it at its last address cycle; a third-party
    // interjection, watchdog polls and interrupts land inside the
    // address cycles.
    const std::uint8_t mbox = bus::kFuMailbox;
    using Drive = std::function<void(bus::MBusSystem &, std::ostream &)>;
    const std::pair<const char *, Drive> cases[] = {
        {"ungated receiver",
         [mbox](bus::MBusSystem &sys, std::ostream &log) {
             sendAddressed(sys, log, 1, sys.node(0).address(mbox), 48, 51);
             sendAddressed(sys, log, 2, sys.node(0).fullAddress(mbox), 33,
                           52);
         }},
        {"gated receiver",
         [mbox](bus::MBusSystem &sys, std::ostream &log) {
             sendAddressed(sys, log, 1, sys.node(3).fullAddress(mbox), 40,
                           53);
             sendAddressed(sys, log, 4, sys.node(2).address(mbox), 24, 54);
         }},
        {"broadcast",
         [](bus::MBusSystem &sys, std::ostream &log) {
             sendAddressed(sys, log, 2,
                           bus::Address::broadcast(bus::kChannelEnumerate),
                           36, 55);
         }},
        {"third party in the address",
         [mbox](bus::MBusSystem &sys, std::ostream &log) {
             // Its request waits out the four-byte progress rule on
             // edges; the next message skips again.
             sendAddressed(sys, log, 1, sys.node(0).address(mbox), 120, 56);
             sys.simulator().scheduleAt(fallingTick(sys, 1, 7) + 123,
                                        [&sys] { sys.node(4).interject(); });
             sys.simulator().scheduleAt(
                 5 * sim::kMillisecond, [&sys, &log, mbox] {
                     sendAddressed(sys, log, 2, sys.node(0).address(mbox),
                                   90, 62);
                 });
         }},
        {"watchdog polls",
         [mbox](bus::MBusSystem &sys, std::ostream &log) {
             sys.armWatchdog(3); // A poll every third cycle.
             sendAddressed(sys, log, 1, sys.node(0).address(mbox), 60, 57);
             sendAddressed(sys, log, 3, sys.node(2).fullAddress(mbox), 30,
                           58);
         }},
        {"interrupts",
         [mbox](bus::MBusSystem &sys, std::ostream &log) {
             sendAddressed(sys, log, 1, sys.node(0).address(mbox), 64, 59);
             sys.node(3).assertInterrupt();
             sys.simulator().scheduleAt(fallingTick(sys, 1, 6) + 50,
                                        [&sys] {
                                            sys.node(2).assertInterrupt();
                                        });
         }},
    };
    for (int lanes = 1; lanes <= 4; ++lanes) {
        for (const auto &[name, drive] : cases) {
            SCOPED_TRACE(std::string(name) + " lanes=" +
                         std::to_string(lanes));
            expectExact(5, lanes, drive);
        }
    }

    // The first transaction's address ticks are skipped: no falling
    // edge of address cycles 0-7 leaves the mediator.
    {
        sim::Simulator sim;
        bus::MBusSystem sys(sim);
        test::buildRing(sys, 4);
        EdgeTimes tap;
        tap.sim = &sim;
        sys.clkSegment(0).listen(wire::Edge::Falling, tap);
        std::ostringstream log;
        sendLogged(sys, log, 1, 0, 64, 60);
        sys.runUntilIdle(sim::kSecond);
        const sim::SimTime h = sys.config().hopDelay;
        for (int k = 4; k < 12; ++k)
            for (sim::SimTime at : tap.at)
                EXPECT_NE(at, fallingTick(sys, 1, k) + h) << "tick " << k;
    }

    // Mixed rings (3 chips and the member in slot 3): the member
    // forwards, transmits, and is the addressed receiver, short and
    // full addresses alike.
    auto member = [](bus::Address (*to)(backend::MbusBackend &),
                     std::size_t from) {
        return [to, from](backend::MbusBackend &be, std::ostream &log) {
            sim::Random rng(61 + from);
            bus::Message msg;
            msg.dest = to(be);
            msg.payload = test::randomPayload(rng, 80);
            be.send(from, std::move(msg), [&log](const bus::TxResult &r) {
                log << bus::txStatusName(r.status) << " " << r.bytesSent
                    << " at=" << r.completedAt << "\n";
            });
        };
    };
    const std::pair<const char *,
                    std::function<void(backend::MbusBackend &, std::ostream &)>>
        mixed[] = {
            {"member forwards, short",
             member([](backend::MbusBackend &be) {
                 return be.unicastAddress(0, false, bus::kFuMailbox);
             }, 1)},
            {"member forwards, full",
             member([](backend::MbusBackend &be) {
                 return be.unicastAddress(0, true, bus::kFuMailbox);
             }, 2)},
            {"member transmits, short",
             member([](backend::MbusBackend &be) {
                 return be.unicastAddress(1, false, bus::kFuMailbox);
             }, 3)},
            {"member transmits, full",
             member([](backend::MbusBackend &be) {
                 return be.unicastAddress(0, true, bus::kFuMailbox);
             }, 3)},
            {"member receives",
             member([](backend::MbusBackend &be) {
                 return be.unicastAddress(3, false, bus::kFuMailbox);
             }, 1)},
        };
    for (const auto &[name, drive] : mixed) {
        SCOPED_TRACE(name);
        MixedRing on = runMixedRing(true, 4, drive);
        MixedRing off = runMixedRing(false, 4, drive);
        EXPECT_EQ(on.state, off.state);
        EXPECT_LE(on.events, off.events);
        EXPECT_LT(on.deliveries, off.deliveries);
    }

    // Faulty-grid cells (at sweep_runner's seeds) where a fault left a
    // chip a CLK cycle behind the mediator before the reserved cycle,
    // its address latch empty like everyone's: out of step, it keeps
    // the ring on edges until its address ends.
    for (std::size_t index : {250, 1384, 2180, 2290, 2415, 2840, 3510}) {
        MixedCell cell;
        std::uint64_t seed = 0;
        std::tie(cell.spec, seed) = benchutil::faultyGridCell(index);
        SCOPED_TRACE(cell.spec.name + " seed=" + std::to_string(seed));
        expectAutoMatchesEdge(cell, seed);
    }

    // Sweep cells as whole records, model costs aside: hardware
    // rings on 1-4 lanes and both mixed-ring fabrics, short and full
    // addressing, gated or not, with and without an interjection
    // storm, every traffic shape that makes the member forward,
    // transmit and receive.
    int i = 0;
    for (int fabric = 0; fabric < 6; ++fabric) {
        for (sweep::TrafficPattern traffic :
             {sweep::TrafficPattern::SingleSender,
              sweep::TrafficPattern::AllToOne,
              sweep::TrafficPattern::BroadcastMix}) {
            for (int variant = 0; variant < 6; ++variant, ++i) {
                MixedCell cell;
                ScenarioSpec &s = cell.spec;
                s.name = "ffa" + std::to_string(i);
                s.backend = fabric < 4 ? backend::BackendKind::Mbus
                            : fabric == 4 ? backend::BackendKind::Bitbang
                                          : backend::BackendKind::Firmware;
                s.dataLanes = fabric < 4 ? fabric + 1 : 1;
                s.nodes = 4 + fabric % 2;
                s.busClockHz = 100e3;
                s.traffic = traffic;
                s.messages = 4;
                s.payloadBytes = 24;
                // Gated, stormy, or both: each keeps a hardware cell
                // on the edge engine.
                s.fullAddressing = variant % 2 == 1;
                s.powerGated = variant / 2 != 1;
                s.interjectRate = variant / 2 != 0 ? 0.6 : 0.0;
                const std::uint64_t seed =
                    0xadd0u + static_cast<std::uint64_t>(i);
                SCOPED_TRACE(s.name + " " +
                             backend::backendKindName(s.backend) +
                             " seed=" + std::to_string(seed));
                ASSERT_FALSE(sweep::messageLevelEligible(s));
                expectAutoMatchesEdge(cell, seed);
            }
        }
    }
}

} // namespace
