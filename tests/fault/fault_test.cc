/**
 * @file
 * Unit tests for the physical-layer fault engine and the recovery
 * machinery around it: plan determinism and stream independence, the
 * Net pulse-swallowing primitive, nested stuck-at holds on aliased
 * lanes, brownout Reset semantics, the mediator watchdog reclaiming a
 * hung transmitter (on the hardware and the mixed ring), the I2C bus-jam
 * mapping, the retry/backoff wrapper, and the zero-overhead-when-off
 * guarantee at the scenario level.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "backend/mbus_backend.hh"
#include "fault/fault.hh"
#include "fault/retry.hh"
#include "mbus/layer_controller.hh"
#include "sim/simulator.hh"
#include "sweep/scenario.hh"
#include "tests/record_equality.hh"
#include "wire/net.hh"

using namespace mbus;
using namespace mbus::backend;

namespace {

BusParams
smallParams(int nodes, double clockHz, bool gated = false)
{
    BusParams p;
    p.nodes = nodes;
    p.busClockHz = clockHz;
    p.powerGated = gated;
    return p;
}

bus::Message
smallMsg(BusBackend &b, std::size_t dest)
{
    bus::Message msg;
    msg.dest = b.unicastAddress(dest, /*fullAddressing=*/false,
                                bus::kFuMailbox);
    msg.payload = {1, 2, 3, 4};
    return msg;
}

/** Drive one send to completion; returns the terminal result. */
bus::TxResult
sendAndRun(sim::Simulator &simulator, BusBackend &backend,
           std::size_t from, bus::Message msg)
{
    std::optional<bus::TxResult> result;
    backend.send(from, std::move(msg),
                 [&](const bus::TxResult &r) {
                     result = r;
                     simulator.stop();
                 });
    simulator.run(10 * sim::kSecond);
    EXPECT_TRUE(result.has_value());
    backend.runUntilIdle(sim::kSecond);
    return result.value_or(bus::TxResult{});
}

bool
sameEvent(const fault::FaultEvent &a, const fault::FaultEvent &b)
{
    return a.at == b.at && a.op == b.op && a.node == b.node &&
           a.lane == b.lane && a.level == b.level &&
           a.factor == b.factor && a.pulses == b.pulses &&
           a.stream == b.stream && a.seq == b.seq;
}

fault::FaultSpec
mixedSpec()
{
    fault::FaultSpec fs;
    fs.name = "mixed";
    fault::FaultEntry stuck;
    stuck.kind = fault::FaultKind::StuckAt0;
    stuck.count = 3;
    stuck.endS = 0.01;
    stuck.durationS = 3e-4;
    stuck.jitterFrac = 0.5;
    fs.entries.push_back(stuck);
    fault::FaultEntry glitch;
    glitch.kind = fault::FaultKind::GlitchBurst;
    glitch.count = 2;
    glitch.endS = 0.01;
    glitch.pulses = 3;
    fs.entries.push_back(glitch);
    fault::FaultEntry brown;
    brown.kind = fault::FaultKind::Brownout;
    brown.count = 1;
    brown.endS = 0.01;
    brown.durationS = 5e-4;
    fs.entries.push_back(brown);
    return fs;
}

} // namespace

TEST(FaultPlan, DeterministicSortedAndSeedSensitive)
{
    fault::FaultSpec fs = mixedSpec();
    fault::FaultEngine a(fs, 42, 4);
    fault::FaultEngine b(fs, 42, 4);
    fault::FaultEngine c(fs, 43, 4);

    ASSERT_EQ(a.plan().size(), b.plan().size());
    ASSERT_GT(a.plan().size(), 0u);
    for (std::size_t i = 0; i < a.plan().size(); ++i)
        EXPECT_TRUE(sameEvent(a.plan()[i], b.plan()[i]))
            << "event " << i << " diverged across identical builds";
    for (std::size_t i = 1; i < a.plan().size(); ++i)
        EXPECT_LE(a.plan()[i - 1].at, a.plan()[i].at)
            << "plan not time-sorted at " << i;

    bool differs = a.plan().size() != c.plan().size();
    for (std::size_t i = 0; !differs && i < a.plan().size(); ++i)
        differs = !sameEvent(a.plan()[i], c.plan()[i]);
    EXPECT_TRUE(differs) << "different seeds built identical plans";
}

TEST(FaultPlan, PinnedStreamIsIndependentOfSiblingEntries)
{
    fault::FaultEntry probe;
    probe.kind = fault::FaultKind::GlitchBurst;
    probe.count = 4;
    probe.endS = 0.02;
    probe.stream = 7;

    fault::FaultSpec solo;
    solo.entries = {probe};
    fault::FaultEntry sibling;
    sibling.kind = fault::FaultKind::StuckAt1;
    sibling.count = 5;
    sibling.endS = 0.02;
    sibling.stream = 11;
    fault::FaultSpec crowd;
    crowd.entries = {sibling, probe};

    fault::FaultEngine a(solo, 99, 5);
    fault::FaultEngine b(crowd, 99, 5);
    std::vector<fault::FaultEvent> fromSolo, fromCrowd;
    for (const auto &e : a.plan())
        if (e.stream == 7)
            fromSolo.push_back(e);
    for (const auto &e : b.plan())
        if (e.stream == 7)
            fromCrowd.push_back(e);
    ASSERT_EQ(fromSolo.size(), fromCrowd.size());
    ASSERT_GT(fromSolo.size(), 0u);
    for (std::size_t i = 0; i < fromSolo.size(); ++i)
        EXPECT_TRUE(sameEvent(fromSolo[i], fromCrowd[i]))
            << "pinned stream drew differently beside a sibling";
}

TEST(FaultPlan, MediatorIsNeverATarget)
{
    fault::FaultSpec fs;
    fault::FaultEntry e;
    e.kind = fault::FaultKind::Brownout;
    e.count = 64;
    e.endS = 1.0;
    e.durationS = 1e-3;
    fs.entries = {e};
    fault::FaultEngine engine(fs, 7, 4);
    ASSERT_GT(engine.plan().size(), 0u);
    for (const auto &ev : engine.plan()) {
        EXPECT_GE(ev.node, 1u) << "fault drawn onto the mediator host";
        EXPECT_LT(ev.node, 4u) << "fault drawn outside the ring";
    }
}

TEST(NetFault, DropEdgesSwallowsWholePulses)
{
    sim::Simulator s;
    wire::Net net(s, "n", 10 * sim::kNanosecond, true);
    struct Counter final : wire::EdgeListener
    {
        int count = 0;
        void onNetEdge(wire::Net &, bool) override { ++count; }
    } seen;
    net.listen(wire::Edge::Any, seen);

    net.dropEdges(1);
    net.drive(false); // Swallowed: leading transition never lands...
    s.run();
    EXPECT_TRUE(net.value());
    net.drive(true); // ...and the return edge is a no-op.
    s.run();
    EXPECT_EQ(seen.count, 0);
    EXPECT_EQ(net.dropsPending(), 0u);

    net.drive(false); // The next full pulse flows normally.
    s.run();
    net.drive(true);
    s.run();
    EXPECT_EQ(seen.count, 2);
    EXPECT_TRUE(net.value());
}

/** The two MBus ring fabrics: hardware-only, and the mixed ring
 *  whose last slot is the software member. */
class RingFault : public ::testing::TestWithParam<BackendKind>
{};

std::string
fabricName(const ::testing::TestParamInfo<BackendKind> &info)
{
    return backendKindName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Fabrics, RingFault,
                         ::testing::Values(BackendKind::Mbus,
                                           BackendKind::Bitbang),
                         fabricName);

TEST_P(RingFault, AliasedLanesShareOneHold)
{
    // A single-lane ring has no segment for lane 2: it aliases DATA,
    // so its hold nests with lane 1's on the one segment.
    sim::Simulator simulator;
    MbusBackend b(simulator, smallParams(3, 20e3), GetParam());
    wire::Net &data = b.system().dataSegment(1);
    b.injectWireForce(1, /*lane=*/1, /*level=*/false);
    b.injectWireForce(1, /*lane=*/2, /*level=*/false);
    b.injectWireRelease(1, 2);
    EXPECT_TRUE(data.forced()) << "releasing lane 2 dropped lane 1's hold";
    EXPECT_FALSE(data.value());
    b.injectWireRelease(1, 1);
    EXPECT_FALSE(data.forced());
}

void
checkBrownoutResetsInFlightAndQueuedTransfers(BackendKind fabric)
{
    sim::Simulator simulator;
    auto b = std::make_unique<MbusBackend>(
        simulator, smallParams(4, 400e3, /*gated=*/true), fabric);

    std::vector<bus::TxStatus> outcomes;
    b->send(1, smallMsg(*b, 3), [&](const bus::TxResult &r) {
        outcomes.push_back(r.status);
        if (outcomes.size() == 2)
            simulator.stop();
    });
    b->send(1, smallMsg(*b, 2), [&](const bus::TxResult &r) {
        outcomes.push_back(r.status);
        if (outcomes.size() == 2)
            simulator.stop();
    });
    // Power-cut node 1 mid-first-transfer: both its active and its
    // queued transfer must terminate with TxStatus::Reset.
    simulator.schedule(sim::fromSeconds(50e-6),
                       [&] { b->brownout(1); });
    simulator.schedule(sim::fromSeconds(2e-3),
                       [&] { b->brownoutRecover(1); });
    simulator.run(5 * sim::kSecond);
    ASSERT_EQ(outcomes.size(), 2u) << "a transfer never terminated";
    EXPECT_EQ(outcomes[0], bus::TxStatus::Reset);
    EXPECT_EQ(outcomes[1], bus::TxStatus::Reset);

    // The ring (and the recovered node) must still carry traffic.
    bus::TxResult r = sendAndRun(simulator, *b, 1, smallMsg(*b, 3));
    EXPECT_EQ(r.status, bus::TxStatus::Ack);

    // The software member is no brownout target: its queued send
    // rides through untouched.
    if (b->softMember()) {
        b->send(b->softIndex(), smallMsg(*b, 1), nullptr);
        b->brownout(b->softIndex());
        EXPECT_EQ(b->pendingTx(b->softIndex()), 1u);
    }
}

void
checkWatchdogReclaimsHungTransmitter(BackendKind fabric)
{
    sim::Simulator simulator;
    auto b = std::make_unique<MbusBackend>(
        simulator, smallParams(4, 400e3), fabric);
    b->armWatchdog(16);

    // Break the CLK ring between node 1 and node 2 before sending:
    // node 2's transmitter can never see a clock, so without the
    // watchdog its transfer would hang forever.
    b->injectWireForce(1, /*lane=*/0, /*level=*/false);
    std::optional<bus::TxResult> result;
    b->send(2, smallMsg(*b, 3),
            [&](const bus::TxResult &r) {
                result = r;
                simulator.stop();
            });
    simulator.schedule(sim::fromSeconds(5e-3),
                       [&] { b->injectWireRelease(1, 0); });
    simulator.run(5 * sim::kSecond);
    ASSERT_TRUE(result.has_value())
        << "watchdog failed to reclaim the hung transfer";
    EXPECT_GT(b->busResets(), 0u);

    // The reclaimed bus must still carry traffic end to end.
    b->runUntilIdle(sim::kSecond);
    bus::TxResult r = sendAndRun(simulator, *b, 1, smallMsg(*b, 3));
    EXPECT_EQ(r.status, bus::TxStatus::Ack);
}

// MbusFault runs on the hardware-only ring; MixedRingFault repeats the
// same checks on the ring whose last slot is the software member.
TEST(MbusFault, BrownoutResetsInFlightAndQueuedTransfers)
{
    checkBrownoutResetsInFlightAndQueuedTransfers(BackendKind::Mbus);
}

TEST(MbusFault, WatchdogReclaimsHungTransmitter)
{
    checkWatchdogReclaimsHungTransmitter(BackendKind::Mbus);
}

TEST(MixedRingFault, BrownoutResetsInFlightAndQueuedTransfers)
{
    checkBrownoutResetsInFlightAndQueuedTransfers(BackendKind::Bitbang);
}

TEST(MixedRingFault, WatchdogReclaimsHungTransmitter)
{
    checkWatchdogReclaimsHungTransmitter(BackendKind::Bitbang);
}

TEST(I2cFault, StuckBusKillsActiveTransferAndStallsQueue)
{
    sim::Simulator simulator;
    auto b = makeBackend(BackendKind::I2cStd, simulator,
                         smallParams(3, 400e3));

    std::vector<bus::TxStatus> outcomes;
    b->send(1, smallMsg(*b, 2), [&](const bus::TxResult &r) {
        outcomes.push_back(r.status);
        if (outcomes.size() == 2)
            simulator.stop();
    });
    b->send(2, smallMsg(*b, 0), [&](const bus::TxResult &r) {
        outcomes.push_back(r.status);
        if (outcomes.size() == 2)
            simulator.stop();
    });
    // Jam SDA mid-first-transfer; the second transfer must wait out
    // the jam and then complete normally.
    simulator.schedule(sim::fromSeconds(20e-6),
                       [&] { b->injectWireForce(1, 1, false); });
    simulator.schedule(sim::fromSeconds(1e-3),
                       [&] { b->injectWireRelease(1, 1); });
    simulator.run(5 * sim::kSecond);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0], bus::TxStatus::Reset);
    EXPECT_EQ(outcomes[1], bus::TxStatus::Ack);
    EXPECT_GT(b->busResets(), 0u);
}

TEST(RetryPolicy, RecoversAnInterruptedSend)
{
    sim::Simulator simulator;
    auto b = makeBackend(BackendKind::Mbus, simulator,
                         smallParams(4, 400e3));

    fault::RetryPolicy policy;
    policy.maxRetries = 2;
    policy.backoffEpochs = 8;
    fault::RetryStats stats;

    bus::Message msg = smallMsg(*b, 3);
    msg.payload.assign(16, 0xA5); // Long enough to interject.
    std::optional<bus::TxResult> result;
    fault::sendWithRetry(*b, simulator, 1, msg, policy, stats,
                         [&](const bus::TxResult &r) {
                             result = r;
                             simulator.stop();
                         });
    // A third party cuts the first attempt mid-payload.
    simulator.schedule(sim::fromSeconds(250e-6),
                       [&] { b->interject(2); });
    simulator.run(5 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.recoveredTx, 1);
    EXPECT_EQ(stats.abandonedTx, 0);
    ASSERT_EQ(stats.recoveryS.size(), 1u);
    EXPECT_GT(stats.recoveryS[0], 0.0);
}

TEST(RetryPolicy, AbandonsAfterExhaustingRetries)
{
    sim::Simulator simulator;
    auto b = makeBackend(BackendKind::I2cStd, simulator,
                         smallParams(3, 400e3));

    fault::RetryPolicy policy;
    policy.maxRetries = 2;
    policy.backoffEpochs = 4;
    fault::RetryStats stats;

    // A permanently browned-out destination NAKs every attempt.
    b->brownout(2);
    std::optional<bus::TxResult> result;
    fault::sendWithRetry(*b, simulator, 1, smallMsg(*b, 2), policy,
                         stats,
                         [&](const bus::TxResult &r) {
                             result = r;
                             simulator.stop();
                         });
    simulator.run(5 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Nak);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.recoveredTx, 0);
    EXPECT_EQ(stats.abandonedTx, 1);
}

TEST(ScenarioFault, FaultAxisOffIsByteIdenticalToDefault)
{
    sweep::ScenarioSpec base;
    base.name = "zero_overhead";
    base.nodes = 4;
    base.messages = 6;
    base.traffic = sweep::TrafficPattern::RandomPairs;
    base.captureVcd = true;

    // Recovery knobs without an armed schedule or a positive retry
    // budget must leave every byte of the run untouched.
    sweep::ScenarioSpec tweaked = base;
    tweaked.faults.watchdog = false;
    tweaked.faults.watchdogEpochs = 17;
    tweaked.retry.backoffEpochs = 99;
    tweaked.retry.multiplier = 7.0;

    sweep::ScenarioStats a = sweep::runScenario(base, 0xF00D);
    sweep::ScenarioStats b = sweep::runScenario(tweaked, 0xF00D);
    ASSERT_GT(a.vcdBytes, 0u);
    EXPECT_TRUE(test::sameRecord(a, b));
    EXPECT_EQ(a.faultEvents, 0);
    EXPECT_EQ(a.busResets, 0u);
    EXPECT_EQ(a.retries, 0u);
}

TEST(ScenarioFault, FaultyCellTerminatesWithAccountedOutcomes)
{
    sweep::ScenarioSpec spec;
    spec.name = "faulty";
    spec.nodes = 4;
    spec.messages = 12;
    spec.traffic = sweep::TrafficPattern::RandomPairs;
    spec.faults = mixedSpec();
    fault::FaultEntry drift;
    drift.kind = fault::FaultKind::ClockDrift;
    drift.count = 1;
    drift.endS = 0.01;
    drift.durationS = 2e-3;
    drift.driftFrac = 0.05;
    spec.faults.entries.push_back(drift);
    // Compress every window into the first ~1.5 ms so the schedule
    // lands inside the active traffic (a 12-message run is a few ms;
    // events drawn past idle-down would never fire).
    for (auto &e : spec.faults.entries)
        e.endS = 1.5e-3;
    spec.retry.maxRetries = 2;

    sweep::ScenarioStats st = sweep::runScenario(spec, 0xBADF00D);
    EXPECT_FALSE(st.wedged);
    EXPECT_GT(st.faultEvents, 0);
    // Every planned transaction reached exactly one terminal status.
    EXPECT_EQ(st.planned, st.acked + st.naked + st.broadcasts +
                              st.interrupted + st.rxAborts + st.failed);
}
