/**
 * @file
 * The wedge rule both cell drivers share (workload::TrafficRun): a
 * wedge-guard cut still drains the bus to idle. Simulator::stop() is
 * armed only inside the traffic run, so the idle drain that follows a
 * cut runs to the bus's return to idle -- not to whichever completion
 * happens first -- and the cell reports `wedged`.
 */

#include <gtest/gtest.h>

#include <memory>

#include "backend/backend.hh"
#include "sim/simulator.hh"
#include "sweep/scenario.hh"
#include "workload/workload.hh"

using namespace mbus;

namespace {

TEST(TrafficRun, WedgeGuardCutOfClassicCellDrainsToIdle)
{
    // 64-byte messages take over 1 ms each at 400 kHz: a 1 ms guard
    // cuts the first one mid-flight.
    sweep::ScenarioSpec spec;
    spec.nodes = 3;
    spec.messages = 20;
    spec.payloadBytes = 64;
    spec.fidelity = sweep::Fidelity::Edge;
    spec.timeLimit = sim::kMillisecond;

    sweep::ScenarioStats st = sweep::runScenario(spec, 7);
    EXPECT_TRUE(st.wedged);
    // The drain keeps issuing: every planned message still ends in
    // exactly one counted outcome.
    EXPECT_EQ(st.acked + st.naked + st.broadcasts + st.interrupted +
                  st.rxAborts + st.failed,
              20);
    ASSERT_EQ(st.txLatenciesS.size(), 20u);
    EXPECT_EQ(st.acked, 20);

    // Sends are back to back from t = 0, so the last completion is
    // the messages over the completion rate. The drain ends when the
    // bus returns to idle, one bus cycle (2.5 us) after it.
    double lastCompletionS = 20.0 / st.txPerSecond;
    double pastLastS = sim::toSeconds(st.simTime) - lastCompletionS;
    EXPECT_GT(st.simTime, spec.timeLimit);
    EXPECT_NEAR(pastLastS, 2.54e-6, 0.005e-6);
}

TEST(TrafficRun, WedgeGuardCutOfWorkloadPlanDrainsToIdle)
{
    // runScenario raises a workload cell's guard to cover the mix, so
    // the cut is made through WorkloadEngine::drive directly.
    workload::WorkloadSpec w;
    w.durationS = 0.05;
    workload::ActorSpec sensor;
    sensor.node = 1;
    sensor.dest = 0;
    sensor.periodS = 0.01;
    sensor.payloadBytes = 64;
    w.actors.push_back(sensor);

    workload::WorkloadEngine engine(w, 11, 3);
    ASSERT_FALSE(engine.plan().empty());
    // Cut 0.5 ms into the last sample's transaction: the plan is
    // unfinished at the guard, and its last send completes during
    // the drain.
    sim::SimTime limit = engine.plan().back().at + 500 * sim::kMicrosecond;

    sim::Simulator simulator;
    simulator.seedRng(11);
    backend::BusParams params;
    std::unique_ptr<backend::BusBackend> bus =
        backend::makeBackend(backend::BackendKind::Mbus, simulator, params);
    workload::WorkloadRunStats r = engine.drive(*bus, simulator, limit);

    EXPECT_TRUE(r.wedged);
    EXPECT_EQ(r.acked, r.planned);
    ASSERT_EQ(r.txLatenciesS.size(),
              static_cast<std::size_t>(r.planned));
    EXPECT_GT(r.lastCompletion, limit);
    // The drain ran past that completion to the bus's return to idle:
    // a second drain finds the bus idle and advances no time.
    EXPECT_GT(simulator.now(), r.lastCompletion);
    sim::SimTime end = simulator.now();
    EXPECT_TRUE(bus->runUntilIdle(sim::kSecond));
    EXPECT_EQ(simulator.now(), end);
}

} // namespace
