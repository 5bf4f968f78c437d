/**
 * @file
 * Seeded-random fuzzing of the MBus protocol layer.
 *
 * Three properties, each over hundreds of randomized iterations:
 *
 *  1. Liveness: whatever the mix of TX lengths, priorities, and
 *     third-party interjection storms, every issued transaction ends
 *     in exactly one terminal status and no node wedges -- the bus
 *     always returns to idle and stays usable.
 *  2. Fairness: under rotating priority (Sec 7), sustained contention
 *     spreads arbitration wins across all members.
 *  3. Replayability: any iteration can be re-run from its seed with
 *     identical outcome counts (how a failing seed is debugged).
 *
 * Everything is driven through the scenario engine so a failing
 * iteration prints a (spec, seed) pair that replays solo.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mbus/system.hh"
#include "sim/random.hh"
#include "sweep/scenario.hh"
#include "tests/mbus/testutil.hh"
#include "tests/record_equality.hh"

using namespace mbus;

namespace {

/** Draw a random scenario; draws happen in one fixed order. */
sweep::ScenarioSpec
fuzzSpec(sim::Random &rng)
{
    sweep::ScenarioSpec s;
    s.nodes = static_cast<int>(rng.between(2, 8));
    s.payloadBytes = rng.below(65); // 0..64 bytes.
    s.messages = static_cast<int>(rng.between(1, 3));
    s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
    s.fullAddressing = rng.chance(0.25);
    s.powerGated = rng.chance(0.25);
    s.priorityRate = rng.uniform() * 0.8;
    s.interjectRate = rng.uniform() * 0.8; // Storm-heavy mix.
    s.busClockHz = rng.chance(0.2) ? 1e6 : 400e3;
    return s;
}

} // namespace

TEST(ProtocolFuzz, NoTransactionEverWedges)
{
    sim::Random master(0xF0220001ULL);
    const int kIterations = 520;
    for (int it = 0; it < kIterations; ++it) {
        std::uint64_t cellSeed = master.split(
            static_cast<std::uint64_t>(it)).next();
        sim::Random specRng(cellSeed);
        sweep::ScenarioSpec spec = fuzzSpec(specRng);
        sweep::ScenarioStats st = sweep::runScenario(spec, cellSeed);

        SCOPED_TRACE("iteration " + std::to_string(it) + " seed " +
                     std::to_string(cellSeed) + " nodes " +
                     std::to_string(spec.nodes) + " payload " +
                     std::to_string(spec.payloadBytes) + " traffic " +
                     sweep::trafficPatternName(spec.traffic));

        // Liveness: the run finished and the bus returned to idle.
        ASSERT_FALSE(st.wedged);
        // Every planned transaction reached exactly one terminal
        // status (ACK / NAK / broadcast / interject-resolved / error).
        EXPECT_EQ(st.acked + st.naked + st.broadcasts +
                      st.interrupted + st.rxAborts + st.failed,
                  st.planned);
        // Nothing that completed un-interjected may be corrupt.
        EXPECT_EQ(st.payloadMismatches, 0u);
    }
}

TEST(ProtocolFuzz, IterationsReplayIdenticallyFromTheirSeed)
{
    sim::Random master(0xF0220002ULL);
    for (int it = 0; it < 32; ++it) {
        std::uint64_t cellSeed = master.split(
            static_cast<std::uint64_t>(it)).next();
        sim::Random specRng(cellSeed);
        sweep::ScenarioSpec spec = fuzzSpec(specRng);
        spec.captureVcd = true;
        sweep::ScenarioStats a = sweep::runScenario(spec, cellSeed);
        sweep::ScenarioStats b = sweep::runScenario(spec, cellSeed);
        SCOPED_TRACE("iteration " + std::to_string(it));
        EXPECT_TRUE(test::sameRecord(a, b));
    }
}

TEST(ProtocolFuzz, RotatingPrioritySpreadsWinsUnderContention)
{
    // Sustained all-member contention with the Sec 7 rotating
    // arbitration break: over R rounds, wins must spread across
    // every member instead of pinning to the topological head.
    sim::Simulator simulator;
    bus::SystemConfig cfg;
    cfg.useNodeArbBreak = true;
    bus::MBusSystem system(simulator, cfg);
    test::buildRing(system, 5);
    system.enableRotatingPriority();

    const int kRounds = 24;
    std::map<std::size_t, int> firstCompletions;
    for (int round = 0; round < kRounds; ++round) {
        int pendingCallbacks = 0;
        bool sawFirst = false;
        for (std::size_t sender = 1; sender <= 4; ++sender) {
            bus::Message msg;
            // Everyone targets the mediator host (node 0).
            msg.dest = bus::Address::shortAddr(1, bus::kFuMailbox);
            msg.payload = {static_cast<std::uint8_t>(round),
                           static_cast<std::uint8_t>(sender)};
            ++pendingCallbacks;
            system.node(sender).send(
                msg, [&, sender](const bus::TxResult &r) {
                    ASSERT_EQ(r.status, bus::TxStatus::Ack);
                    if (!sawFirst) {
                        sawFirst = true;
                        ++firstCompletions[sender];
                    }
                    if (--pendingCallbacks == 0)
                        simulator.stop();
                });
        }
        simulator.run(10 * sim::kSecond);
        ASSERT_EQ(pendingCallbacks, 0)
            << "contention round " << round << " wedged";
        ASSERT_TRUE(system.runUntilIdle(sim::kSecond));
    }

    // Fairness: every member won some round; nobody monopolized.
    int minWins = kRounds, maxWins = 0;
    for (std::size_t sender = 1; sender <= 4; ++sender) {
        int w = firstCompletions[sender];
        minWins = std::min(minWins, w);
        maxWins = std::max(maxWins, w);
    }
    EXPECT_GE(minWins, 1)
        << "a member never won arbitration across " << kRounds
        << " contention rounds";
    EXPECT_LE(maxWins - minWins, kRounds / 2)
        << "arbitration wins overly concentrated";
}

TEST(ProtocolFuzz, BusSurvivesRandomInterjectionStormsAndStaysUsable)
{
    sim::Random master(0xF0220003ULL);
    for (int it = 0; it < 40; ++it) {
        std::uint64_t seed = master.split(
            static_cast<std::uint64_t>(it)).next();
        sim::Random rng(seed);

        sim::Simulator simulator;
        bus::MBusSystem system(simulator, {});
        int nodes = static_cast<int>(rng.between(3, 6));
        test::buildRing(system, nodes);

        // A long transfer with a storm of randomly timed third-party
        // interjections raining on it.
        int done = 0;
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(
            static_cast<std::uint8_t>(nodes), bus::kFuMailbox);
        msg.payload = test::randomPayload(rng, 48);
        system.node(1).send(msg, [&](const bus::TxResult &) {
            if (++done == 1)
                simulator.stop();
        });
        int storms = static_cast<int>(rng.between(1, 6));
        for (int sIdx = 0; sIdx < storms; ++sIdx) {
            auto when = static_cast<sim::SimTime>(
                rng.between(1, 2000)) * sim::kMicrosecond;
            std::size_t who = rng.below(
                static_cast<std::uint64_t>(nodes));
            simulator.schedule(when, [&system, who] {
                system.node(who).interject();
            });
        }
        simulator.run(10 * sim::kSecond);
        ASSERT_EQ(done, 1)
            << "storm iteration " << it << " wedged the sender";
        ASSERT_TRUE(system.runUntilIdle(sim::kSecond))
            << "storm iteration " << it << " left the bus busy";
        // Let any storm events still in the queue fire on the idle
        // bus (harmless no-ops) before probing usability.
        simulator.run(5 * sim::kMillisecond);

        // The bus must still be usable afterwards.
        auto r = system.sendAndWait(1, msg, sim::kSecond);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, bus::TxStatus::Ack);
        ASSERT_TRUE(system.runUntilIdle(sim::kSecond));
    }
}
