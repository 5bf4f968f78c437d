/**
 * @file
 * The one record-equality rule of the replay and A/B tests: two
 * ScenarioStats records are equal when sweep::encodeStats gives them
 * the same bytes. The encoding walks the codec's tripwired field list
 * (sweep::fields in sweep/codec.hh), so a field added to the record
 * joins every comparison on its own. Replays exclude nothing; A/B
 * tests across models or kernel switches exclude the model costs;
 * trace on/off tests exclude the trace payload. A failure names the
 * first codec leaf that differs (the encodeStats token after the
 * version tag, counted from 0) and both values.
 */

#ifndef MBUS_TESTS_RECORD_EQUALITY_HH
#define MBUS_TESTS_RECORD_EQUALITY_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "sweep/codec.hh"

namespace mbus {
namespace test {

/** The fields a comparison leaves out. */
enum class Except : std::uint8_t {
    Nothing,      ///< Replays: same spec and seed, N threads or solo.
    ModelCosts,   ///< Message level vs edge, trains, chunking, skips.
    TracePayload, ///< Trace on vs off.
};

/**
 * Clear @p except's fields in @p s. The model costs are what the
 * simulator spent (kernel events, trains, listener calls, slab
 * occupancy) and the model that spent it; the trace payload is what
 * the tracer recorded and the counts read off its events.
 */
inline void
clear(sweep::ScenarioStats &s, Except except)
{
    if (except == Except::ModelCosts) {
        s.eventsExecuted = s.trainEdges = s.trainsScheduled = 0;
        s.dispatchCalls = s.slabSlots = s.liveHighWater = 0;
        s.heapCallbacks = 0;
        s.eventsPerBit = 0;
        s.fidelity = {};
    } else if (except == Except::TracePayload) {
        s.traceEvents = s.traceHash = s.watchdogRescues = 0;
        s.arbLosses = s.interjectRequests = 0;
        s.traceJson.clear();
        s.flightDumps.clear();
    }
}

/** Whether @p a and @p b encode alike once @p except's fields are
 *  cleared in both: `EXPECT_TRUE(sameRecord(a, b, Except::...))`. */
inline ::testing::AssertionResult
sameRecord(sweep::ScenarioStats a, sweep::ScenarioStats b,
           Except except = Except::Nothing)
{
    clear(a, except);
    clear(b, except);
    const std::string x = sweep::encodeStats(a);
    const std::string y = sweep::encodeStats(b);
    if (x == y)
        return ::testing::AssertionSuccess();
    // No token holds a '|', so the first differing byte sits in the
    // first differing leaf, which starts at the same offset in both.
    std::size_t at = 0;
    while (at < x.size() && at < y.size() && x[at] == y[at])
        ++at;
    const std::size_t start = x.rfind('|', at - 1) + 1;
    auto leaf = [start](const std::string &bytes) {
        std::string t = bytes.substr(start, bytes.find('|', start) - start);
        return t.size() > 96 ? t.substr(0, 96) + "... (" +
                                   std::to_string(t.size()) + " bytes)"
                             : t;
    };
    return ::testing::AssertionFailure()
           << "records differ at codec leaf "
           << std::count(x.begin(), x.begin() + start, '|') - 1 << ": '"
           << leaf(x) << "' vs '" << leaf(y) << "'";
}

} // namespace test
} // namespace mbus

#endif // MBUS_TESTS_RECORD_EQUALITY_HH
