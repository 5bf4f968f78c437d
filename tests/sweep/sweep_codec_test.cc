/**
 * @file
 * Unit tests for the canonical spec/stats codec, the record-equality
 * rule's exclusion sets (tests/record_equality.hh), the
 * content-addressed cell cache's key and store, and the
 * runRange/fromCells merge contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/hash.hh"
#include "sweep/cache.hh"
#include "sweep/codec.hh"
#include "sweep/sweep.hh"
#include "tests/record_equality.hh"
#include "tests/temp_dir.hh"

using namespace mbus;

namespace {

/** A spec exercising every codec subtree. */
sweep::ScenarioSpec
richSpec()
{
    sweep::ScenarioSpec s;
    s.name = "rich|cell %100\tweird";
    s.nodes = 7;
    s.busClockHz = 1.23456789e6;
    s.hopDelayNs = 11.5;
    s.dataLanes = 2;
    s.powerGated = true;
    s.fullAddressing = true;
    s.traffic = sweep::TrafficPattern::BroadcastMix;
    s.messages = 17;
    s.payloadBytes = 33;
    s.priorityRate = 0.125;
    s.interjectRate = 0.0625;
    s.captureVcd = true;
    s.edgeTrains = false;
    s.backend = backend::BackendKind::Firmware;
    s.fidelity = sweep::Fidelity::Edge;

    workload::ActorSpec a;
    a.name = "sensor|odd";
    a.kind = workload::ActorKind::BurstImager;
    a.node = 2;
    a.dest = 1;
    a.periodS = 0.1;
    a.jitterFrac = 0.3;
    a.payloadBytes = 16;
    a.burstBytes = 256;
    a.deadlineS = 0.05;
    a.priority = true;
    a.startS = 0.7;
    a.dutyCycled = false;
    a.retry.maxRetries = 3;
    a.retry.backoffEpochs = 4;
    s.workload.name = "mix%1";
    s.workload.durationS = 2.5;
    s.workload.actors.push_back(a);

    workload::ScheduleSpec sched;
    sched.kind = workload::ScheduleKind::InterjectionStorm;
    sched.node = 3;
    sched.atS = 0.5;
    sched.durationS = 0.25;
    sched.rateHz = 40.0;
    s.workload.schedules.push_back(sched);

    fault::FaultEntry fe;
    fe.kind = fault::FaultKind::GlitchBurst;
    fe.node = 4;
    fe.lane = 1;
    fe.startS = 0.01;
    fe.endS = 0.9;
    fe.count = 3;
    fe.durationS = 2e-4;
    fe.jitterFrac = 0.2;
    fe.driftFrac = 0.07;
    fe.pulses = 5;
    fe.stream = 9;
    s.faults.name = "storm";
    s.faults.watchdog = true;
    s.faults.watchdogEpochs = 48;
    s.faults.entries.push_back(fe);

    s.retry.maxRetries = 2;
    s.retry.backoffEpochs = 8;
    s.retry.multiplier = 1.5;

    s.trace.protocol = true;
    s.trace.flight = true;
    s.trace.flightDepth = 128;
    return s;
}

/** A stats record with every vector populated and awkward values. */
sweep::ScenarioStats
richStats()
{
    sweep::ScenarioStats st;
    st.planned = 9;
    st.acked = 7;
    st.naked = 1;
    st.failed = 1;
    st.bytesDelivered = 1234567890123ULL;
    st.wedged = true;
    st.txPerSecond = 0.1; // Not exactly representable: must survive.
    st.goodputBps = 1.0 / 3.0;
    st.eventsPerBit = 1e-300;
    st.switchingJ = 6.02214076e23;
    st.avgTxLatencyS = -0.0;
    st.txLatenciesS = {1e-9, 0.25, 0.3333333333333333};
    st.eventsExecuted = ~0ULL;
    st.simTime = 123456789;
    st.perNodeEdges = {1, 2, 3, 4};
    workload::ActorStats as;
    as.name = "imager|2";
    as.kind = workload::ActorKind::ControlPlane;
    as.acked = 5;
    as.sampleLatenciesS = {0.5, 0.75};
    st.actorStats.push_back(as);
    st.vcd = "$date\n today |%| $end\n";
    st.vcdBytes = st.vcd.size();
    st.vcdHash = sim::fnv1a(st.vcd);
    st.traceJson = "{\"evs\": []}";
    st.traceHash = sim::fnv1a(st.traceJson);
    st.flightDumps = {"dump one\nline2", "dump|two"};
    st.watchdogRescues = 3;
    st.arbLosses = 5;
    st.interjectRequests = ~0ULL;
    st.fidelity = sweep::Fidelity::Message;
    return st;
}

/** A tiny, fast grid for the merge-contract tests. */
std::vector<sweep::ScenarioSpec>
tinyGrid(std::size_t cells)
{
    std::vector<sweep::ScenarioSpec> grid;
    for (std::size_t i = 0; i < cells; ++i) {
        sweep::ScenarioSpec s;
        s.name = "tiny" + std::to_string(i);
        s.nodes = 3 + static_cast<int>(i % 3);
        s.messages = 2;
        s.payloadBytes = 1 + i % 4;
        s.traffic = static_cast<sweep::TrafficPattern>(i % 4);
        grid.push_back(std::move(s));
    }
    return grid;
}

std::string
csvOf(const sweep::SweepResult &r)
{
    std::ostringstream os;
    r.writeCsv(os);
    return os.str();
}

/**
 * Walks one record's fields() tree leaf by leaf (a vector's length is
 * a leaf of its own). At leaf @p target it records the value as text
 * and, when @p perturb is set, first changes it.
 */
class Leaves
{
  public:
    explicit Leaves(std::size_t target = SIZE_MAX, bool perturb = false)
        : target_(target), perturb_(perturb)
    {
    }

    template <class T>
    void
    operator()(T &v)
    {
        if constexpr (std::is_class_v<T> &&
                      !std::is_same_v<T, std::string>) {
            sweep::fields(*this, v);
        } else if (n_++ == target_) {
            if (perturb_)
                bump(v);
            shown_ = show(v);
        }
    }

    template <class T>
    void
    operator()(sweep::Capped<T> c)
    {
        if (n_++ == target_) {
            if (perturb_)
                c.items.emplace_back();
            shown_ = std::to_string(c.items.size());
        }
        for (T &item : c.items)
            (*this)(item);
    }

    std::size_t count() const { return n_; }
    const std::string &shown() const { return shown_; }

  private:
    template <class T>
    static void
    bump(T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            v += "|%x";
        } else if constexpr (std::is_same_v<T, bool>) {
            v = !v;
        } else if constexpr (std::is_same_v<T, double>) {
            v = std::nextafter(v, HUGE_VAL);
        } else if constexpr (std::is_enum_v<T>) {
            // Step toward 0 so Fidelity stays a value its record allows.
            auto u = static_cast<std::underlying_type_t<T>>(v);
            v = static_cast<T>(u ? u - 1 : u + 1);
        } else {
            ++v;
        }
    }

    template <class T>
    static std::string
    show(const T &v)
    {
        if constexpr (std::is_same_v<T, std::string>) {
            return v;
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            return std::to_string(bits);
        } else if constexpr (std::is_enum_v<T>) {
            return std::to_string(static_cast<unsigned>(v));
        } else {
            return std::to_string(v);
        }
    }

    std::size_t target_;
    bool perturb_;
    std::size_t n_ = 0;
    std::string shown_;
};

/** Perturb each leaf of @p base in turn: the encoding must change and
 *  decoding it must restore the perturbed value. */
template <class R, class Decode>
void
expectEveryLeafRoundTrips(const R &base,
                          std::string (*encode)(const R &), Decode decode)
{
    R probe = base;
    Leaves all;
    all(probe);
    ASSERT_GT(all.count(), 0u);
    const std::string baseBytes = encode(base);
    for (std::size_t k = 0; k < all.count(); ++k) {
        R changed = base;
        Leaves bumped(k, /*perturb=*/true);
        bumped(changed);
        std::string bytes = encode(changed);
        EXPECT_NE(bytes, baseBytes) << "leaf " << k << " is not encoded";
        R back;
        ASSERT_TRUE(decode(bytes, back)) << "leaf " << k;
        Leaves shown(k);
        shown(back);
        EXPECT_EQ(shown.shown(), bumped.shown())
            << "leaf " << k << " is not decoded";
    }
}

/** The address of every field one fields() call names directly. */
struct Members
{
    std::vector<std::uintptr_t> seen;

    template <class T>
    void
    operator()(T &v)
    {
        seen.push_back(reinterpret_cast<std::uintptr_t>(&v));
    }

    template <class T>
    void
    operator()(sweep::Capped<T> c)
    {
        seen.push_back(reinterpret_cast<std::uintptr_t>(&c.items));
    }
};

/** fields() names as many distinct members of @p R as it has. */
template <class R>
void
expectEveryMemberListedOnce()
{
    R r{};
    Members m;
    sweep::fields(m, r);
    std::set<std::uintptr_t> distinct(m.seen.begin(), m.seen.end());
    EXPECT_EQ(distinct.size(), m.seen.size()) << "a member is listed twice";
    EXPECT_EQ(m.seen.size(), sweep::memberCount<R>(0));
    auto first = reinterpret_cast<std::uintptr_t>(&r);
    for (std::uintptr_t a : m.seen)
        EXPECT_TRUE(a >= first && a < first + sizeof r) << "not a member";
}

/** @p bytes with '|'-token @p index replaced by @p token. */
std::string
withToken(const std::string &bytes, std::size_t index,
          const std::string &token)
{
    std::vector<std::string> tokens{""};
    for (char c : bytes) {
        if (c == '|')
            tokens.emplace_back();
        else
            tokens.back() += c;
    }
    tokens.at(index) = token;
    std::string out;
    for (std::size_t i = 0; i < tokens.size(); ++i)
        out += (i ? "|" : "") + tokens[i];
    return out;
}

/** Index of the first token equal to @p token. */
std::size_t
tokenIndex(const std::string &bytes, const std::string &token)
{
    std::size_t index = 0, start = 0;
    for (;;) {
        std::size_t bar = bytes.find('|', start);
        if (bytes.compare(start, bar - start, token) == 0)
            return index;
        if (bar == std::string::npos)
            return SIZE_MAX;
        start = bar + 1;
        ++index;
    }
}
} // namespace

TEST(SweepCodec, EscapeTokenRoundTrips)
{
    std::string raw;
    for (int c = 0; c < 256; ++c)
        raw += static_cast<char>(c);
    raw += "pipe|percent%newline\n done";
    std::string tok = sweep::escapeToken(raw);
    EXPECT_EQ(tok.find('|'), std::string::npos);
    EXPECT_EQ(tok.find('\n'), std::string::npos);
    EXPECT_EQ(tok.find(' '), std::string::npos);
    EXPECT_EQ(sweep::unescapeToken(tok), raw);
    EXPECT_EQ(sweep::unescapeToken(sweep::escapeToken("")), "");
}

TEST(SweepCodec, SpecRoundTripsEveryField)
{
    sweep::ScenarioSpec spec = richSpec();
    std::string bytes = sweep::encodeSpec(spec);
    sweep::ScenarioSpec back;
    ASSERT_TRUE(sweep::decodeSpec(bytes, back));
    // Canonical form: identical content iff identical bytes.
    EXPECT_EQ(sweep::encodeSpec(back), bytes);
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.workload.actors.size(), 1u);
    EXPECT_EQ(back.workload.actors[0].name, "sensor|odd");
    EXPECT_EQ(back.workload.actors[0].retry.maxRetries, 3);
    EXPECT_EQ(back.faults.entries.size(), 1u);
    EXPECT_EQ(back.faults.entries[0].pulses, 5);
    EXPECT_EQ(back.trace.flightDepth, 128u);
    EXPECT_DOUBLE_EQ(back.busClockHz, spec.busClockHz);
    EXPECT_EQ(back.fidelity, sweep::Fidelity::Edge);

    // The field is part of the canonical bytes (and so of cache keys);
    // Message is an outcome, never a request.
    sweep::ScenarioSpec autoSpec = spec;
    autoSpec.fidelity = sweep::Fidelity::Auto;
    EXPECT_NE(sweep::encodeSpec(autoSpec), bytes);
    sweep::ScenarioSpec message = spec;
    message.fidelity = sweep::Fidelity::Message;
    EXPECT_FALSE(sweep::decodeSpec(sweep::encodeSpec(message), back));
}

TEST(SweepCodec, SpecEncodingIsCanonical)
{
    // Two default specs encode identically; any field change changes
    // the bytes (spot-checked on a few axes the cache keys off).
    sweep::ScenarioSpec a, b;
    EXPECT_EQ(sweep::encodeSpec(a), sweep::encodeSpec(b));
    b.payloadBytes = 5;
    EXPECT_NE(sweep::encodeSpec(a), sweep::encodeSpec(b));
    b = a;
    b.trace.flightDepth = 99;
    EXPECT_NE(sweep::encodeSpec(a), sweep::encodeSpec(b));
}

TEST(SweepCodec, SpecRejectsMalformedInput)
{
    sweep::ScenarioSpec out;
    EXPECT_FALSE(sweep::decodeSpec("", out));
    EXPECT_FALSE(sweep::decodeSpec("nonsense", out));
    EXPECT_FALSE(sweep::decodeSpec("spec999|x", out));
    std::string good = sweep::encodeSpec(sweep::ScenarioSpec());
    EXPECT_FALSE(
        sweep::decodeSpec(good.substr(0, good.size() / 2), out));
    EXPECT_FALSE(sweep::decodeSpec(good + "|trailing", out));
    EXPECT_TRUE(sweep::decodeSpec(good, out));
}

TEST(SweepCodec, StatsRoundTripExactlyIncludingDoubles)
{
    sweep::ScenarioStats st = richStats();
    std::string bytes = sweep::encodeStats(st);
    sweep::ScenarioStats back;
    ASSERT_TRUE(sweep::decodeStats(bytes, back));
    EXPECT_EQ(sweep::encodeStats(back), bytes);
    EXPECT_EQ(back.txPerSecond, 0.1);
    EXPECT_EQ(back.goodputBps, 1.0 / 3.0);
    EXPECT_EQ(back.eventsPerBit, 1e-300);
    EXPECT_TRUE(std::signbit(back.avgTxLatencyS));
    EXPECT_EQ(back.txLatenciesS, st.txLatenciesS);
    EXPECT_EQ(back.vcd, st.vcd);
    EXPECT_EQ(back.flightDumps, st.flightDumps);
    EXPECT_EQ(back.fidelity, sweep::Fidelity::Message);
    EXPECT_EQ(back.watchdogRescues, 3u);
    EXPECT_EQ(back.arbLosses, 5u);
    EXPECT_EQ(back.interjectRequests, ~0ULL);
    ASSERT_EQ(back.actorStats.size(), 1u);
    EXPECT_EQ(back.actorStats[0].sampleLatenciesS,
              st.actorStats[0].sampleLatenciesS);

    sweep::ScenarioStats junk;
    EXPECT_FALSE(sweep::decodeStats("stat1|broken", junk));
    EXPECT_FALSE(sweep::decodeStats("", junk));
}

TEST(SweepCodec, FieldListsNameEveryMemberOnce)
{
    expectEveryMemberListedOnce<sweep::ScenarioSpec>();
    expectEveryMemberListedOnce<sweep::ScenarioStats>();
    expectEveryMemberListedOnce<workload::WorkloadSpec>();
    expectEveryMemberListedOnce<workload::ActorSpec>();
    expectEveryMemberListedOnce<workload::ScheduleSpec>();
    expectEveryMemberListedOnce<workload::ActorStats>();
    expectEveryMemberListedOnce<fault::FaultSpec>();
    expectEveryMemberListedOnce<fault::FaultEntry>();
    expectEveryMemberListedOnce<fault::RetryPolicy>();
    expectEveryMemberListedOnce<trace::TraceConfig>();
    expectEveryMemberListedOnce<workload::TrafficCounts>();
}

TEST(SweepCodec, EveryVisitedFieldRoundTrips)
{
    expectEveryLeafRoundTrips<sweep::ScenarioSpec>(
        richSpec(), &sweep::encodeSpec,
        [](const std::string &b, sweep::ScenarioSpec &out) {
            return sweep::decodeSpec(b, out);
        });
    expectEveryLeafRoundTrips<sweep::ScenarioStats>(
        richStats(), &sweep::encodeStats,
        [](const std::string &b, sweep::ScenarioStats &out) {
            return sweep::decodeStats(b, out);
        });
}

TEST(SweepCodec, RecordEqualityIgnoresExactlyItsExclusionSets)
{
    // Perturb each leaf of a rich record in turn: the whole-record
    // comparison sees every one and names it, and each exclusion set
    // ignores exactly the leaves of the fields it declares.
    auto costs = [](const sweep::ScenarioStats &s) {
        return std::tie(s.eventsExecuted, s.eventsPerBit, s.trainEdges,
                        s.trainsScheduled, s.dispatchCalls, s.slabSlots,
                        s.liveHighWater, s.heapCallbacks, s.fidelity);
    };
    auto trace = [](const sweep::ScenarioStats &s) {
        return std::tie(s.traceEvents, s.traceHash, s.traceJson,
                        s.flightDumps, s.watchdogRescues, s.arbLosses,
                        s.interjectRequests);
    };
    const sweep::ScenarioStats base = richStats();
    sweep::ScenarioStats probe = base;
    Leaves all;
    all(probe);
    std::size_t costLeaves = 0, traceLeaves = 0;
    for (std::size_t k = 0; k < all.count(); ++k) {
        SCOPED_TRACE("leaf " + std::to_string(k));
        sweep::ScenarioStats changed = base;
        Leaves bumped(k, /*perturb=*/true);
        bumped(changed);
        const bool inCosts = costs(changed) != costs(base);
        const bool inTrace = trace(changed) != trace(base);
        costLeaves += inCosts;
        traceLeaves += inTrace;

        ::testing::AssertionResult whole = test::sameRecord(base, changed);
        EXPECT_FALSE(whole);
        EXPECT_NE(std::string(whole.message())
                      .find("leaf " + std::to_string(k) + ":"),
                  std::string::npos)
            << whole.message();
        EXPECT_EQ(static_cast<bool>(test::sameRecord(
                      base, changed, test::Except::ModelCosts)),
                  inCosts);
        EXPECT_EQ(static_cast<bool>(test::sameRecord(
                      base, changed, test::Except::TracePayload)),
                  inTrace);
    }
    // One leaf per cost field; the two flight dumps and their count
    // add two leaves to the seven trace fields.
    EXPECT_EQ(costLeaves, 9u);
    EXPECT_EQ(traceLeaves, 9u);
}

TEST(SweepCodec, TokensThatDoNotFitTheirFieldAreRejected)
{
    // Spec: name at token 1, nodes (int) at 2, traffic (uint8_t enum)
    // at 10. A fitting token decodes; a wider one used to wrap.
    sweep::ScenarioSpec spec;
    spec.name = "probe";
    const std::string good = sweep::encodeSpec(spec);
    ASSERT_EQ(tokenIndex(good, "probe"), 1u);
    sweep::ScenarioSpec out = richSpec();
    const std::string before = sweep::encodeSpec(out);
    ASSERT_TRUE(sweep::decodeSpec(withToken(good, 2, "5"), out));
    EXPECT_EQ(out.nodes, 5);
    ASSERT_TRUE(sweep::decodeSpec(withToken(good, 10, "2"), out));
    EXPECT_EQ(out.traffic, sweep::TrafficPattern::AllToOne);
    out = richSpec();
    EXPECT_FALSE(sweep::decodeSpec(withToken(good, 2, "4294967299"), out));
    EXPECT_FALSE(sweep::decodeSpec(withToken(good, 10, "258"), out));
    EXPECT_FALSE(sweep::decodeSpec(withToken(good, 8, "2"), out)); // bool
    EXPECT_FALSE(sweep::decodeSpec(withToken(good, 2, "-"), out));
    EXPECT_EQ(sweep::encodeSpec(out), before) << "out was touched";

    // Stats: an actor's kind (uint8_t enum) follows its name.
    sweep::ScenarioStats st = richStats();
    st.actorStats[0].name = "kind_probe";
    const std::string stats = sweep::encodeStats(st);
    const std::size_t kind = tokenIndex(stats, "kind_probe") + 1;
    sweep::ScenarioStats back = richStats();
    const std::string backBefore = sweep::encodeStats(back);
    EXPECT_FALSE(sweep::decodeStats(withToken(stats, kind, "300"), back));
    EXPECT_EQ(sweep::encodeStats(back), backBefore) << "out was touched";
    ASSERT_TRUE(sweep::decodeStats(withToken(stats, kind, "1"), back));
    EXPECT_EQ(back.actorStats[0].kind, workload::ActorKind::BurstImager);
}

TEST(SweepCache, KeySaltHitMissAndCorruption)
{
    test::TempDir tmp;
    const std::string dir = tmp.dir();

    std::string specBytes =
        sweep::encodeSpec(sweep::ScenarioSpec());
    EXPECT_NE(sweep::cellKey(specBytes, 1), sweep::cellKey(specBytes, 2));
    EXPECT_NE(sweep::cellKey(specBytes, 1, 10),
              sweep::cellKey(specBytes, 1, 11));

    sweep::CellCache cache(dir);
    sweep::ScenarioStats st;
    st.acked = 3;
    std::string payload = sweep::encodeStats(st);
    std::uint64_t key = cache.key(specBytes, 7);

    sweep::ScenarioStats got;
    EXPECT_FALSE(cache.lookup(key, got));
    EXPECT_TRUE(cache.store(key, payload));
    ASSERT_TRUE(cache.lookup(key, got));
    EXPECT_EQ(sweep::encodeStats(got), payload);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);

    // A different salt resolves to a different file: cold again.
    sweep::CellCache bumped(dir, sweep::kHarnessVersionSalt + 1);
    EXPECT_FALSE(bumped.lookup(bumped.key(specBytes, 7), got));

    // Corruption is a miss, never a wrong answer.
    {
        std::ofstream f(cache.pathFor(key),
                        std::ios::binary | std::ios::trunc);
        f << "stat1|torn";
    }
    EXPECT_FALSE(cache.lookup(key, got));

    // Disabled cache: everything misses, stores drop.
    sweep::CellCache off{std::string()};
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.store(key, payload));
    EXPECT_FALSE(off.lookup(key, got));
}

TEST(SweepMerge, RunRangeConcatenationMatchesRun)
{
    std::vector<sweep::ScenarioSpec> grid = tinyGrid(7);
    sweep::SweepConfig cfg;
    cfg.threads = 1;
    sweep::SweepDriver driver(cfg);

    sweep::SweepResult whole = driver.run(grid);

    // Three uneven disjoint ranges, concatenated out of order.
    std::vector<sweep::CellResult> cells;
    for (auto range : {std::pair<std::size_t, std::size_t>{5, 2},
                       {0, 3},
                       {3, 2}}) {
        sweep::SweepResult part =
            driver.runRange(grid, range.first, range.second);
        ASSERT_EQ(part.size(), range.second);
        for (const sweep::CellResult &c : part.cells())
            cells.push_back(c);
    }
    sweep::SweepResult merged =
        sweep::SweepResult::fromCells(cfg, std::move(cells));

    EXPECT_EQ(csvOf(merged), csvOf(whole));
    EXPECT_EQ(merged.fingerprint(), whole.fingerprint());

    // Global indexing: cell 5 replayed solo matches the sweep's.
    sweep::SweepResult solo5 = driver.runRange(grid, 5, 1);
    EXPECT_EQ(solo5.cell(0).seed, whole.cell(5).seed);
    EXPECT_EQ(sweep::encodeStats(solo5.cell(0).stats),
              sweep::encodeStats(whole.cell(5).stats));

    // Range clamping.
    EXPECT_EQ(driver.runRange(grid, 5, 100).size(), 2u);
    EXPECT_EQ(driver.runRange(grid, 100, 3).size(), 0u);
}

TEST(SweepMerge, StatsCodecRoundTripsRealSimulation)
{
    // Real simulated stats (traced, faulted) survive the codec
    // byte-exactly -- the property cache hits and fromCells merges
    // ride on.
    sweep::ScenarioSpec s;
    s.name = "real";
    s.nodes = 4;
    s.messages = 3;
    s.captureVcd = true;
    s.trace.protocol = true;
    fault::FaultEntry fe;
    fe.kind = fault::FaultKind::GlitchBurst;
    fe.endS = 1e-3;
    s.faults.entries.push_back(fe);
    s.retry.maxRetries = 1;

    sweep::ScenarioStats st = sweep::runScenario(s, 0x5eedULL);
    std::string bytes = sweep::encodeStats(st);
    sweep::ScenarioStats back;
    ASSERT_TRUE(sweep::decodeStats(bytes, back));
    EXPECT_EQ(sweep::encodeStats(back), bytes);
    EXPECT_EQ(back.vcd, st.vcd);
    EXPECT_EQ(back.traceJson, st.traceJson);
    EXPECT_EQ(back.eventsExecuted, st.eventsExecuted);
}
