/**
 * @file
 * Unit tests for the Tracer (span lifecycle, flight-recorder ring,
 * auto-trip dumps, Chrome export shape, integer timestamp
 * formatting).
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hh"
#include "trace/trace.hh"

using namespace mbus;

namespace {

trace::TraceConfig
fullConfig(std::uint32_t depth = 256)
{
    trace::TraceConfig c;
    c.protocol = true;
    c.flight = true;
    c.flightDepth = depth;
    return c;
}

} // namespace

TEST(TraceFormat, MicrosecondsArePureIntegerArithmetic)
{
    // ps -> "us.%06u": no doubles anywhere near the export path.
    EXPECT_EQ(trace::formatMicros(0), "0.000000");
    EXPECT_EQ(trace::formatMicros(1), "0.000001");
    EXPECT_EQ(trace::formatMicros(1234567), "1.234567");
    EXPECT_EQ(trace::formatMicros(12345678901234ULL),
              "12345678.901234");
}

TEST(TraceFormat, EventKindNamesAreStable)
{
    EXPECT_STREQ(trace::eventKindName(trace::EventKind::TxBegin),
                 "tx_begin");
    EXPECT_STREQ(
        trace::eventKindName(trace::EventKind::WatchdogRescue),
        "watchdog_rescue");
    EXPECT_STREQ(trace::eventKindName(trace::EventKind::WedgeGuard),
                 "wedge_guard");
}

TEST(Tracer, SpanLifecycleAllocatesIdsInBeginOrder)
{
    sim::Simulator s;
    trace::Tracer t(s, fullConfig(), 3);

    std::uint32_t id1 = t.beginTx(1, /*dest=*/42, /*bytes=*/8);
    std::uint32_t id2 = t.beginTx(2, 7, 4);
    EXPECT_EQ(id1, 1u);
    EXPECT_EQ(id2, 2u);
    t.record(trace::EventKind::ArbWin, 1);
    t.endTx(1, /*status=*/0, 8);
    t.endTx(2, 0, 4);

    EXPECT_EQ(t.recorded(), 5u);
    EXPECT_EQ(t.countOf(trace::EventKind::TxBegin), 2u);
    EXPECT_EQ(t.countOf(trace::EventKind::TxEnd), 2u);
    EXPECT_EQ(t.countOf(trace::EventKind::ArbWin), 1u);
    ASSERT_EQ(t.events().size(), 5u);
    // The point event is attributed to node 1's open transaction.
    EXPECT_EQ(t.events()[2].tx, id1);
}

TEST(Tracer, EndWithoutOpenSpanIsANoOp)
{
    sim::Simulator s;
    trace::Tracer t(s, fullConfig(), 2);
    t.endTx(0, 0);
    t.endTx(1, -1);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, ReBeginImplicitlyClosesTheStaleSpan)
{
    // A brownout can eat the end marker; the next begin closes the
    // orphan with status -1 so spans always pair up in the export.
    sim::Simulator s;
    trace::Tracer t(s, fullConfig(), 2);
    t.beginTx(1, 10, 2);
    t.beginTx(1, 11, 3);
    ASSERT_EQ(t.events().size(), 3u);
    EXPECT_EQ(t.events()[1].kind, trace::EventKind::TxEnd);
    EXPECT_EQ(t.events()[1].tx, 1u);
    EXPECT_EQ(t.events()[1].a, -1);
    EXPECT_EQ(t.events()[2].tx, 2u);
}

TEST(Tracer, FlightDumpNamesOpenTransactionsBeyondRingDepth)
{
    // The ring keeps only the last 4 events, but the open-span table
    // is persistent: the dump must still name a transaction whose
    // begin was evicted long ago -- that's the whole point of the
    // flight recorder ("which transaction was stalled?").
    sim::Simulator s;
    trace::TraceConfig cfg;
    cfg.flight = true;
    cfg.flightDepth = 4;
    trace::Tracer t(s, cfg, 3);

    t.beginTx(2, 99, 16);
    for (int i = 0; i < 10; ++i)
        t.record(trace::EventKind::Delivery, 0, i);
    t.trip("unit-test");

    ASSERT_EQ(t.dumps().size(), 1u);
    const std::string &d = t.dumps()[0];
    EXPECT_NE(d.find("unit-test"), std::string::npos);
    EXPECT_NE(d.find("node 2 tx#1 dest=99"), std::string::npos);
    EXPECT_NE(d.find("last 4 events"), std::string::npos);
    // Protocol mode is off: nothing retained outside the ring.
    EXPECT_TRUE(t.events().empty());
    EXPECT_EQ(t.recorded(), 11u);
}

TEST(Tracer, WatchdogRescueAndWedgeGuardAutoTrip)
{
    sim::Simulator s;
    trace::Tracer t(s, fullConfig(), 2);
    t.beginTx(1, 5, 1);
    t.record(trace::EventKind::WatchdogRescue, 0, 1);
    ASSERT_EQ(t.dumps().size(), 1u);
    EXPECT_NE(t.dumps()[0].find("watchdog-rescue"),
              std::string::npos);
    EXPECT_NE(t.dumps()[0].find("node 1 tx#1"), std::string::npos);

    t.record(trace::EventKind::WedgeGuard, 0);
    ASSERT_EQ(t.dumps().size(), 2u);
    EXPECT_NE(t.dumps()[1].find("wedge-guard"), std::string::npos);
}

TEST(Tracer, ChromeJsonHasMetadataSpansAndInstants)
{
    sim::Simulator s;
    trace::Tracer t(s, fullConfig(), 2);
    t.beginTx(1, 42, 8);
    t.record(trace::EventKind::AddrPhase, 1, 42, 8);
    t.record(trace::EventKind::DataPhase, 1, 0xAB);
    t.record(trace::EventKind::ArbWin, 1);
    t.endTx(1, 0, 8);
    std::string json = t.chromeJson();

    // Perfetto-loadable shape: metadata names the process and both
    // node tracks, the transaction becomes a complete span, phases
    // become sub-spans, point events become instants.
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"node 0 (mediator)\""), std::string::npos);
    EXPECT_NE(json.find("\"node 1\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"tx#1\""), std::string::npos);
    EXPECT_NE(json.find("\"addr\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"arb_win\""), std::string::npos);
    // Identical input -> identical bytes.
    EXPECT_EQ(json, t.chromeJson());
}

TEST(Tracer, ChromeJsonClosesHangingSpansAtTheLastTimestamp)
{
    // A wedged cell never records TxEnd; the export must still emit
    // a well-formed complete event for the hanging span.
    sim::Simulator s;
    trace::Tracer t(s, fullConfig(), 2);
    t.beginTx(1, 3, 2);
    t.record(trace::EventKind::Delivery, 0, 1);
    std::string json = t.chromeJson();
    EXPECT_NE(json.find("\"tx#1\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": -1"), std::string::npos);
}
