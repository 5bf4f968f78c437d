/**
 * @file
 * Canonical, byte-stable serialization of sweep cells, driven by one
 * field list per record.
 *
 * Every record a cell is made of -- ScenarioSpec with its workload,
 * fault, retry and trace subtrees, and ScenarioStats with its traffic
 * census and per-actor stats -- has exactly one fields(v, record)
 * below. It hands each member, in the fixed codec order, to the
 * visitor @p v; a sub-record (a nested struct or a base class) goes
 * whole and is visited through its own list; a vector goes as
 * capped(items, cap), cap being the longest count a decoder accepts
 * from disk. codec.cc's writer and reader visit that one list to make
 *
 *  - encodeSpec()/decodeSpec(): the canonical form of a ScenarioSpec.
 *    Two specs encode to identical bytes iff they describe identical
 *    cells, which is exactly what the content-addressed cell cache
 *    hashes (sweep/cache.hh: FNV-1a over spec bytes + seed + salt);
 *  - encodeStats()/decodeStats(): a complete round-trip of a
 *    ScenarioStats record, so a cell served from the cache yields the
 *    same CSV/JSON/fingerprint bytes as a freshly simulated one.
 *
 * Tripwire: members() static_asserts that a list names as many fields
 * as its record has members (memberCount(), a brace-init probe), so a
 * member added to a struct but not to its fields() fails to compile.
 * SweepCodec.FieldListsNameEveryMemberOnce and
 * EveryVisitedFieldRoundTrips check that each member is named once
 * and survives encode and decode. To add a field, add it to the
 * struct and to its fields() list; nothing else changes.
 *
 * Framing: '|'-separated tokens. Strings are percent-escaped so a
 * token never contains '|', '%', whitespace, or control bytes;
 * integers and enums are decimal, bools 0/1, and doubles use the
 * 17-digit round-trip sim::formatDouble. Both encodings carry a
 * leading version tag ("spec1" / "stat1"); decoders reject anything
 * else, which lets a harness-version bump invalidate stale cache
 * entries safely. They also reject a token that does not fit its
 * field's type, so a decoded record re-encodes to the same bytes.
 */

#ifndef MBUS_SWEEP_CODEC_HH
#define MBUS_SWEEP_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sweep/scenario.hh"

namespace mbus {
namespace sweep {

/** Percent-escape @p raw so it is one framing-safe token (no '|',
 *  '%', whitespace, or bytes outside printable ASCII). */
std::string escapeToken(std::string_view raw);

/** Invert escapeToken(). Invalid escapes decode as-is. */
std::string unescapeToken(std::string_view token);

/** Canonical serialization of every ScenarioSpec field. */
std::string encodeSpec(const ScenarioSpec &spec);

/** Parse encodeSpec() bytes. @return false (and leave @p out
 *  untouched) on version mismatch or malformed input. */
bool decodeSpec(const std::string &bytes, ScenarioSpec &out);

/** Complete serialization of a ScenarioStats record. */
std::string encodeStats(const ScenarioStats &stats);

/** Parse encodeStats() bytes. @return false (and leave @p out
 *  untouched) on version mismatch or malformed input. */
bool decodeStats(const std::string &bytes, ScenarioStats &out);

// --- The field lists -------------------------------------------------

/** Converts to any member type: the brace-init probe's argument. */
struct AnyField
{
    template <class T> operator T() const;
};

/** The member count of aggregate @p R: the most AnyField arguments
 *  `R{...}` accepts. Call as memberCount<R>(0). */
template <class R, class... F>
constexpr std::size_t
memberCount(long)
{
    return sizeof...(F);
}

template <class R, class... F>
constexpr auto
memberCount(int) -> decltype(R{F{}..., AnyField{}}, std::size_t())
{
    return memberCount<R, F..., AnyField>(0);
}

/** A vector field and the longest count its decoder accepts. */
template <class T>
struct Capped
{
    std::vector<T> &items;
    std::uint64_t cap;
};

template <class T>
Capped<T>
capped(std::vector<T> &items, std::uint64_t cap)
{
    return {items, cap};
}

/** Decode caps: safety limits on counts read from disk. */
constexpr std::uint64_t kMaxEntries = 4096;       ///< Records, dumps.
constexpr std::uint64_t kMaxSamples = 1ULL << 26; ///< Numeric vectors.

/**
 * Hand @p v each field @p f of a record of type @p R, in order. The
 * tripwire: a list that names fewer or more fields than @p R has
 * members fails to compile.
 */
template <class V, class R, class... F>
void
members(V &v, const R &, F &&...f)
{
    static_assert(sizeof...(F) == memberCount<R>(0),
                  "fields() must name every member of its record once");
    (v(std::forward<F>(f)), ...);
}

template <class V>
void
fields(V &v, fault::RetryPolicy &r)
{
    members(v, r, r.maxRetries, r.backoffEpochs, r.multiplier);
}

template <class V>
void
fields(V &v, workload::ActorSpec &a)
{
    members(v, a, a.name, a.kind, a.node, a.dest, a.periodS, a.jitterFrac,
            a.payloadBytes, a.burstBytes, a.deadlineS, a.priority, a.startS,
            a.dutyCycled, a.stream, a.retry);
}

template <class V>
void
fields(V &v, workload::ScheduleSpec &s)
{
    members(v, s, s.kind, s.node, s.atS, s.durationS, s.rateHz, s.clockHz);
}

template <class V>
void
fields(V &v, workload::WorkloadSpec &w)
{
    members(v, w, w.name, w.durationS, capped(w.actors, kMaxEntries),
            capped(w.schedules, kMaxEntries));
}

template <class V>
void
fields(V &v, fault::FaultEntry &e)
{
    members(v, e, e.kind, e.node, e.lane, e.startS, e.endS, e.count,
            e.durationS, e.jitterFrac, e.driftFrac, e.pulses, e.stream);
}

template <class V>
void
fields(V &v, fault::FaultSpec &f)
{
    members(v, f, f.name, f.watchdog, f.watchdogEpochs,
            capped(f.entries, kMaxEntries));
}

template <class V>
void
fields(V &v, trace::TraceConfig &t)
{
    members(v, t, t.protocol, t.flight, t.flightDepth);
}

template <class V>
void
fields(V &v, ScenarioSpec &s)
{
    members(v, s, s.name, s.nodes, s.busClockHz, s.hopDelayNs, s.wireLengthMm,
            s.wireCapFPerMm, s.dataLanes, s.powerGated, s.fullAddressing,
            s.traffic, s.messages, s.payloadBytes, s.priorityRate,
            s.interjectRate, s.timeLimit, s.captureVcd, s.edgeTrains,
            s.chunkedDispatch, s.softRxCapacity, s.backend, s.workload,
            s.faults, s.retry, s.trace, s.fidelity);
}

template <class V>
void
fields(V &v, workload::ActorStats &a)
{
    members(v, a, a.name, a.kind, a.node, a.dest, a.planned, a.issued,
            a.droppedOffline, a.acked, a.otherTerminal, a.samplesPlanned,
            a.samplesDelivered, a.missedDeadlines, a.bytesIssued,
            a.bytesDelivered, a.latencyP50S, a.latencyP95S, a.latencyP99S,
            capped(a.sampleLatenciesS, kMaxSamples), a.energyPerSampleJ,
            a.dutyCycle);
}

template <class V>
void
fields(V &v, workload::TrafficCounts &t)
{
    members(v, t, t.planned, t.acked, t.naked, t.broadcasts, t.interrupted,
            t.rxAborts, t.failed, t.bytesDelivered, t.payloadMismatches,
            t.arbitrationRetries, t.missedDeadlines, t.samplesPlanned,
            t.samplesDelivered, t.stormInterjections, t.gateWindows,
            t.faultsInjected, t.faultsRecovered, t.retimings, t.txResets,
            t.retries, t.recoveredTx, t.abandonedTx, t.deliveredOk,
            t.deliveredInterrupted, t.deliveredOverflow, t.firstTxLatencyS,
            t.wedged);
}

/** The census goes first, as one sub-record (a base class counts as
 *  one member of the brace-init probe). */
template <class V>
void
fields(V &v, ScenarioStats &s)
{
    members(v, s, static_cast<workload::TrafficCounts &>(s), s.txPerSecond,
            s.goodputBps, s.eventsPerBit, s.switchingJ, s.leakageJ,
            s.avgTxLatencyS, s.avgCyclesPerTx, s.energyPerSampleJ,
            s.lifetimeDays, s.latencyP50S, s.latencyP95S, s.latencyP99S,
            capped(s.txLatenciesS, kMaxSamples), s.eventsExecuted,
            s.clockCycles, s.trainEdges, s.trainsScheduled, s.dispatchCalls,
            s.simTime, capped(s.perNodeEdges, kMaxSamples),
            capped(s.actorStats, kMaxEntries), s.faultEvents, s.busResets,
            s.recoveryP50S, s.recoveryP95S, s.recoveryP99S, s.vcdBytes,
            s.vcdHash, s.vcd, s.slabSlots, s.liveHighWater, s.heapCallbacks,
            s.traceEvents, s.traceHash, s.traceJson,
            capped(s.flightDumps, kMaxEntries), s.watchdogRescues,
            s.arbLosses, s.interjectRequests, s.fidelity);
}

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_CODEC_HH
