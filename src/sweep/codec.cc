#include "sweep/codec.hh"

#include <cstdlib>
#include <vector>

#include "sim/fsio.hh"

namespace mbus {
namespace sweep {

namespace {

const char *kHex = "0123456789ABCDEF";

bool
tokenSafe(char c)
{
    return c > 0x20 && c < 0x7f && c != '%' && c != '|';
}

/** Append-only token writer over the '|' framing. */
class Writer
{
  public:
    void
    str(const std::string &v)
    {
        sep();
        out_ += escapeToken(v);
    }

    void
    u64(std::uint64_t v)
    {
        sep();
        out_ += std::to_string(v);
    }

    void
    i64(std::int64_t v)
    {
        sep();
        out_ += std::to_string(v);
    }

    void
    dbl(double v)
    {
        sep();
        out_ += sim::formatDouble(v);
    }

    void b(bool v) { u64(v ? 1 : 0); }

    const std::string &bytes() const { return out_; }

  private:
    void
    sep()
    {
        if (!out_.empty())
            out_ += '|';
    }

    std::string out_;
};

/** Sequential token reader; any malformed token poisons ok(). */
class Reader
{
  public:
    explicit Reader(const std::string &bytes)
    {
        std::size_t start = 0;
        for (std::size_t i = 0; i <= bytes.size(); ++i) {
            if (i == bytes.size() || bytes[i] == '|') {
                tokens_.push_back(bytes.substr(start, i - start));
                start = i + 1;
            }
        }
    }

    std::string
    str()
    {
        return unescapeToken(next());
    }

    std::uint64_t
    u64()
    {
        const std::string t = next();
        if (t.empty() || t.find_first_not_of("0123456789") !=
                             std::string::npos) {
            ok_ = false;
            return 0;
        }
        return std::strtoull(t.c_str(), nullptr, 10);
    }

    std::int64_t
    i64()
    {
        std::string t = next();
        bool neg = !t.empty() && t[0] == '-';
        std::string digits = neg ? t.substr(1) : t;
        if (digits.empty() || digits.find_first_not_of("0123456789") !=
                                  std::string::npos) {
            ok_ = false;
            return 0;
        }
        return std::strtoll(t.c_str(), nullptr, 10);
    }

    double
    dbl()
    {
        const std::string t = next();
        if (t.empty()) {
            ok_ = false;
            return 0;
        }
        char *end = nullptr;
        double v = std::strtod(t.c_str(), &end);
        if (end != t.c_str() + t.size())
            ok_ = false;
        return v;
    }

    bool
    b()
    {
        return u64() != 0;
    }

    bool ok() const { return ok_ && cursor_ == tokens_.size(); }
    bool okSoFar() const { return ok_; }

  private:
    std::string
    next()
    {
        if (cursor_ >= tokens_.size()) {
            ok_ = false;
            return {};
        }
        return tokens_[cursor_++];
    }

    std::vector<std::string> tokens_;
    std::size_t cursor_ = 0;
    bool ok_ = true;
};

// --- Sub-record encoders (fixed field order; see header) ------------

void
putRetry(Writer &w, const fault::RetryPolicy &r)
{
    w.i64(r.maxRetries);
    w.dbl(r.backoffEpochs);
    w.dbl(r.multiplier);
}

void
getRetry(Reader &r, fault::RetryPolicy &out)
{
    out.maxRetries = static_cast<int>(r.i64());
    out.backoffEpochs = r.dbl();
    out.multiplier = r.dbl();
}

void
putWorkload(Writer &w, const workload::WorkloadSpec &ws)
{
    w.str(ws.name);
    w.dbl(ws.durationS);
    w.u64(ws.actors.size());
    for (const workload::ActorSpec &a : ws.actors) {
        w.str(a.name);
        w.u64(static_cast<std::uint64_t>(a.kind));
        w.i64(a.node);
        w.i64(a.dest);
        w.dbl(a.periodS);
        w.dbl(a.jitterFrac);
        w.u64(a.payloadBytes);
        w.u64(a.burstBytes);
        w.dbl(a.deadlineS);
        w.b(a.priority);
        w.dbl(a.startS);
        w.b(a.dutyCycled);
        w.i64(a.stream);
        putRetry(w, a.retry);
    }
    w.u64(ws.schedules.size());
    for (const workload::ScheduleSpec &s : ws.schedules) {
        w.u64(static_cast<std::uint64_t>(s.kind));
        w.i64(s.node);
        w.dbl(s.atS);
        w.dbl(s.durationS);
        w.dbl(s.rateHz);
        w.dbl(s.clockHz);
    }
}

bool
getWorkload(Reader &r, workload::WorkloadSpec &out)
{
    out.name = r.str();
    out.durationS = r.dbl();
    std::uint64_t actors = r.u64();
    if (!r.okSoFar() || actors > 4096)
        return false;
    out.actors.resize(actors);
    for (workload::ActorSpec &a : out.actors) {
        a.name = r.str();
        a.kind = static_cast<workload::ActorKind>(r.u64());
        a.node = static_cast<int>(r.i64());
        a.dest = static_cast<int>(r.i64());
        a.periodS = r.dbl();
        a.jitterFrac = r.dbl();
        a.payloadBytes = r.u64();
        a.burstBytes = r.u64();
        a.deadlineS = r.dbl();
        a.priority = r.b();
        a.startS = r.dbl();
        a.dutyCycled = r.b();
        a.stream = static_cast<int>(r.i64());
        getRetry(r, a.retry);
    }
    std::uint64_t schedules = r.u64();
    if (!r.okSoFar() || schedules > 4096)
        return false;
    out.schedules.resize(schedules);
    for (workload::ScheduleSpec &s : out.schedules) {
        s.kind = static_cast<workload::ScheduleKind>(r.u64());
        s.node = static_cast<int>(r.i64());
        s.atS = r.dbl();
        s.durationS = r.dbl();
        s.rateHz = r.dbl();
        s.clockHz = r.dbl();
    }
    return r.okSoFar();
}

void
putFaults(Writer &w, const fault::FaultSpec &fs)
{
    w.str(fs.name);
    w.b(fs.watchdog);
    w.i64(fs.watchdogEpochs);
    w.u64(fs.entries.size());
    for (const fault::FaultEntry &e : fs.entries) {
        w.u64(static_cast<std::uint64_t>(e.kind));
        w.i64(e.node);
        w.i64(e.lane);
        w.dbl(e.startS);
        w.dbl(e.endS);
        w.i64(e.count);
        w.dbl(e.durationS);
        w.dbl(e.jitterFrac);
        w.dbl(e.driftFrac);
        w.i64(e.pulses);
        w.i64(e.stream);
    }
}

bool
getFaults(Reader &r, fault::FaultSpec &out)
{
    out.name = r.str();
    out.watchdog = r.b();
    out.watchdogEpochs = static_cast<int>(r.i64());
    std::uint64_t entries = r.u64();
    if (!r.okSoFar() || entries > 4096)
        return false;
    out.entries.resize(entries);
    for (fault::FaultEntry &e : out.entries) {
        e.kind = static_cast<fault::FaultKind>(r.u64());
        e.node = static_cast<int>(r.i64());
        e.lane = static_cast<int>(r.i64());
        e.startS = r.dbl();
        e.endS = r.dbl();
        e.count = static_cast<int>(r.i64());
        e.durationS = r.dbl();
        e.jitterFrac = r.dbl();
        e.driftFrac = r.dbl();
        e.pulses = static_cast<int>(r.i64());
        e.stream = static_cast<int>(r.i64());
    }
    return r.okSoFar();
}

void
putDoubles(Writer &w, const std::vector<double> &v)
{
    w.u64(v.size());
    for (double d : v)
        w.dbl(d);
}

bool
getDoubles(Reader &r, std::vector<double> &out)
{
    std::uint64_t n = r.u64();
    if (!r.okSoFar() || n > (1ULL << 26))
        return false;
    out.resize(n);
    for (double &d : out)
        d = r.dbl();
    return r.okSoFar();
}

void
putU64s(Writer &w, const std::vector<std::uint64_t> &v)
{
    w.u64(v.size());
    for (std::uint64_t u : v)
        w.u64(u);
}

bool
getU64s(Reader &r, std::vector<std::uint64_t> &out)
{
    std::uint64_t n = r.u64();
    if (!r.okSoFar() || n > (1ULL << 26))
        return false;
    out.resize(n);
    for (std::uint64_t &u : out)
        u = r.u64();
    return r.okSoFar();
}

} // namespace

std::string
escapeToken(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        if (tokenSafe(c)) {
            out += c;
        } else {
            unsigned char u = static_cast<unsigned char>(c);
            out += '%';
            out += kHex[u >> 4];
            out += kHex[u & 0xf];
        }
    }
    return out;
}

std::string
unescapeToken(const std::string &token)
{
    auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'A' && c <= 'F')
            return 10 + (c - 'A');
        if (c >= 'a' && c <= 'f')
            return 10 + (c - 'a');
        return -1;
    };
    std::string out;
    out.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
        if (token[i] == '%' && i + 2 < token.size() &&
            hex(token[i + 1]) >= 0 && hex(token[i + 2]) >= 0) {
            out += static_cast<char>(16 * hex(token[i + 1]) +
                                     hex(token[i + 2]));
            i += 2;
        } else {
            out += token[i];
        }
    }
    return out;
}

std::string
encodeSpec(const ScenarioSpec &spec)
{
    Writer w;
    w.str("spec1");
    w.str(spec.name);
    w.i64(spec.nodes);
    w.dbl(spec.busClockHz);
    w.dbl(spec.hopDelayNs);
    w.dbl(spec.wireLengthMm);
    w.dbl(spec.wireCapFPerMm);
    w.i64(spec.dataLanes);
    w.b(spec.powerGated);
    w.b(spec.fullAddressing);
    w.u64(static_cast<std::uint64_t>(spec.traffic));
    w.i64(spec.messages);
    w.u64(spec.payloadBytes);
    w.dbl(spec.priorityRate);
    w.dbl(spec.interjectRate);
    w.u64(spec.timeLimit);
    w.b(spec.captureVcd);
    w.b(spec.edgeTrains);
    w.b(spec.chunkedDispatch);
    w.u64(spec.softRxCapacity);
    w.u64(static_cast<std::uint64_t>(spec.backend));
    putWorkload(w, spec.workload);
    putFaults(w, spec.faults);
    putRetry(w, spec.retry);
    w.b(spec.trace.protocol);
    w.b(spec.trace.flight);
    w.u64(spec.trace.flightDepth);
    w.u64(static_cast<std::uint64_t>(spec.fidelity));
    return w.bytes();
}

bool
decodeSpec(const std::string &bytes, ScenarioSpec &out)
{
    Reader r(bytes);
    if (r.str() != "spec1")
        return false;
    ScenarioSpec s;
    s.name = r.str();
    s.nodes = static_cast<int>(r.i64());
    s.busClockHz = r.dbl();
    s.hopDelayNs = r.dbl();
    s.wireLengthMm = r.dbl();
    s.wireCapFPerMm = r.dbl();
    s.dataLanes = static_cast<int>(r.i64());
    s.powerGated = r.b();
    s.fullAddressing = r.b();
    s.traffic = static_cast<TrafficPattern>(r.u64());
    s.messages = static_cast<int>(r.i64());
    s.payloadBytes = r.u64();
    s.priorityRate = r.dbl();
    s.interjectRate = r.dbl();
    s.timeLimit = r.u64();
    s.captureVcd = r.b();
    s.edgeTrains = r.b();
    s.chunkedDispatch = r.b();
    s.softRxCapacity = r.u64();
    s.backend = static_cast<backend::BackendKind>(r.u64());
    if (!getWorkload(r, s.workload) || !getFaults(r, s.faults))
        return false;
    getRetry(r, s.retry);
    s.trace.protocol = r.b();
    s.trace.flight = r.b();
    s.trace.flightDepth = static_cast<std::uint32_t>(r.u64());
    // A spec asks for Auto or Edge; Message is only ever an outcome.
    std::uint64_t fidelity = r.u64();
    s.fidelity = static_cast<Fidelity>(fidelity);
    if (!r.ok() || fidelity > static_cast<std::uint64_t>(Fidelity::Edge))
        return false;
    out = std::move(s);
    return true;
}

std::string
encodeStats(const ScenarioStats &st)
{
    Writer w;
    w.str("stat1");
    w.i64(st.planned);
    w.i64(st.acked);
    w.i64(st.naked);
    w.i64(st.broadcasts);
    w.i64(st.interrupted);
    w.i64(st.rxAborts);
    w.i64(st.failed);
    w.u64(st.bytesDelivered);
    w.u64(st.payloadMismatches);
    w.b(st.wedged);
    w.dbl(st.txPerSecond);
    w.dbl(st.goodputBps);
    w.dbl(st.eventsPerBit);
    w.dbl(st.switchingJ);
    w.dbl(st.leakageJ);
    w.dbl(st.avgTxLatencyS);
    w.dbl(st.firstTxLatencyS);
    w.dbl(st.avgCyclesPerTx);
    w.dbl(st.energyPerSampleJ);
    w.dbl(st.lifetimeDays);
    w.dbl(st.latencyP50S);
    w.dbl(st.latencyP95S);
    w.dbl(st.latencyP99S);
    putDoubles(w, st.txLatenciesS);
    w.u64(st.eventsExecuted);
    w.u64(st.clockCycles);
    w.u64(st.arbitrationRetries);
    w.u64(st.trainEdges);
    w.u64(st.trainsScheduled);
    w.u64(st.dispatchCalls);
    w.u64(st.simTime);
    putU64s(w, st.perNodeEdges);
    w.u64(st.actorStats.size());
    for (const workload::ActorStats &a : st.actorStats) {
        w.str(a.name);
        w.u64(static_cast<std::uint64_t>(a.kind));
        w.i64(a.node);
        w.i64(a.dest);
        w.i64(a.planned);
        w.i64(a.issued);
        w.i64(a.droppedOffline);
        w.i64(a.acked);
        w.i64(a.otherTerminal);
        w.i64(a.samplesPlanned);
        w.i64(a.samplesDelivered);
        w.i64(a.missedDeadlines);
        w.u64(a.bytesIssued);
        w.u64(a.bytesDelivered);
        w.dbl(a.latencyP50S);
        w.dbl(a.latencyP95S);
        w.dbl(a.latencyP99S);
        putDoubles(w, a.sampleLatenciesS);
        w.dbl(a.energyPerSampleJ);
        w.dbl(a.dutyCycle);
    }
    w.i64(st.missedDeadlines);
    w.i64(st.samplesPlanned);
    w.i64(st.samplesDelivered);
    w.i64(st.stormInterjections);
    w.i64(st.gateWindows);
    w.i64(st.faultsInjected);
    w.i64(st.faultsRecovered);
    w.i64(st.retimings);
    w.i64(st.faultEvents);
    w.u64(st.busResets);
    w.i64(st.txResets);
    w.u64(st.retries);
    w.i64(st.recoveredTx);
    w.i64(st.abandonedTx);
    w.dbl(st.recoveryP50S);
    w.dbl(st.recoveryP95S);
    w.dbl(st.recoveryP99S);
    w.i64(st.deliveredOk);
    w.i64(st.deliveredInterrupted);
    w.i64(st.deliveredOverflow);
    w.u64(st.vcdBytes);
    w.u64(st.vcdHash);
    w.str(st.vcd);
    w.u64(st.slabSlots);
    w.u64(st.liveHighWater);
    w.u64(st.heapCallbacks);
    w.u64(st.traceEvents);
    w.u64(st.traceHash);
    w.str(st.traceJson);
    w.u64(st.flightDumps.size());
    for (const std::string &d : st.flightDumps)
        w.str(d);
    w.u64(st.metrics.size());
    for (const trace::MetricSample &m : st.metrics) {
        w.str(m.name);
        w.str(m.value);
    }
    w.u64(static_cast<std::uint64_t>(st.fidelity));
    return w.bytes();
}

bool
decodeStats(const std::string &bytes, ScenarioStats &out)
{
    Reader r(bytes);
    if (r.str() != "stat1")
        return false;
    ScenarioStats st;
    st.planned = static_cast<int>(r.i64());
    st.acked = static_cast<int>(r.i64());
    st.naked = static_cast<int>(r.i64());
    st.broadcasts = static_cast<int>(r.i64());
    st.interrupted = static_cast<int>(r.i64());
    st.rxAborts = static_cast<int>(r.i64());
    st.failed = static_cast<int>(r.i64());
    st.bytesDelivered = r.u64();
    st.payloadMismatches = r.u64();
    st.wedged = r.b();
    st.txPerSecond = r.dbl();
    st.goodputBps = r.dbl();
    st.eventsPerBit = r.dbl();
    st.switchingJ = r.dbl();
    st.leakageJ = r.dbl();
    st.avgTxLatencyS = r.dbl();
    st.firstTxLatencyS = r.dbl();
    st.avgCyclesPerTx = r.dbl();
    st.energyPerSampleJ = r.dbl();
    st.lifetimeDays = r.dbl();
    st.latencyP50S = r.dbl();
    st.latencyP95S = r.dbl();
    st.latencyP99S = r.dbl();
    if (!getDoubles(r, st.txLatenciesS))
        return false;
    st.eventsExecuted = r.u64();
    st.clockCycles = r.u64();
    st.arbitrationRetries = r.u64();
    st.trainEdges = r.u64();
    st.trainsScheduled = r.u64();
    st.dispatchCalls = r.u64();
    st.simTime = r.u64();
    if (!getU64s(r, st.perNodeEdges))
        return false;
    std::uint64_t actors = r.u64();
    if (!r.okSoFar() || actors > 4096)
        return false;
    st.actorStats.resize(actors);
    for (workload::ActorStats &a : st.actorStats) {
        a.name = r.str();
        a.kind = static_cast<workload::ActorKind>(r.u64());
        a.node = static_cast<int>(r.i64());
        a.dest = static_cast<int>(r.i64());
        a.planned = static_cast<int>(r.i64());
        a.issued = static_cast<int>(r.i64());
        a.droppedOffline = static_cast<int>(r.i64());
        a.acked = static_cast<int>(r.i64());
        a.otherTerminal = static_cast<int>(r.i64());
        a.samplesPlanned = static_cast<int>(r.i64());
        a.samplesDelivered = static_cast<int>(r.i64());
        a.missedDeadlines = static_cast<int>(r.i64());
        a.bytesIssued = r.u64();
        a.bytesDelivered = r.u64();
        a.latencyP50S = r.dbl();
        a.latencyP95S = r.dbl();
        a.latencyP99S = r.dbl();
        if (!getDoubles(r, a.sampleLatenciesS))
            return false;
        a.energyPerSampleJ = r.dbl();
        a.dutyCycle = r.dbl();
    }
    st.missedDeadlines = static_cast<int>(r.i64());
    st.samplesPlanned = static_cast<int>(r.i64());
    st.samplesDelivered = static_cast<int>(r.i64());
    st.stormInterjections = static_cast<int>(r.i64());
    st.gateWindows = static_cast<int>(r.i64());
    st.faultsInjected = static_cast<int>(r.i64());
    st.faultsRecovered = static_cast<int>(r.i64());
    st.retimings = static_cast<int>(r.i64());
    st.faultEvents = static_cast<int>(r.i64());
    st.busResets = r.u64();
    st.txResets = static_cast<int>(r.i64());
    st.retries = r.u64();
    st.recoveredTx = static_cast<int>(r.i64());
    st.abandonedTx = static_cast<int>(r.i64());
    st.recoveryP50S = r.dbl();
    st.recoveryP95S = r.dbl();
    st.recoveryP99S = r.dbl();
    st.deliveredOk = static_cast<int>(r.i64());
    st.deliveredInterrupted = static_cast<int>(r.i64());
    st.deliveredOverflow = static_cast<int>(r.i64());
    st.vcdBytes = r.u64();
    st.vcdHash = r.u64();
    st.vcd = r.str();
    st.slabSlots = r.u64();
    st.liveHighWater = r.u64();
    st.heapCallbacks = r.u64();
    st.traceEvents = r.u64();
    st.traceHash = r.u64();
    st.traceJson = r.str();
    std::uint64_t dumps = r.u64();
    if (!r.okSoFar() || dumps > 4096)
        return false;
    st.flightDumps.resize(dumps);
    for (std::string &d : st.flightDumps)
        d = r.str();
    std::uint64_t metrics = r.u64();
    if (!r.okSoFar() || metrics > 65536)
        return false;
    st.metrics.resize(metrics);
    for (trace::MetricSample &m : st.metrics) {
        m.name = r.str();
        m.value = r.str();
    }
    std::uint64_t fidelity = r.u64();
    st.fidelity = static_cast<Fidelity>(fidelity);
    if (!r.ok() || fidelity == static_cast<std::uint64_t>(Fidelity::Auto) ||
        fidelity > static_cast<std::uint64_t>(Fidelity::Message))
        return false;
    out = std::move(st);
    return true;
}

} // namespace sweep
} // namespace mbus
