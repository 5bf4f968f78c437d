#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.hh"
#include "sim/fsio.hh"
#include "sim/hash.hh"
#include "sweep/codec.hh"

namespace perfbench {

namespace {

constexpr const char *kReferenceHeader =
    "# name\tplanned\tacked\tnaked\tbroadcasts\tinterrupted\trx_aborts\t"
    "failed\tbytes\tmismatches\twedged\tsim_time_ps\tsamples_planned\t"
    "samples_delivered\tmissed_deadlines\tfault_events\tbus_resets\t"
    "tx_resets\tretries\trecovered\tabandoned\tdelivered_ok\t"
    "delivered_interrupted\tdelivered_overflow\tlatency_digest\t"
    "switching_j\tleakage_j";

/** FNV-1a over the byte-stable text of every simulated latency. */
std::uint64_t
latencyDigest(const ScenarioStats &st)
{
    std::string text;
    auto add = [&](double v) {
        text += mbus::sim::formatDouble(v);
        text += ';';
    };
    add(st.firstTxLatencyS);
    add(st.avgTxLatencyS);
    add(st.latencyP50S);
    add(st.latencyP95S);
    add(st.latencyP99S);
    for (double v : st.txLatenciesS)
        add(v);
    add(st.recoveryP50S);
    add(st.recoveryP95S);
    add(st.recoveryP99S);
    for (const mbus::workload::ActorStats &a : st.actorStats) {
        for (double v : a.sampleLatenciesS)
            add(v);
    }
    return mbus::sim::fnv1a(text.data(), text.size());
}

bool
closeRel(double want, double got)
{
    if (want == got)
        return true;
    double scale = std::max(std::fabs(want), std::fabs(got));
    return std::fabs(want - got) <= kEnergyRelTol * scale;
}

} // namespace

unsigned
checkCell(const ScenarioSpec &spec, const ScenarioStats &st)
{
    unsigned mask = 0;
    long outcomes = static_cast<long>(st.acked) + st.naked +
                    st.broadcasts + st.interrupted + st.rxAborts +
                    st.failed;
    bool faulty = spec.faults.enabled();
    if (faulty && st.wedged) {
        // The injected faults beat the recovery machinery: a simulated
        // outcome. Messages still in flight have no terminal status.
        if (outcomes > st.planned)
            mask |= kOutcomeSum;
    } else {
        if (outcomes != st.planned)
            mask |= kOutcomeSum;
        if (st.wedged)
            mask |= kWedged;
    }
    // Only an ACK promises a delivery: a fault-free cell fails on any
    // mismatched payload beyond the transactions its senders saw fail.
    auto unacked = static_cast<std::uint64_t>(st.naked) + st.interrupted +
                   st.rxAborts + st.failed;
    if (!faulty && st.payloadMismatches > unacked)
        mask |= kMismatch;
    return mask;
}

Outcome
outcomeOf(const ScenarioStats &st)
{
    std::ostringstream os;
    os << st.planned << '\t' << st.acked << '\t' << st.naked << '\t'
       << st.broadcasts << '\t' << st.interrupted << '\t' << st.rxAborts
       << '\t' << st.failed << '\t' << st.bytesDelivered << '\t'
       << st.payloadMismatches << '\t' << (st.wedged ? 1 : 0) << '\t'
       << st.simTime << '\t' << st.samplesPlanned << '\t'
       << st.samplesDelivered << '\t' << st.missedDeadlines << '\t'
       << st.faultEvents << '\t' << st.busResets << '\t' << st.txResets
       << '\t' << st.retries << '\t' << st.recoveredTx << '\t'
       << st.abandonedTx << '\t' << st.deliveredOk << '\t'
       << st.deliveredInterrupted << '\t' << st.deliveredOverflow << '\t'
       << std::hex << latencyDigest(st);
    Outcome o;
    o.exact = os.str();
    o.switchingJ = st.switchingJ;
    o.leakageJ = st.leakageJ;
    return o;
}

bool
outcomeMatches(const Outcome &want, const Outcome &got)
{
    return want.exact == got.exact &&
           closeRel(want.switchingJ, got.switchingJ) &&
           closeRel(want.leakageJ, got.leakageJ);
}

bool
loadReference(const std::string &path, Reference &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        // name \t exact fields... \t switching_j \t leakage_j
        std::size_t nameEnd = line.find('\t');
        std::size_t leakAt = line.rfind('\t');
        std::size_t swAt = leakAt == std::string::npos || leakAt == 0
                               ? std::string::npos
                               : line.rfind('\t', leakAt - 1);
        if (nameEnd == std::string::npos || swAt == std::string::npos ||
            swAt <= nameEnd)
            return false;
        Outcome o;
        o.exact = line.substr(nameEnd + 1, swAt - nameEnd - 1);
        char *end = nullptr;
        std::string sw = line.substr(swAt + 1, leakAt - swAt - 1);
        std::string lk = line.substr(leakAt + 1);
        o.switchingJ = std::strtod(sw.c_str(), &end);
        if (end == sw.c_str() || *end != '\0')
            return false;
        o.leakageJ = std::strtod(lk.c_str(), &end);
        if (end == lk.c_str() || *end != '\0')
            return false;
        ref.names.push_back(line.substr(0, nameEnd));
        ref.outcomes.push_back(std::move(o));
    }
    if (ref.names.empty())
        return false;
    out = std::move(ref);
    return true;
}

bool
writeReference(const std::string &path, const Round &round)
{
    return mbus::sim::atomicWriteFile(path, [&](std::ostream &os) {
        os << kReferenceHeader << "\n";
        for (const CellResult &c : round.cells) {
            Outcome o = outcomeOf(c.stats);
            os << c.spec.name << '\t' << o.exact << '\t'
               << mbus::sim::formatDouble(o.switchingJ) << '\t'
               << mbus::sim::formatDouble(o.leakageJ) << "\n";
        }
    });
}

void
checkRound(const Grid &grid, const Round &round, const Reference *ref,
           Tally &tally)
{
    std::vector<unsigned> masks(round.cells.size(), 0);
    for (std::size_t i = 0; i < round.cells.size(); ++i) {
        const CellResult &c = round.cells[i];
        masks[i] = checkCell(c.spec, c.stats);
        if (c.stats.wedged && c.spec.faults.enabled())
            ++tally.faultWedges;
        if (c.stats.payloadMismatches != 0 && !c.spec.faults.enabled())
            ++tally.unackedMismatches;
        if (ref && (ref->names.size() != round.cells.size() ||
                    ref->names[i] != c.spec.name ||
                    !outcomeMatches(ref->outcomes[i], outcomeOf(c.stats))))
            masks[i] |= kReference;
    }

    mbus::sweep::SweepConfig cfg;
    cfg.masterSeed = round.masterSeed;
    cfg.threads = 1;
    mbus::sweep::SweepDriver driver(cfg);
    for (const FabricRange &r : grid.ranges) {
        std::uint64_t pick = mbus::sim::fnv1a(
            &round.masterSeed, sizeof(round.masterSeed),
            static_cast<std::uint64_t>(r.kind) + 1);
        std::size_t i = r.first + static_cast<std::size_t>(pick % r.count);
        CellResult solo = driver.runCell(grid.cells[i], i);
        if (mbus::sweep::encodeStats(solo.stats) !=
            mbus::sweep::encodeStats(round.cells[i].stats))
            masks[i] |= kReplay;
    }

    for (std::size_t i = 0; i < masks.size(); ++i) {
        if (masks[i]) {
            std::fprintf(stderr,
                         "perfbench: cell %zu '%s' (master seed %llu) "
                         "failed checks 0x%x\n",
                         i, round.cells[i].spec.name.c_str(),
                         static_cast<unsigned long long>(round.masterSeed),
                         masks[i]);
        }
        tally.add(masks[i]);
    }
}

void
MetricSet::printTable() const
{
    std::printf("%-34s %22s  %-8s %s\n", "metric", "value", "unit", "note");
    for (const Metric &m : items) {
        std::printf("%-34s %22.10g  %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
}

void
MetricSet::printJson(const Tally &tally) const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < items.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", items[i].name.c_str(), items[i].value,
                    items[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
peakRssMb()
{
    // VmHWM rather than getrusage: resetPeakRss() can lower it.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

} // namespace perfbench
