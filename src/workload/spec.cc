#include "workload/workload.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace mbus {
namespace workload {

const char *
actorKindName(ActorKind k)
{
    switch (k) {
    case ActorKind::PeriodicSensor: return "sensor";
    case ActorKind::BurstImager: return "imager";
    case ActorKind::Interrupter: return "interrupter";
    case ActorKind::ControlPlane: return "control";
    }
    return "?";
}

std::string
actorDisplayName(const WorkloadSpec &spec, std::size_t i)
{
    const ActorSpec &a = spec.actors.at(i);
    if (!a.name.empty())
        return a.name;
    return std::string(actorKindName(a.kind)) + "_n" +
           std::to_string(a.node);
}

namespace {

void
validateActor(const ActorSpec &a, int nodes, std::size_t i)
{
    if (a.node < 0 || a.node >= nodes)
        mbus_fatal("workload actor ", i, " node ", a.node,
                   " outside ring of ", nodes);
    if (a.dest < 0 || a.dest >= nodes || a.dest == a.node)
        mbus_fatal("workload actor ", i, " dest ", a.dest,
                   " invalid for sender ", a.node);
    if (a.periodS <= 0)
        mbus_fatal("workload actor ", i, " needs periodS > 0");
    if (a.payloadBytes < 1)
        mbus_fatal("workload actor ", i,
                   " needs payloadBytes >= 1 (actor tag byte)");
    if (a.jitterFrac < 0 || a.jitterFrac >= 1.0)
        mbus_fatal("workload actor ", i, " jitterFrac must be [0,1)");
    if (a.startS < 0 || a.deadlineS < 0)
        mbus_fatal("workload actor ", i, " negative start/deadline");
}

void
validateSchedule(const ScheduleSpec &s, int nodes, std::size_t j)
{
    if (s.node >= nodes)
        mbus_fatal("workload schedule ", j, " node ", s.node,
                   " outside ring of ", nodes);
    // Gating/faulting node 0 would take the mediator (and the bus
    // clock) down with it; a retiming broadcast from node 0 would
    // never be heard (transmitters do not hear their own broadcasts,
    // and node 0 is the one applying config updates).
    bool needsMember = s.kind == ScheduleKind::PowerGateWindow ||
                       s.kind == ScheduleKind::NodeFault ||
                       s.kind == ScheduleKind::ClockRetiming;
    if (needsMember && s.node == 0)
        mbus_fatal("workload schedule ", j,
                   " must target a member node, not the mediator "
                   "host (node 0)");
    if (s.atS < 0 || s.durationS < 0)
        mbus_fatal("workload schedule ", j, " negative window");
    if (s.kind == ScheduleKind::InterjectionStorm && s.rateHz < 0)
        mbus_fatal("workload schedule ", j, " negative storm rate");
    if (s.kind == ScheduleKind::ClockRetiming && s.clockHz <= 0)
        mbus_fatal("workload schedule ", j,
                   " retiming needs clockHz > 0");
}

} // namespace

WorkloadEngine::WorkloadEngine(const WorkloadSpec &spec,
                               std::uint64_t seed, int nodes)
    : spec_(spec), seed_(seed), nodes_(nodes)
{
    if (!spec_.enabled())
        mbus_fatal("workload spec has no actors");
    if (spec_.durationS <= 0)
        mbus_fatal("workload needs durationS > 0");
    if (nodes_ < 2 || nodes_ > 14)
        mbus_fatal("workload needs 2..14 nodes, got ", nodes_);
    for (std::size_t i = 0; i < spec_.actors.size(); ++i)
        validateActor(spec_.actors[i], nodes_, i);
    for (std::size_t j = 0; j < spec_.schedules.size(); ++j)
        validateSchedule(spec_.schedules[j], nodes_, j);

    for (std::size_t i = 0; i < spec_.actors.size(); ++i)
        compileActor(static_cast<int>(i), spec_.actors[i]);
    for (std::size_t j = 0; j < spec_.schedules.size(); ++j)
        compileSchedule(static_cast<int>(j), spec_.schedules[j]);

    // Merge the per-stream plans into one time line. The (at, stream,
    // seq) key is a total order over distinct ops, so the sorted plan
    // is independent of actor/schedule container order.
    std::sort(plan_.begin(), plan_.end(),
              [](const PlannedOp &a, const PlannedOp &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.stream != b.stream)
                      return a.stream < b.stream;
                  return a.seq < b.seq;
              });
}

void
WorkloadEngine::compileActor(int index, const ActorSpec &a)
{
    // One independent stream per actor, keyed by the stream id (not
    // the container position) so a solo extraction replays the same
    // draws.
    std::uint64_t streamId = static_cast<std::uint64_t>(
        a.stream >= 0 ? a.stream : index);
    sim::Random rng = sim::Random(seed_).split(1 + streamId);

    const sim::SimTime duration = sim::fromSeconds(spec_.durationS);
    std::uint32_t seq = 0;
    std::uint32_t burst = 0;

    double t = a.startS;
    while (true) {
        // Fixed draw order per sample: jitter, gap (interrupter),
        // payload seed -- positions never depend on outcomes.
        double jitter =
            a.periodS * a.jitterFrac * (2.0 * rng.uniform() - 1.0);
        double gap = a.periodS;
        if (a.kind == ActorKind::Interrupter) {
            // Exponential-ish event gaps, clamped so one extreme draw
            // cannot starve or flood the plan.
            double u = rng.uniform();
            gap = std::min(8.0, std::max(0.05, -std::log1p(-u))) *
                  a.periodS;
        }
        double issueS = std::max(0.0, t + jitter);
        sim::SimTime at = sim::fromSeconds(issueS);
        if (at >= duration)
            break;

        double deadlineS = a.deadlineS > 0 ? a.deadlineS : a.periodS;
        sim::SimTime deadline = at + sim::fromSeconds(deadlineS);

        std::size_t total =
            a.burstBytes > 0 ? a.burstBytes : a.payloadBytes;
        auto fragCount = static_cast<std::uint16_t>(
            (total + a.payloadBytes - 1) / a.payloadBytes);
        for (std::uint16_t f = 0; f < fragCount; ++f) {
            PlannedOp op;
            op.at = at;
            op.kind = OpKind::Send;
            op.actor = index;
            op.node = static_cast<std::size_t>(a.node);
            op.dest = static_cast<std::size_t>(a.dest);
            std::size_t remaining = total -
                static_cast<std::size_t>(f) * a.payloadBytes;
            op.bytes = std::min(a.payloadBytes, remaining);
            op.burst = burst;
            op.frag = f;
            op.fragCount = fragCount;
            op.priority = a.priority;
            op.sampleAt = at;
            op.deadline = deadline;
            op.payloadSeed = rng.next();
            op.stream = static_cast<std::uint32_t>(1 + streamId);
            op.seq = seq++;
            plan_.push_back(op);
        }
        ++burst;
        t += gap;
    }
}

void
WorkloadEngine::compileSchedule(int index, const ScheduleSpec &s)
{
    sim::Random rng = sim::Random(seed_).split(
        kScheduleStreamBase + static_cast<std::uint64_t>(index));
    auto stream = static_cast<std::uint32_t>(
        kScheduleStreamBase + static_cast<std::uint64_t>(index));
    std::uint32_t seq = 0;

    // Targets default to a random member node (never the mediator
    // host, whose drop would take the bus clock with it).
    auto memberTarget = [&]() -> std::size_t {
        if (s.node > 0)
            return static_cast<std::size_t>(s.node);
        return 1 + static_cast<std::size_t>(
                       rng.below(static_cast<std::uint64_t>(nodes_ - 1)));
    };

    const sim::SimTime start = sim::fromSeconds(s.atS);
    const sim::SimTime length = sim::fromSeconds(s.durationS);

    auto push = [&](sim::SimTime at, OpKind kind, std::size_t node) {
        PlannedOp op;
        op.at = at;
        op.kind = kind;
        op.schedule = index;
        op.node = node;
        op.stream = stream;
        op.seq = seq++;
        plan_.push_back(op);
    };

    switch (s.kind) {
    case ScheduleKind::InterjectionStorm: {
        // Deterministic storm size: expected count plus a fractional
        // tie-break draw, arrivals uniform in the window.
        double expect = s.rateHz * s.durationS;
        auto count = static_cast<int>(expect + rng.uniform());
        for (int k = 0; k < count; ++k) {
            auto frac = rng.uniform();
            auto at = start + static_cast<sim::SimTime>(
                                  frac * static_cast<double>(length));
            // Storm interjectors may be any node, host included (the
            // host's interjection is the Sec 4.9 rescue primitive).
            // The draw happens unconditionally so pinning the target
            // never shifts later stream positions.
            auto who = static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(nodes_)));
            if (s.node >= 0)
                who = static_cast<std::size_t>(s.node);
            push(at, OpKind::Interject, who);
        }
        break;
    }
    case ScheduleKind::PowerGateWindow: {
        std::size_t who = memberTarget();
        push(start, OpKind::GateOff, who);
        push(start + length, OpKind::GateOn, who);
        break;
    }
    case ScheduleKind::NodeFault: {
        std::size_t who = memberTarget();
        push(start, OpKind::FaultDrop, who);
        push(start + length, OpKind::FaultRecover, who);
        break;
    }
    case ScheduleKind::ClockRetiming: {
        // The broadcast must come from a member: transmitters do not
        // hear their own broadcasts, and the mediator host is the one
        // applying config-channel updates.
        std::size_t who = memberTarget();
        PlannedOp op;
        op.at = start;
        op.kind = OpKind::Retime;
        op.schedule = index;
        op.node = who;
        op.clockHz = s.clockHz;
        op.stream = stream;
        op.seq = seq++;
        plan_.push_back(op);
        break;
    }
    }
}

} // namespace workload
} // namespace mbus
