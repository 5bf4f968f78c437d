#include "wire/net.hh"

#include <utility>

namespace mbus {
namespace wire {

Net::Net(sim::Simulator &sim, const std::string &name, sim::SimTime delay,
         bool initial)
    : sim_(sim), id_(sim.names().intern(name)), delay_(delay),
      value_(initial), driven_(initial)
{
}

std::uint8_t
Net::maskOf(Edge edge)
{
    switch (edge) {
      case Edge::Rising:
        return kMaskRising;
      case Edge::Falling:
        return kMaskFalling;
      case Edge::Any:
        break;
    }
    return kMaskAny;
}

void
Net::drive(bool v)
{
    if (driven_ == v)
        return;
    driven_ = v;
    ++inFlight_;
    if (!rider_.ride(sim_, delay_, *this, v))
        sim_.scheduleEdge(delay_, *this, v);
}

void
Net::onEdge(bool value)
{
    --inFlight_;
    applyVisible(value);
}

void
Net::skipEdges(std::uint64_t count, sim::SimTime lastDrive,
               sim::SimTime beat)
{
    if (count == 0)
        return;
    if (!settled() || forced_ || recorder_)
        mbus_panic("skipEdges needs a settled, unforced, untraced net");
    rider_.resumeBeat(lastDrive, beat);
    const bool first = !value_;
    const std::uint64_t away = (count + 1) / 2; // Edges leaving value_.
    (first ? risingEdges_ : fallingEdges_) += away;
    (first ? fallingEdges_ : risingEdges_) += count - away;
    if (count % 2 != 0)
        value_ = driven_ = first;
    edgeEpoch_ += count;
}

void
Net::applyVisible(bool v)
{
    if (value_ == v)
        return;
    if (dropPending_ > 0 && !forced_) {
        // Swallow the leading transition; the complementary return
        // edge then matches the stale value_ and no-ops, so the
        // whole pulse vanishes downstream (runt absorption).
        --dropPending_;
        return;
    }
    value_ = v;
    if (forced_)
        return; // Changes hidden behind a force; counters idle too.

    if (v)
        ++risingEdges_;
    else
        ++fallingEdges_;

    if (recorder_)
        recorder_->record(traceId_, sim_.now(), v);

    fanout(v);
}

void
Net::fanout(bool v)
{
    ++edgeEpoch_;
    const std::uint8_t bit = v ? kMaskRising : kMaskFalling;
    for (const Sub &sub : subs_) {
        if (!(sub.mask & bit) || (sub.mask & kMaskMuted))
            continue;
        ++dispatchCalls_;
        sub.listener->onNetEdge(*this, v);
    }
}

void
Net::listen(Edge edge, EdgeListener &listener)
{
    subs_.push_back(Sub{&listener, maskOf(edge)});
}

void
Net::setListenerMuted(EdgeListener &listener, bool muted)
{
    for (Sub &sub : subs_) {
        if (sub.listener == &listener) {
            if (muted)
                sub.mask |= kMaskMuted;
            else
                sub.mask &= static_cast<std::uint8_t>(~kMaskMuted);
        }
    }
}

void
Net::force(bool v)
{
    bool previous = value();
    forced_ = true;
    forcedValue_ = v;
    if (previous != v) {
        if (recorder_)
            recorder_->record(traceId_, sim_.now(), v);
        fanout(v);
    }
}

void
Net::release()
{
    if (!forced_)
        return;
    bool previous = forcedValue_;
    forced_ = false;
    if (previous != value_) {
        bool v = value_;
        if (recorder_)
            recorder_->record(traceId_, sim_.now(), v);
        fanout(v);
    }
}

void
Net::trace(sim::TraceRecorder &recorder)
{
    recorder_ = &recorder;
    traceId_ = recorder.addSignal(name(), value());
}

} // namespace wire
} // namespace mbus
