#include "mbus/system.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "mbus/data_phase.hh"
#include "power/constants.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace bus {

namespace {

/** Fraction of the mixed ring's clock envelope it runs at: headroom
 *  for back-to-back CLK/DATA ISRs serializing on the software
 *  member's one CPU (its ring budget is 2.5x the worst path for the
 *  same reason). */
constexpr double kSoftClockHeadroom = 0.8;

} // namespace

MBusSystem::MBusSystem(sim::Simulator &sim, SystemConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)),
      energy_(power::kSimCalibration,
              2 * power::kPadCapF + (cfg_.wireCapF >= 0
                                         ? cfg_.wireCapF
                                         : power::kWireCapF))
{
    if (cfg_.dataLanes < 1 || cfg_.dataLanes > 4)
        mbus_fatal("MBus supports 1..4 DATA lanes, got ",
                   cfg_.dataLanes);
}

MBusSystem::~MBusSystem() = default;

Node &
MBusSystem::addNode(NodeConfig cfg)
{
    if (finalized_)
        mbus_fatal("addNode() after finalize()");
    if (cfg.name.empty())
        cfg.name = "node" + std::to_string(nodes_.size());
    nodes_.push_back(std::make_unique<Node>(
        sim_, cfg_, std::move(cfg), nodes_.size()));
    return *nodes_.back();
}

void
MBusSystem::addSoftMember(firmware::FirmwareNode::Config cfg,
                          std::string name)
{
    if (finalized_)
        mbus_fatal("addSoftMember() after finalize()");
    if (softCfg_)
        mbus_fatal("a ring holds at most one software member");
    if (cfg_.dataLanes != 1)
        mbus_fatal("the four-GPIO software member is single-lane");
    // Its CLK ISR retirements coalesce under the same switch (and
    // train length) as the net-level trains.
    cfg.isrTrainMaxEdges = cfg_.edgeTrains ? kTrainMaxEdges : 0;
    // The member's response latency dominates the ring round trip.
    // Budget 2.5x its worst path: CLK and DATA edges can land
    // back-to-back and serialize on the single CPU.
    cfg_.extraRingLatency += 2 * cfg.cost.responseLatency() +
                             cfg.cost.responseLatency() / 2;
    softCfg_ = cfg;
    softName_ = std::move(name);
}

double
MBusSystem::maxSafeClockHz() const
{
    return safeClockLimitHz(cfg_, ringSize());
}

double
MBusSystem::clockCeilingHz() const
{
    return softCfg_ ? kSoftClockHeadroom * maxSafeClockHz()
                    : maxSafeClockHz();
}

void
MBusSystem::finalize()
{
    if (finalized_)
        mbus_fatal("finalize() called twice");
    if (nodes_.empty() || ringSize() < 2)
        mbus_fatal("an MBus system needs at least 2 nodes, "
                   "the first a chip");
    finalized_ = true;

    // Duplicate static short prefixes make two nodes match (and ACK)
    // the same address: a wiring error, not a runtime condition.
    std::set<std::uint8_t> statics;
    for (const auto &n : nodes_) {
        auto p = n->config().staticShortPrefix;
        if (!p)
            continue;
        if (*p == kBroadcastPrefix || *p == kFullAddressMarker)
            mbus_fatal("node ", n->name(), ": reserved short prefix ",
                       int(*p));
        if (!statics.insert(*p).second)
            mbus_fatal("duplicate static short prefix ", int(*p),
                       "; use enumeration for duplicate chips "
                       "(Sec 4.7)");
    }

    if (cfg_.busClockHz > maxSafeClockHz()) {
        mbus_fatal("bus clock ", cfg_.busClockHz / 1e6,
                   " MHz exceeds the safe limit ",
                   maxSafeClockHz() / 1e6, " MHz for ", ringSize(),
                   " nodes at ", sim::toSeconds(cfg_.hopDelay) * 1e9,
                   " ns/hop");
    }

    std::size_t n = ringSize();
    ledger_.resize(n);
    laneSegs_.resize(static_cast<std::size_t>(cfg_.dataLanes) - 1);

    for (std::size_t i = 0; i < n; ++i) {
        std::string base =
            i < nodes_.size() ? nodes_[i]->name() : softName_;
        clkSegs_.push_back(std::make_unique<wire::Net>(
            sim_, base + ".CLK_OUT", cfg_.hopDelay, true));
        dataSegs_.push_back(std::make_unique<wire::Net>(
            sim_, base + ".DATA_OUT", cfg_.hopDelay, true));
        for (std::size_t l = 0; l < laneSegs_.size(); ++l) {
            laneSegs_[l].push_back(std::make_unique<wire::Net>(
                sim_, base + ".DATA" + std::to_string(l + 1) + "_OUT",
                cfg_.hopDelay, true));
        }
    }

    // Batched edge delivery: ring segments coalesce rhythmic edge
    // runs (the forwarded CLK broadcast, steady alternating DATA
    // runs) into kernel edge trains. Confirm-or-split keeps every
    // delivery bit-identical to the discrete path.
    if (cfg_.edgeTrains)
        forEachSegment(
            [](wire::Net &seg) { seg.enableEdgeTrains(kTrainMaxEdges); });

    medLink_ = std::make_unique<MediatorHostLink>();

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        std::size_t prev = (i + n - 1) % n;
        std::vector<wire::Net *> lane_ins, lane_outs;
        for (auto &lane : laneSegs_) {
            lane_ins.push_back(lane[prev].get());
            lane_outs.push_back(lane[i].get());
        }
        bool is_host = (i == 0);
        nodes_[i]->bind(*clkSegs_[prev], *clkSegs_[i], *dataSegs_[prev],
                        *dataSegs_[i], std::move(lane_ins),
                        std::move(lane_outs), is_host,
                        is_host ? medLink_.get() : nullptr);
    }
    // The software member listens on the last chip's outputs. It is
    // built after the chips bind and before the mediator: listener
    // order on a segment is load-bearing (see Node::bind).
    if (softCfg_)
        soft_ = std::make_unique<firmware::FirmwareNode>(
            sim_, *softCfg_, *clkSegs_[n - 2], *clkSegs_[n - 1],
            *dataSegs_[n - 2], *dataSegs_[n - 1]);

    Mediator::Context mctx{
        sim_,
        cfg_,
        *clkSegs_[n - 1],
        *dataSegs_[n - 1],
        nodes_[0]->clkWireController(),
        nodes_[0]->dataWireController(),
        /*ringSize=*/n,
        *medLink_};
    mediator_ = std::make_unique<Mediator>(std::move(mctx));
    mediator_->setMaxMessageBytes(cfg_.maxMessageBytes);
    mediator_->arm();
    if (cfg_.fastForward && cfg_.edgeTrains && cfg_.chunkedDispatch)
        mediator_->setFastForward(this);
    medLink_->requestInterjection = [this] {
        mediator_->hostInterjectionRequest();
    };
    mediator_->setOnIdle([this] {
        if (rotatingPriority_)
            setArbBreakNode((arbBreakIdx_ + 1) % nodes_.size());
    });

    // The mediator host listens to the configuration channel and
    // applies updates to the live mediator (Sec 7).
    nodes_[0]->layer().addPreDispatchHandler(
        [this](const ReceivedMessage &rx) {
            return handleConfigBroadcast(rx);
        });
}

bool
MBusSystem::handleConfigBroadcast(const ReceivedMessage &rx)
{
    if (!rx.dest.isBroadcast() || rx.dest.channel() != kChannelConfig)
        return false;
    if (rx.payload.size() < 5)
        return true;
    std::uint32_t value = (std::uint32_t(rx.payload[1]) << 24) |
                          (std::uint32_t(rx.payload[2]) << 16) |
                          (std::uint32_t(rx.payload[3]) << 8) |
                          std::uint32_t(rx.payload[4]);
    switch (rx.payload[0]) {
      case kConfigCmdMaxLength:
        cfg_.maxMessageBytes = value;
        mediator_->setMaxMessageBytes(value);
        break;
      case kConfigCmdClockHz:
        if (value > clockCeilingHz()) {
            sim::warn("config clock ", value,
                 " Hz exceeds safe limit; ignored");
        } else {
            cfg_.busClockHz = value; // Applied from the next idle.
        }
        break;
      default:
        sim::warn("unknown config command ", int(rx.payload[0]));
        break;
    }
    return true;
}

Node *
MBusSystem::nodeByName(const std::string &name)
{
    for (auto &n : nodes_)
        if (n->name() == name)
            return n.get();
    return nullptr;
}

wire::Net &
MBusSystem::laneSegment(int lane, std::size_t i)
{
    if (lane < 1 || lane >= cfg_.dataLanes)
        mbus_fatal("laneSegment: lane ", lane, " out of range");
    return *laneSegs_.at(static_cast<std::size_t>(lane - 1)).at(i);
}

std::optional<TxResult>
MBusSystem::sendAndWait(std::size_t fromNode, Message msg,
                        sim::SimTime timeout)
{
    // The completion ends the wait; one landing after a timeout only
    // records into the shared result.
    auto result = std::make_shared<std::optional<TxResult>>();
    node(fromNode).send(std::move(msg), [this, result](const TxResult &r) {
        *result = r;
        sim_.poke();
    });
    sim_.runUntil(timeout, [&result] { return result->has_value(); });
    return *result;
}

bool
MBusSystem::idle() const
{
    if (!mediator_->asleep() || (soft_ && !soft_->idle()))
        return false;
    for (auto &n : nodes_) {
        if (n->sleepController().transactionActive() ||
            n->busController().pendingTx() > 0) {
            return false;
        }
    }
    return true;
}

bool
MBusSystem::runUntilIdle(sim::SimTime timeout)
{
    // Components poke at every step that may complete idleness (the
    // mediator falling asleep, a controller back to idle or losing
    // its queue, the software member's FSM settling).
    if (!idle())
        sim_.runUntil(timeout, [this] { return idle(); });
    return idle();
}

int
MBusSystem::enumerateAll(std::size_t enumeratorNode)
{
    Node &enumerator = node(enumeratorNode);
    if (!enumerator.busController().hasShortPrefix())
        mbus_fatal("enumerator needs a short prefix of its own");

    // Reply channel: the enumerator's mailbox FU.
    std::uint8_t reply_byte = static_cast<std::uint8_t>(
        (enumerator.shortPrefix() << 4) | kFuMailbox);

    enumerator.layer().setMailboxHandler(
        [this](const ReceivedMessage &rx) {
            if (rx.payload.size() == 4 && rx.payload[0] == 0x02) {
                enumReplySeen_ = true;
                lastEnumFullPrefix_ =
                    (std::uint32_t(rx.payload[1]) << 16) |
                    (std::uint32_t(rx.payload[2]) << 8) |
                    std::uint32_t(rx.payload[3]);
                sim_.poke();
            }
        });

    // Short prefixes already in use (statics + the enumerator).
    std::set<std::uint8_t> used;
    for (auto &n : nodes_)
        if (n->busController().hasShortPrefix())
            used.insert(n->shortPrefix());

    int assigned = 0;
    for (std::uint8_t candidate = 1; candidate <= 0xE; ++candidate) {
        if (used.count(candidate))
            continue;

        enumReplySeen_ = false;
        Message probe;
        probe.dest = Address::broadcast(kChannelEnumerate);
        probe.payload = {0x01, candidate, reply_byte};

        enumProbeDone_ = false;
        const std::uint64_t gen = ++enumProbe_;
        enumerator.send(std::move(probe),
                        [this, gen](const TxResult &) {
                            if (gen != enumProbe_)
                                return; // An abandoned probe.
                            enumProbeDone_ = true;
                            sim_.poke();
                        });

        // Wait for the probe, the replies, and the winner's
        // self-assignment to settle.
        sim::SimTime settle =
            200 * sim::periodFromHz(cfg_.busClockHz) +
            2 * sim::kMillisecond;
        sim_.runUntil(settle,
                      [this] { return enumProbeDone_ && enumReplySeen_; });
        runUntilIdle(settle);

        if (!enumReplySeen_)
            break; // No unassigned node answered: enumeration done.
        ++assigned;
    }
    return assigned;
}

void
MBusSystem::broadcastMaxMessageLength(std::size_t fromNode,
                                      std::uint32_t bytes)
{
    Message msg;
    msg.dest = Address::broadcast(kChannelConfig);
    msg.payload = {kConfigCmdMaxLength,
                   static_cast<std::uint8_t>((bytes >> 24) & 0xFF),
                   static_cast<std::uint8_t>((bytes >> 16) & 0xFF),
                   static_cast<std::uint8_t>((bytes >> 8) & 0xFF),
                   static_cast<std::uint8_t>(bytes & 0xFF)};
    // Transmitters do not hear their own broadcasts; when the sender
    // is the mediator host, apply the setting on completion.
    node(fromNode).send(std::move(msg),
                        [this, bytes](const TxResult &r) {
                            if (r.status == TxStatus::Broadcast) {
                                cfg_.maxMessageBytes = bytes;
                                mediator_->setMaxMessageBytes(bytes);
                            }
                        });
}

bool
MBusSystem::recoverBus(sim::SimTime timeout)
{
    mediator_->forceInterjection();
    return runUntilIdle(timeout);
}

void
MBusSystem::armWatchdog(std::uint32_t epochs)
{
    if (epochs == 0 || watchdogEpochs_ != 0)
        return;
    watchdogEpochs_ = epochs;
    scheduleWatchdogPoll(sim_.now() + watchdogInterval());
}

sim::SimTime
MBusSystem::watchdogInterval() const
{
    return watchdogEpochs_ * sim::periodFromHz(cfg_.busClockHz);
}

void
MBusSystem::scheduleWatchdogPoll(sim::SimTime at)
{
    wdPollAt_ = at;
    wdPoll_ = sim_.scheduleAt(at, [this] { watchdogPoll(); });
}

void
MBusSystem::watchdogPoll()
{
    // CLK progress is measured where the mediator sees it: the ring
    // tail segment feeding its CLK input. A broken ring (stuck
    // segment, dead transmitter, runaway clocking into a break)
    // stalls it even while the mediator's own output toggles.
    const std::uint64_t progress = clkSegs_.back()->edgeEpoch();
    // "Busy" is every state runUntilIdle() waits out -- including a
    // member wedged mid-transaction with an empty queue (its receive
    // path lost edges to a fault) -- or the watchdog would never
    // reclaim exactly the hangs it exists for.
    const bool busy = !idle();
    // Two stall shapes, both needing two consecutive busy polls:
    // frozen CLK (broken ring, dead transmitter), and CLK edges
    // arriving while the mediator sleeps -- a glitch pulse orbiting
    // the forwarding ring, clocking phantom bits into every FSM. No
    // transaction can make real progress without the mediator, so a
    // sleeping mediator over two whole poll intervals is a stall no
    // matter what the edge counter does. Reclaim via the Sec 4.9
    // rescue path (full interjection + general error).
    const bool asleep = mediator_->asleep();
    if (busy && wdLastBusy_ &&
        (progress == wdLastProgress_ || (asleep && wdLastAsleep_))) {
        ++busResets_;
        if (auto *t = sim_.tracer())
            t->record(trace::EventKind::WatchdogRescue, 0,
                      static_cast<std::int64_t>(busResets_));
        mediator_->forceInterjection();
    }
    wdLastBusy_ = busy;
    wdLastAsleep_ = asleep;
    wdLastProgress_ = progress;
    scheduleWatchdogPoll(sim_.now() + watchdogInterval());
}

void
MBusSystem::setArbBreakNode(std::size_t idx)
{
    if (!cfg_.useNodeArbBreak)
        mbus_fatal("setArbBreakNode requires "
                   "SystemConfig::useNodeArbBreak");
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        nodes_[i]->setArbBreakRole(i == idx);
    arbBreakIdx_ = idx;
}

void
MBusSystem::enableRotatingPriority()
{
    if (!cfg_.useNodeArbBreak)
        mbus_fatal("enableRotatingPriority requires "
                   "SystemConfig::useNodeArbBreak");
    rotatingPriority_ = true;
    setArbBreakNode(arbBreakIdx_);
}

void
MBusSystem::attachTrace(sim::TraceRecorder &recorder)
{
    // A waveform needs every edge at its own time.
    mediator_->setFastForward(nullptr);
    forEachSegment([&recorder](wire::Net &seg) { seg.trace(recorder); });
}

sim::SimTime
MBusSystem::softDinDelay(std::size_t tx) const
{
    // CLK reaches the member (slot n) n hops after the mediator
    // drives it. A transmitting chip drives DATA as CLK reaches it,
    // so its edge keeps pace with CLK -- except the mediator host,
    // which clocks off its own output one hop late. The member's own
    // DOUT edges come back around all n + 1 segments. With no
    // transmitter (tx = n + 1) no DATA edge comes at all.
    const std::size_t n = nodes_.size();
    if (tx == n)
        return static_cast<sim::SimTime>(n + 1) * cfg_.hopDelay;
    return tx == 0 ? cfg_.hopDelay : 0;
}

std::uint32_t
MBusSystem::skipCycles(sim::SimTime half, const sim::EventHandle &check)
{
    std::size_t tx = 0;
    SkipWindow win;
    std::uint64_t cycles = cyclesSkippable(half, tx, win);
    if (cycles == 0)
        return 0;
    // The mediator's queued ring check is its own, and the tick train
    // is the event running now; the watchdog's poll is the ring's to
    // answer. Anything else pending is not the ring's.
    const sim::SimTime now = sim_.now();
    const sim::SimTime until = std::min(
        sim_.queue().nextTimeExcept(check, wdPoll_), sim_.runLimit());
    const sim::SimTime cycle = 2 * half;
    win.cycles = std::min<std::uint64_t>(
        {cycles, static_cast<std::uint64_t>((until - now) / cycle),
         std::uint64_t(1) << 31});
    if (win.cycles == 0)
        return 0;
    // Take only a skip that saves kernel events (every train it
    // restarts priced, the mediator's included): short ones do not,
    // the less so the larger the ring. A window may price below a
    // shorter one (a lane that ends on a beat pays its warm-up
    // again), so one that runs past the poll also tries ending there.
    if (skipSavings(tx, win) <= 0) {
        const auto shorter = static_cast<std::uint64_t>(
            (sim_.queue().nextTimeExcept(check) - now) / cycle);
        if (shorter == 0 || shorter >= win.cycles)
            return 0;
        win.cycles = shorter;
        if (skipSavings(tx, win) <= 0)
            return 0;
    }
    skipWindow(tx, win, half);
    return static_cast<std::uint32_t>(win.cycles);
}

std::uint64_t
MBusSystem::cyclesSkippable(sim::SimTime half, std::size_t &tx,
                            SkipWindow &win) const
{
    const std::size_t n = nodes_.size();
    const std::size_t none = ringSize();
    // The transmitter, and the wire cycle it drives next.
    tx = none;
    for (std::size_t i = 0; i < n; ++i) {
        const BusController &ctl = nodes_[i]->busController();
        if (ctl.transmitting()) {
            if (tx != none)
                return 0;
            tx = i;
            win.msg = ctl.transmitting();
            win.first = ctl.cyclesDriven();
        }
    }
    if (soft_ && soft_->transmitting()) {
        if (tx != none)
            return 0;
        tx = n;
        win.msg = soft_->transmitting();
        win.first = soft_->cyclesDriven();
    }
    const bool inAddress = win.first < win.addrCycles();
    std::uint64_t room = mediator_->latchableCycles(win.msg, win.first);
    for (std::size_t i = 0; i < n && room != 0; ++i)
        room = std::min(room, nodes_[i]->busController().cyclesSkippable(
                                  win.msg, win.first));
    if (soft_ && room != 0)
        room = std::min(room, soft_->cyclesSkippable(
                                  half, softDinDelay(tx), win.msg,
                                  win.first));
    if (room == 0)
        return 0;
    // Every chip forwards, except where the mediator drives CLK
    // (chip 0) and the transmitter drives its lanes (lane 0 alone in
    // its address).
    for (std::size_t i = 0; i < n; ++i) {
        Node &node = *nodes_[i];
        if (node.clkWireController().forwarding() == (i == 0) ||
            node.dataWireController().forwarding() == (i == tx))
            return 0;
        for (std::size_t l = 0; l < node.laneWireControllers(); ++l)
            if (node.laneWireController(l).forwarding() ==
                (i == tx && !inAddress))
                return 0;
    }
    // Every segment settled, unforced and undamaged: CLK high, each
    // DATA lane at the level its transmitter drives (or, in its
    // address, forwards) -- or, with none, at one level all around the
    // ring.
    auto steady = [](const wire::Net &seg, bool level) {
        return seg.settled() && !seg.forced() && seg.dropsPending() == 0 &&
               seg.value() == level && seg.drivenValue() == level;
    };
    const std::size_t src = tx == none ? 0 : tx;
    const bool data = dataSegs_[src]->drivenValue();
    for (std::size_t i = 0; i < none; ++i)
        if (!steady(*clkSegs_[i], true) || !steady(*dataSegs_[i], data))
            return 0;
    for (const auto &lane : laneSegs_) {
        const bool level = lane[src]->drivenValue();
        for (const auto &seg : lane)
            if (!steady(*seg, level))
                return 0;
    }
    return std::min(room, watchdogRoom(half));
}

std::uint64_t
MBusSystem::tailClkEpochAt(sim::SimTime t, sim::SimTime half) const
{
    // The skipped edge k reaches the tail k half periods after the
    // first, which the mediator drives now (see skipWindow()).
    const std::size_t tail = ringSize() - 1;
    const sim::SimTime lag = soft_ ? soft_->clkIsrLatency() : 0;
    const sim::SimTime first =
        sim_.now() + static_cast<sim::SimTime>(tail) * cfg_.hopDelay + lag +
        clkSegs_[tail]->delay();
    const std::uint64_t epoch = clkSegs_[tail]->edgeEpoch();
    return t > first ? epoch + static_cast<std::uint64_t>(
                                   (t - first + half - 1) / half)
                     : epoch;
}

std::uint64_t
MBusSystem::watchdogRoom(sim::SimTime half) const
{
    // Only the first poll a window passes can rescue: past it the
    // last poll read busy, awake and an epoch the next one exceeds.
    if (!wdPoll_.pending() || !wdLastBusy_ ||
        tailClkEpochAt(wdPollAt_, half) != wdLastProgress_)
        return ~std::uint64_t(0);
    return static_cast<std::uint64_t>((wdPollAt_ - sim_.now()) / (2 * half));
}

void
MBusSystem::passWatchdogPolls(sim::SimTime end, sim::SimTime half)
{
    if (!wdPoll_.pending() || wdPollAt_ >= end)
        return;
    const sim::SimTime interval = watchdogInterval();
    const sim::SimTime last =
        wdPollAt_ + (end - 1 - wdPollAt_) / interval * interval;
    wdLastBusy_ = true;
    wdLastAsleep_ = false;
    wdLastProgress_ = tailClkEpochAt(last, half);
    // Re-armed now, the next poll still comes after every event
    // already queued for its time and before every ring event the
    // run schedules for it later -- as when the last passed poll
    // would have scheduled it.
    wdPoll_.cancel();
    scheduleWatchdogPoll(last + interval);
}

MBusSystem::Stretch
MBusSystem::stretch(std::size_t tx, const SkipWindow &win)
{
    Stretch s;
    const std::size_t src = tx == ringSize() ? 0 : tx;
    s.start[0] = dataSegs_[src]->value();
    for (std::size_t l = 0; l < laneSegs_.size(); ++l)
        s.start[l + 1] = laneSegs_[l][src]->value();
    const auto w = static_cast<std::uint64_t>(cfg_.dataLanes);
    const std::uint64_t a = win.addrCycles();
    auto set = [this](std::uint64_t p) {
        windowLanes_[p / 8] |= static_cast<std::uint8_t>(0x80 >> (p % 8));
    };
    s.lanes = &windowLanes_;
    s.first = win.first;
    if (!win.msg) {
        // Bit p rides lane p % w from cycle 0: the lanes' levels,
        // repeating every w bytes.
        const std::uint64_t bytes = (win.cycles * w + 7) / 8;
        windowLanes_.assign(bytes, 0);
        for (std::uint64_t p = 0; p < 8 * std::min(bytes, w); ++p)
            if (s.start[p % w])
                set(p);
        for (std::uint64_t b = w; b < bytes; ++b)
            windowLanes_[b] = windowLanes_[b - w];
    } else if (win.first >= a) {
        s.lanes = &win.msg->payload;
        s.first = win.first - a;
    } else {
        // The address on lane 0 and every other lane's level, a * w
        // bits (whole bytes), then the payload the window reaches.
        windowLanes_.assign(a * w / 8, 0);
        for (std::uint64_t c = 0; c < a; ++c) {
            if (txWireBit(*win.msg, cfg_.dataLanes, c))
                set(c * w);
            for (std::uint64_t l = 1; l < w; ++l)
                if (s.start[l])
                    set(c * w + l);
        }
        const std::vector<std::uint8_t> &payload = win.msg->payload;
        const std::uint64_t reach = std::min<std::uint64_t>(
            payload.size(), (win.dataCycles() * w + 7) / 8);
        windowLanes_.insert(windowLanes_.end(), payload.begin(),
                            payload.begin() +
                                static_cast<std::ptrdiff_t>(reach));
    }
    s.run = laneTransitions(*s.lanes, cfg_.dataLanes, s.first, win.cycles,
                            s.start);
    return s;
}

double
MBusSystem::skipSavings(std::size_t tx, const SkipWindow &win)
{
    const double c = static_cast<double>(win.cycles);
    // A window opening in the address is often short (a waking
    // receiver ends it at its last address cycle), so it must pay with
    // its trains at their worst: each saves the whole trains inside
    // the skipped edges, not its share of them, less the one the skip
    // restarts.
    const bool worst = win.first < win.addrCycles();
    auto trains = [worst](double edges, std::uint32_t maxEdges) {
        const double share = sim::trainSkipSaving(edges, maxEdges);
        return worst ? std::floor(share) : share;
    };
    // Each ring segment's CLK train, and the member's CLK ISR train,
    // ride two edges a cycle; the skip restarts them.
    const double ring = static_cast<double>(ringSize());
    double saved = ring * trains(2 * c, kTrainMaxEdges);
    if (soft_)
        saved += trains(2 * c, kTrainMaxEdges);
    // So do the mediator's tick and ring-check trains.
    const double tick = 2 * trains(2 * c, kTickTrainEdges);
    // A long skip pays whatever its lanes cost (at most a warm-up a
    // segment each, below): a bound above 2, which covers the
    // mediator's trains at their worst, needs no lane scan.
    const double lanesWorst = sim::kBeatWarmUpEdges * ring * cfg_.dataLanes;
    if (saved - lanesWorst > 2)
        return saved - lanesWorst + tick;
    // Every segment of a DATA lane retires what its rider would on
    // the lane's transitions.
    const Stretch s = stretch(tx, win);
    const LaneRides rides = laneRides(*s.lanes, cfg_.dataLanes, s.first,
                                      win.cycles, s.start, kTrainMaxEdges);
    for (std::size_t l = 0; l < static_cast<std::size_t>(cfg_.dataLanes); ++l)
        saved += ring * sim::rideSkipSaving(rides.events[l], rides.onBeat[l]);
    // The member's DIN ISRs: one event per transition.
    if (soft_)
        saved += static_cast<double>(s.run.edges[0]);
    return saved + tick;
}

void
MBusSystem::skipWindow(std::size_t tx, const SkipWindow &win,
                       sim::SimTime half)
{
    const std::size_t n = nodes_.size();
    const sim::SimTime now = sim_.now();
    const auto cycles = static_cast<sim::SimTime>(win.cycles);
    passWatchdogPolls(now + 2 * cycles * half, half);
    const Stretch s = stretch(tx, win);
    const LaneRun &run = s.run;
    // With no transmitter the data are the lanes' levels.
    SkipWindow skip = win;
    skip.data = win.msg ? &win.msg->payload : s.lanes;
    // CLK keeps its beat: segment i forwarded the last skipped rising
    // edge i hops after the mediator drove it (plus the member's ISR
    // latency on its own segment), one half period before the
    // resumed falling tick. Segments skip first: a transmitter's
    // extra lanes then switch to driving at the level they already
    // hold.
    const sim::SimTime h = cfg_.hopDelay;
    const sim::SimTime lastRise = now + (2 * cycles - 1) * half;
    for (std::size_t i = 0; i < ringSize(); ++i) {
        const sim::SimTime lag = i == n ? soft_->clkIsrLatency() : 0;
        clkSegs_[i]->skipEdges(2 * win.cycles,
                               lastRise + static_cast<sim::SimTime>(i) * h +
                                   lag,
                               half);
        dataSegs_[i]->skipEdges(run.edges[0]);
        for (std::size_t l = 0; l < laneSegs_.size(); ++l)
            laneSegs_[l][i]->skipEdges(run.edges[l + 1]);
    }
    for (auto &node : nodes_)
        node->skipCycles(skip);
    if (soft_)
        soft_->skipCycles(skip, run.edges[0], run.last[0],
                          now + static_cast<sim::SimTime>(n) * h, half,
                          softDinDelay(tx));
    mediator_->skipLatches(skip);
}

void
MBusSystem::priceEnergy() const
{
    if (!finalized_)
        return;
    // A segment's edges are priced to the slot driving it; the chip
    // counters to the chip in it.
    for (std::size_t i = 0; i < ringSize(); ++i) {
        power::SlotCounts c;
        c.clkEdges = clkSegs_[i]->edgeEpoch();
        c.dataEdges = dataSegs_[i]->edgeEpoch();
        for (const auto &lane : laneSegs_)
            c.dataEdges += lane[i]->edgeEpoch();
        if (i < nodes_.size()) {
            const Node &node = *nodes_[i];
            const BusControllerStats &s = node.busController().stats();
            c.localClkEdges = node.localClock().edgeEpoch();
            c.fifoBits = s.fifoBits;
            c.driveCycles = s.driveCycles;
        }
        if (i == 0)
            c.mediatorCycles = mediator_->stats().clockCycles;
        energy_.priceSlot(ledger_, i, c);
    }
}

std::uint64_t
MBusSystem::dispatchCalls() const
{
    std::uint64_t calls = 0;
    forEachSegment(
        [&calls](wire::Net &seg) { calls += seg.dispatchCalls(); });
    return calls;
}

void
MBusSystem::dumpStats(std::ostream &os) const
{
    priceEnergy();
    os << "=== MBus system statistics @ "
       << sim::toSeconds(sim_.now()) << " s ===\n";
    const MediatorStats &m = mediator_->stats();
    os << "mediator: transactions=" << m.transactions
       << " interjections=" << m.interjections
       << " generalErrors=" << m.generalErrors
       << " watchdogKills=" << m.watchdogKills
       << " clockCycles=" << m.clockCycles << "\n";
    for (const auto &n : nodes_) {
        const BusControllerStats &s = n->busController().stats();
        os << n->name() << ": tx=" << s.messagesSent
           << " acked=" << s.messagesAcked
           << " naked=" << s.messagesNaked
           << " failed=" << s.messagesFailed
           << " rx=" << s.messagesReceived
           << " bytesTx=" << s.bytesSent
           << " bytesRx=" << s.bytesReceived
           << " arbLosses=" << s.arbitrationLosses
           << " priWins=" << s.priorityWins
           << " interjReq=" << s.interjectionsRequested
           << " wakeups=" << n->busDomain().wakeupCount() << "/"
           << n->layerDomain().wakeupCount() << "\n";
    }
    os << "energy: dynamic=" << ledger_.total() * 1e9
       << " nJ (sim scale), leakage=" << idleLeakageJ() * 1e9
       << " nJ over " << sim::toSeconds(sim_.now()) << " s\n";
    ledger_.report(os);
}

double
MBusSystem::idleLeakageJ() const
{
    return power::kIdleLeakagePerChipW *
           static_cast<double>(ringSize()) *
           sim::toSeconds(sim_.now());
}

} // namespace bus
} // namespace mbus
