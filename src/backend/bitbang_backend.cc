#include "backend/bitbang_backend.hh"

#include <algorithm>
#include <string>

#include "mbus/layer_controller.hh"
#include "mbus/system.hh"
#include "power/constants.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace mbus {
namespace backend {

namespace {

/** Fraction of the mixed-ring clock envelope the backend runs at;
 *  headroom for back-to-back CLK/DATA ISRs serializing on the one
 *  CPU (the ring budget is 2.5x the worst path for the same reason). */
constexpr double kClockHeadroom = 0.8;

} // namespace

BitbangBackend::BitbangBackend(sim::Simulator &sim,
                               const BusParams &params,
                               BackendKind kind)
    : sim_(sim), params_(params), kind_(kind),
      nodes_(static_cast<std::size_t>(params.nodes)),
      ledger_(nodes_),
      energy_(power::kSimCalibration,
              2 * power::kPadCapF +
                  (params.wireCapF >= 0 ? params.wireCapF
                                        : power::kWireCapF))
{
    if (params.nodes < 3 || params.nodes > 14)
        mbus_fatal("bitbang backend needs 3..14 nodes, got ",
                   params.nodes);

    firmware::FirmwareNode::Config fwCfg;
    fwCfg.shortPrefix = static_cast<std::uint8_t>(nodes_);
    fwCfg.rxCapacityBytes = params.softRxCapacity;
    fwCfg.isrJitterCycles = params.fwIsrJitterCycles;
    fwCfg.mergeMissedEdges = params.fwMergeMissedEdges;

    cfg_.hopDelay =
        static_cast<sim::SimTime>(params.hopDelayNs * 1000.0 + 0.5);
    cfg_.wireCapF = params.wireCapF;
    cfg_.dataLanes = 1; // The four-GPIO member is single-lane.
    cfg_.edgeTrains = params.edgeTrains;
    cfg_.chunkedDispatch = params.chunkedDispatch;
    // The software member's CLK ISR retirements coalesce under the
    // same switch (and train length) as the net-level trains.
    fwCfg.isrTrainMaxEdges = cfg_.edgeTrains ? cfg_.trainMaxEdges : 0;
    // The software member's response latency dominates the ring
    // round trip. Budget 2.5x its worst path: CLK and DATA edges can
    // land back-to-back and serialize on the single CPU.
    cfg_.extraRingLatency = 2 * fwCfg.cost.responseLatency() +
                            fwCfg.cost.responseLatency() / 2;
    // The ceiling probe deliberately overclocks the software member
    // past its ISR envelope; everything else stays clamped safe.
    cfg_.busClockHz =
        params.allowUnsafeClock
            ? params.busClockHz
            : std::min(params.busClockHz,
                       kClockHeadroom * maxSafeClockHz());

    for (std::size_t i = 0; i < nodes_; ++i) {
        std::string base = "n" + std::to_string(i);
        clkSegs_.push_back(std::make_unique<wire::Net>(
            sim_, base + ".CLK_OUT", cfg_.hopDelay, true));
        dataSegs_.push_back(std::make_unique<wire::Net>(
            sim_, base + ".DATA_OUT", cfg_.hopDelay, true));
    }
    // The mixed ring's segments carry the same rhythmic forwarded
    // runs as the pure-hardware ring (the software member retires
    // its output drives periodically while unstalled), so the same
    // net-level train batching and chunked tap dispatch apply.
    if (cfg_.edgeTrains) {
        for (auto &seg : clkSegs_)
            seg->enableEdgeTrains(cfg_.trainMaxEdges);
        for (auto &seg : dataSegs_)
            seg->enableEdgeTrains(cfg_.trainMaxEdges);
    }
    if (cfg_.chunkedDispatch) {
        for (auto &seg : clkSegs_)
            seg->setChunkedDispatch(true);
        for (auto &seg : dataSegs_)
            seg->setChunkedDispatch(true);
    }

    // Hardware chips 0..n-2; the software member drives segment n-1.
    for (std::size_t i = 0; i + 1 < nodes_; ++i) {
        bus::NodeConfig nc;
        nc.name = "n" + std::to_string(i);
        nc.fullPrefix = 0x500u + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        nc.powerGated = i != 0 && params.powerGated;
        nc.broadcastChannels |= 1u << bus::kChannelUserBase;
        nc.dataLanes = 1;
        hw_.push_back(std::make_unique<bus::Node>(
            sim_, cfg_, std::move(nc), i, ledger_, energy_));
    }

    for (std::size_t i = 0; i < nodes_; ++i) {
        taps_.push_back(std::make_unique<SegmentTap>(
            *this, i, power::EnergyCategory::SegmentClk));
        clkSegs_[i]->listenBatched(*taps_.back());
        taps_.push_back(std::make_unique<SegmentTap>(
            *this, i, power::EnergyCategory::SegmentData));
        dataSegs_[i]->listenBatched(*taps_.back());
    }

    link_ = std::make_unique<bus::MediatorHostLink>();
    for (std::size_t i = 0; i + 1 < nodes_; ++i) {
        std::size_t prev = (i + nodes_ - 1) % nodes_;
        hw_[i]->bind(*clkSegs_[prev], *clkSegs_[i], *dataSegs_[prev],
                     *dataSegs_[i], {}, {}, /*isMediatorHost=*/i == 0,
                     i == 0 ? link_.get() : nullptr);
    }
    fw_ = std::make_unique<firmware::FirmwareNode>(
        sim_, fwCfg, *clkSegs_[nodes_ - 2], *clkSegs_[nodes_ - 1],
        *dataSegs_[nodes_ - 2], *dataSegs_[nodes_ - 1]);

    bus::Mediator::Context mctx{sim_,
                                cfg_,
                                *clkSegs_[nodes_ - 1],
                                *dataSegs_[nodes_ - 1],
                                hw_[0]->clkWireController(),
                                hw_[0]->dataWireController(),
                                ledger_,
                                energy_,
                                /*nodeId=*/0,
                                /*ringSize=*/nodes_,
                                *link_};
    mediator_ = std::make_unique<bus::Mediator>(std::move(mctx));
    mediator_->arm();
    link_->requestInterjection = [this] {
        mediator_->hostInterjectionRequest();
    };

    // The host applies config-channel clock retiming, as in
    // MBusSystem::handleConfigBroadcast.
    hw_[0]->layer().addPreDispatchHandler(
        [this](const bus::ReceivedMessage &rx) {
            if (!rx.dest.isBroadcast() ||
                rx.dest.channel() != bus::kChannelConfig)
                return false;
            if (rx.payload.size() >= 5 &&
                rx.payload[0] == bus::kConfigCmdClockHz) {
                std::uint32_t hz =
                    (std::uint32_t(rx.payload[1]) << 24) |
                    (std::uint32_t(rx.payload[2]) << 16) |
                    (std::uint32_t(rx.payload[3]) << 8) |
                    std::uint32_t(rx.payload[4]);
                if (static_cast<double>(hz) <=
                    kClockHeadroom * maxSafeClockHz())
                    cfg_.busClockHz = hz;
            }
            return true;
        });
}

double
BitbangBackend::maxSafeClockHz() const
{
    double hop_s = sim::toSeconds(cfg_.hopDelay);
    double half_period_floor =
        hop_s * (static_cast<double>(nodes_) + 2.0) +
        sim::toSeconds(cfg_.extraRingLatency);
    return 1.0 / (2.0 * half_period_floor);
}

void
BitbangBackend::send(std::size_t node, bus::Message msg,
                     bus::SendCallback cb)
{
    if (isSoft(node)) {
        fw_->send(std::move(msg), std::move(cb));
        return;
    }
    hw_[node]->send(std::move(msg), std::move(cb));
}

void
BitbangBackend::interject(std::size_t node)
{
    // libmbus exposes no third-party interjection request; only
    // hardware members stomp the bus.
    if (!isSoft(node))
        hw_[node]->interject();
}

void
BitbangBackend::sleep(std::size_t node)
{
    // The software member's MCU polls its GPIOs and never gates.
    if (!isSoft(node))
        hw_[node]->sleep();
}

void
BitbangBackend::wake(std::size_t node)
{
    if (!isSoft(node))
        hw_[node]->wake();
}

std::size_t
BitbangBackend::pendingTx(std::size_t node) const
{
    if (isSoft(node))
        return fw_->pendingTx();
    return hw_[node]->busController().pendingTx();
}

void
BitbangBackend::retime(std::size_t node, double clockHz,
                       std::function<void()> done)
{
    double target =
        std::min(clockHz, kClockHeadroom * maxSafeClockHz());
    send(node, makeRetimeMessage(static_cast<std::uint32_t>(target)),
         [done](const bus::TxResult &) {
             if (done)
                 done();
         });
}

bus::Address
BitbangBackend::unicastAddress(std::size_t node, bool fullAddressing,
                               std::uint8_t fuId) const
{
    if (fullAddressing && !isSoft(node))
        return bus::Address::fullAddr(
            0x500u + static_cast<std::uint32_t>(node), fuId);
    // The software member decodes short addresses only.
    return bus::Address::shortAddr(
        static_cast<std::uint8_t>(node + 1), fuId);
}

void
BitbangBackend::setDeliveryHandler(DeliveryHandler h)
{
    for (std::size_t i = 0; i + 1 < nodes_; ++i) {
        bus::LayerController &layer = hw_[i]->layer();
        if (!h) {
            layer.setMailboxHandler(nullptr);
            layer.setBroadcastHandler(nullptr);
            continue;
        }
        layer.setMailboxHandler(
            [h, i](const bus::ReceivedMessage &rx) { h(i, rx); });
        layer.setBroadcastHandler(
            [h, i](std::uint8_t channel,
                   const bus::ReceivedMessage &rx) {
                if (channel >= bus::kChannelUserBase)
                    h(i, rx);
            });
    }
    bus::ReceiveCallback softCb;
    if (h) {
        std::size_t soft = softIndex();
        softCb = [h, soft](const bus::ReceivedMessage &rx) {
            // Filter system broadcasts (enumeration/config channels),
            // as the hardware nodes' broadcast handler does above.
            if (rx.dest.isBroadcast() &&
                rx.dest.channel() < bus::kChannelUserBase)
                return;
            h(soft, rx);
        };
    }
    fw_->setReceiveCallback(std::move(softCb));
}

bool
BitbangBackend::runUntilIdle(sim::SimTime timeout)
{
    sim::SimTime limit = timeout == sim::kTimeForever
                             ? sim::kTimeForever
                             : sim_.now() + timeout;
    return sim_.runUntil(
        [this] {
            if (!mediator_->asleep() || !fw_->idle())
                return false;
            for (auto &n : hw_) {
                if (n->sleepController().transactionActive() ||
                    n->busController().pendingTx() > 0)
                    return false;
            }
            return true;
        },
        limit);
}

void
BitbangBackend::attachTrace(sim::TraceRecorder &recorder)
{
    for (auto &seg : clkSegs_)
        seg->trace(recorder);
    for (auto &seg : dataSegs_)
        seg->trace(recorder);
}

double
BitbangBackend::softCpuEnergyJ() const
{
    return static_cast<double>(fw_->stats().cyclesSpent) *
           power::kProcessorEnergyPerCycleJ;
}

void
BitbangBackend::flushSegs() const
{
    for (auto &seg : clkSegs_)
        seg->flushDeferred();
    for (auto &seg : dataSegs_)
        seg->flushDeferred();
}

double
BitbangBackend::switchingJ() const
{
    flushSegs();
    return ledger_.total() + softCpuEnergyJ();
}

double
BitbangBackend::leakageJ() const
{
    return power::kIdleLeakagePerChipW *
           static_cast<double>(nodes_) * sim::toSeconds(sim_.now());
}

double
BitbangBackend::nodeEnergyJ(std::size_t node) const
{
    flushSegs();
    double j = ledger_.nodeTotal(node);
    if (isSoft(node))
        j += softCpuEnergyJ();
    return j;
}

double
BitbangBackend::poweredSeconds(std::size_t node) const
{
    if (isSoft(node))
        return sim::toSeconds(sim_.now()); // Always-on MCU.
    return sim::toSeconds(hw_[node]->layerDomain().poweredTime());
}

std::uint64_t
BitbangBackend::nodeEdges(std::size_t node) const
{
    return clkSegs_[node]->transitions() +
           dataSegs_[node]->transitions();
}

std::uint64_t
BitbangBackend::clockCycles() const
{
    return mediator_->stats().clockCycles;
}

std::uint64_t
BitbangBackend::dispatchCalls() const
{
    flushSegs();
    std::uint64_t total = 0;
    for (auto &seg : clkSegs_)
        total += seg->dispatchCalls();
    for (auto &seg : dataSegs_)
        total += seg->dispatchCalls();
    return total;
}

// --- Fault injection -------------------------------------------------

wire::Net &
BitbangBackend::faultSegment(std::size_t node, int lane)
{
    // The mixed ring is single-lane: lane 0 is CLK, anything else
    // maps to DATA.
    return lane <= 0 ? *clkSegs_[node] : *dataSegs_[node];
}

int &
BitbangBackend::forceDepth(std::size_t node, int lane)
{
    if (forceDepth_.empty())
        forceDepth_.assign(nodes_ * 2, 0);
    return forceDepth_[node * 2 + (lane <= 0 ? 0u : 1u)];
}

void
BitbangBackend::injectWireForce(std::size_t node, int lane,
                                bool level)
{
    if (node >= nodes_)
        return;
    ++forceDepth(node, lane);
    faultSegment(node, lane).force(level);
}

void
BitbangBackend::injectWireRelease(std::size_t node, int lane)
{
    if (node >= nodes_)
        return;
    int &depth = forceDepth(node, lane);
    if (depth == 0)
        return;
    if (--depth == 0)
        faultSegment(node, lane).release();
}

void
BitbangBackend::injectGlitch(std::size_t node, int lane, int pulses)
{
    if (node >= nodes_ || pulses <= 0)
        return;
    sim::SimTime width = cfg_.hopDelay / 2;
    if (width == 0)
        width = 1;
    for (int i = 0; i < pulses; ++i) {
        sim_.schedule(2 * width * static_cast<sim::SimTime>(i),
                      [this, node, lane] {
                          if (forceDepth(node, lane) > 0)
                              return;
                          wire::Net &seg = faultSegment(node, lane);
                          seg.force(!seg.value());
                      });
        sim_.schedule(2 * width * static_cast<sim::SimTime>(i) +
                          width,
                      [this, node, lane] {
                          if (forceDepth(node, lane) > 0)
                              return;
                          faultSegment(node, lane).release();
                      });
    }
}

void
BitbangBackend::injectEdgeDrop(std::size_t node, int lane, int pulses)
{
    if (node >= nodes_ || pulses <= 0)
        return;
    faultSegment(node, lane)
        .dropEdges(static_cast<std::uint32_t>(pulses));
}

void
BitbangBackend::setClockDriftFactor(double factor)
{
    cfg_.clockDriftFactor = factor > 0 ? factor : 1.0;
}

void
BitbangBackend::brownout(std::size_t node)
{
    // Neither the mediator host nor the software member (whose MCU
    // is the always-on engine of the mixed ring) is a fault target.
    if (node == 0 || node >= nodes_ || isSoft(node))
        return;
    bus::Node &n = *hw_[node];
    n.busController().powerFail();
    n.clkWireController().forward();
    n.dataWireController().forward();
    if (n.config().powerGated)
        n.sleep();
}

void
BitbangBackend::brownoutRecover(std::size_t node)
{
    if (node == 0 || node >= nodes_ || isSoft(node))
        return;
    bus::Node &n = *hw_[node];
    if (n.config().powerGated && !n.awake())
        n.wake();
}

void
BitbangBackend::armWatchdog(std::uint32_t epochs)
{
    if (epochs == 0 || watchdogEpochs_ != 0)
        return;
    watchdogEpochs_ = epochs;
    scheduleWatchdogPoll();
}

void
BitbangBackend::scheduleWatchdogPoll()
{
    sim::SimTime interval =
        watchdogEpochs_ * sim::periodFromHz(cfg_.busClockHz);
    sim_.schedule(interval, [this] { watchdogPoll(); });
}

void
BitbangBackend::watchdogPoll()
{
    flushSegs();
    std::uint64_t progress = clkSegs_[nodes_ - 1]->edgeEpoch();
    // "Busy" must cover every state runUntilIdle() waits out. In
    // particular the software member can be stranded mid-receive with
    // an empty queue when a fault swallowed the edges it was counting
    // -- the forced control sequence is what clocks it back to Idle.
    bool busy = !mediator_->asleep() || !fw_->idle();
    for (std::size_t i = 0; i + 1 < nodes_ && !busy; ++i)
        busy = hw_[i]->busController().pendingTx() > 0 ||
               hw_[i]->sleepController().transactionActive();
    // Two stall shapes, both needing two consecutive busy polls:
    // frozen CLK (broken ring, dead transmitter), and CLK edges
    // arriving while the mediator sleeps -- a glitch pulse orbiting
    // the forwarding ring, clocking phantom bits into every FSM. No
    // transaction can make real progress without the mediator, so a
    // sleeping mediator over two whole poll intervals is a stall no
    // matter what the edge counter does.
    bool asleep = mediator_->asleep();
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
    scheduleWatchdogPoll();
}

} // namespace backend
} // namespace mbus
