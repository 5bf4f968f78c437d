#include "backend/mbus_backend.hh"

#include <algorithm>
#include <string>

#include "mbus/layer_controller.hh"
#include "power/constants.hh"
#include "sim/logging.hh"

namespace mbus {
namespace backend {

MbusBackend::MbusBackend(sim::Simulator &sim, const BusParams &params,
                         BackendKind kind)
    : kind_(kind)
{
    const bool mixed =
        kind == BackendKind::Bitbang || kind == BackendKind::Firmware;
    if (mixed && (params.nodes < 3 || params.nodes > 14))
        mbus_fatal("bitbang backend needs 3..14 nodes, got ",
                   params.nodes);

    bus::SystemConfig cfg;
    cfg.busClockHz = params.busClockHz;
    cfg.hopDelay = hopDelayFromNs(params.hopDelayNs);
    cfg.dataLanes = mixed ? 1 : params.dataLanes;
    cfg.wireCapF = params.wireCapF;
    cfg.edgeTrains = params.edgeTrains;
    cfg.chunkedDispatch = params.chunkedDispatch;
    cfg.fastForward = params.fastForward;

    system_ = std::make_unique<bus::MBusSystem>(sim, cfg);
    const int chips = mixed ? params.nodes - 1 : params.nodes;
    for (int i = 0; i < chips; ++i) {
        bus::NodeConfig nc;
        nc.name = "n" + std::to_string(i);
        nc.fullPrefix = kFullPrefixBase + static_cast<std::uint32_t>(i);
        nc.staticShortPrefix = static_cast<std::uint8_t>(i + 1);
        // Node 0 hosts the mediator and stays on; members follow the
        // params so gated cells exercise the bus-driven wakeup path.
        nc.powerGated = i != 0 && params.powerGated;
        nc.broadcastChannels |= 1u << bus::kChannelUserBase;
        system_->addNode(nc);
    }
    if (mixed) {
        firmware::FirmwareNode::Config fw;
        fw.shortPrefix = static_cast<std::uint8_t>(params.nodes);
        fw.rxCapacityBytes = params.softRxCapacity;
        fw.isrJitterCycles = params.fwIsrJitterCycles;
        fw.mergeMissedEdges = params.fwMergeMissedEdges;
        system_->addSoftMember(fw, "n" + std::to_string(chips));
        // The mixed ring starts inside its ceiling; the hardware ring
        // is not clamped (finalize() rejects an unsafe clock).
        double &clock = system_->config().busClockHz;
        clock = std::min(clock, system_->clockCeilingHz());
    }
    system_->finalize();
    // The ceiling probe deliberately overclocks the software member
    // past its ISR envelope; everything else stays clamped safe.
    if (mixed && params.allowUnsafeClock)
        system_->config().busClockHz = params.busClockHz;
}

void
MbusBackend::send(std::size_t node, bus::Message msg,
                  bus::SendCallback cb)
{
    if (isSoft(node))
        system_->softMember()->send(std::move(msg), std::move(cb));
    else
        system_->node(node).send(std::move(msg), std::move(cb));
}

void
MbusBackend::interject(std::size_t node)
{
    // libmbus exposes no third-party interjection request; only
    // hardware members stomp the bus.
    if (!isSoft(node))
        system_->node(node).interject();
}

void
MbusBackend::sleep(std::size_t node)
{
    // The software member's MCU polls its GPIOs and never gates.
    if (!isSoft(node))
        system_->node(node).sleep();
}

void
MbusBackend::wake(std::size_t node)
{
    if (!isSoft(node))
        system_->node(node).wake();
}

std::size_t
MbusBackend::pendingTx(std::size_t node) const
{
    if (isSoft(node))
        return system_->softMember()->pendingTx();
    return system_->node(node).busController().pendingTx();
}

void
MbusBackend::retime(std::size_t node, double clockHz,
                    std::function<void()> done)
{
    double limit = system_->softMember()
                       ? system_->clockCeilingHz()
                       : 0.999 * system_->maxSafeClockHz();
    send(node,
         makeRetimeMessage(
             static_cast<std::uint32_t>(std::min(clockHz, limit))),
         [done](const bus::TxResult &) {
             if (done)
                 done();
         });
}

bus::Address
MbusBackend::unicastAddress(std::size_t node, bool fullAddressing,
                            std::uint8_t fuId) const
{
    // The software member decodes short addresses only.
    if (fullAddressing && !isSoft(node))
        return system_->node(node).fullAddress(fuId);
    return bus::Address::shortAddr(
        static_cast<std::uint8_t>(node + 1), fuId);
}

void
MbusBackend::setDeliveryHandler(DeliveryHandler h)
{
    for (std::size_t i = 0; i < system_->nodeCount(); ++i) {
        bus::LayerController &layer = system_->node(i).layer();
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
                // Enumeration/config broadcasts (channels 0/1) are
                // system traffic, not application deliveries.
                if (channel >= bus::kChannelUserBase)
                    h(i, rx);
            });
    }
    firmware::FirmwareNode *soft = system_->softMember();
    if (!soft)
        return;
    bus::ReceiveCallback softCb;
    if (h) {
        softCb = [h, i = softIndex()](const bus::ReceivedMessage &rx) {
            // The same system-broadcast filter as the chips' above.
            if (rx.dest.isBroadcast() &&
                rx.dest.channel() < bus::kChannelUserBase)
                return;
            h(i, rx);
        };
    }
    soft->setReceiveCallback(std::move(softCb));
}

bool
MbusBackend::runUntilIdle(sim::SimTime timeout)
{
    return system_->runUntilIdle(timeout);
}

void
MbusBackend::attachTrace(sim::TraceRecorder &recorder)
{
    system_->attachTrace(recorder);
}

double
MbusBackend::softCpuEnergyJ() const
{
    const firmware::FirmwareNode *soft = system_->softMember();
    return soft ? static_cast<double>(soft->stats().cyclesSpent) *
                      power::kProcessorEnergyPerCycleJ
                : 0.0;
}

double
MbusBackend::switchingJ() const
{
    return system_->ledger().total() + softCpuEnergyJ();
}

double
MbusBackend::leakageJ() const
{
    return system_->idleLeakageJ();
}

double
MbusBackend::nodeEnergyJ(std::size_t node) const
{
    return system_->ledger().nodeTotal(node) +
           (isSoft(node) ? softCpuEnergyJ() : 0.0);
}

double
MbusBackend::poweredSeconds(std::size_t node) const
{
    if (isSoft(node)) // Always-on MCU.
        return sim::toSeconds(system_->simulator().now());
    return sim::toSeconds(
        system_->node(node).layerDomain().poweredTime());
}

std::uint64_t
MbusBackend::nodeEdges(std::size_t node) const
{
    std::uint64_t edges = system_->clkSegment(node).transitions() +
                          system_->dataSegment(node).transitions();
    for (int l = 1; l < system_->config().dataLanes; ++l)
        edges += system_->laneSegment(l, node).transitions();
    return edges;
}

std::uint64_t
MbusBackend::clockCycles() const
{
    return system_->mediator().stats().clockCycles;
}

std::uint64_t
MbusBackend::dispatchCalls() const
{
    return system_->dispatchCalls();
}

// --- Fault injection -------------------------------------------------

wire::Net &
MbusBackend::faultSegment(std::size_t node, int lane)
{
    // Lanes the ring lacks alias DATA.
    if (lane <= 0)
        return system_->clkSegment(node);
    if (lane >= 2 && lane - 1 < system_->config().dataLanes)
        return system_->laneSegment(lane - 1, node);
    return system_->dataSegment(node);
}

void
MbusBackend::injectWireForce(std::size_t node, int lane, bool level)
{
    if (node >= nodeCount())
        return;
    wire::Net &seg = faultSegment(node, lane);
    ++forceDepth_[&seg];
    seg.force(level); // Last hold wins overlap.
}

void
MbusBackend::injectWireRelease(std::size_t node, int lane)
{
    if (node >= nodeCount())
        return;
    wire::Net &seg = faultSegment(node, lane);
    int &depth = forceDepth_[&seg];
    if (depth == 0)
        return;
    if (--depth == 0)
        seg.release();
}

void
MbusBackend::injectGlitch(std::size_t node, int lane, int pulses)
{
    if (node >= nodeCount() || pulses <= 0)
        return;
    // Sub-hop-delay runts: force the opposite value for half a hop
    // delay, then snap back -- unless a stuck-at is (or becomes)
    // active on the segment, which masks the glitch.
    sim::SimTime width = system_->config().hopDelay / 2;
    if (width == 0)
        width = 1;
    sim::Simulator &sim = system_->simulator();
    wire::Net *seg = &faultSegment(node, lane);
    for (int i = 0; i < pulses; ++i) {
        sim.schedule(2 * width * static_cast<sim::SimTime>(i),
                     [this, seg] {
                         if (forceDepth_[seg] > 0)
                             return;
                         seg->force(!seg->value());
                     });
        sim.schedule(2 * width * static_cast<sim::SimTime>(i) + width,
                     [this, seg] {
                         if (forceDepth_[seg] > 0)
                             return;
                         seg->release();
                     });
    }
}

void
MbusBackend::injectEdgeDrop(std::size_t node, int lane, int pulses)
{
    if (node >= nodeCount() || pulses <= 0)
        return;
    faultSegment(node, lane)
        .dropEdges(static_cast<std::uint32_t>(pulses));
}

void
MbusBackend::setClockDriftFactor(double factor)
{
    system_->config().clockDriftFactor = factor > 0 ? factor : 1.0;
}

void
MbusBackend::brownout(std::size_t node)
{
    // Node 0 hosts the mediator: cutting it is cutting the bus, not
    // a member failure, so it is out of scope for the fault model.
    // So is the software member (the last slot, past every chip),
    // whose MCU is the always-on engine of the mixed ring.
    if (node == 0 || node >= system_->nodeCount())
        return;
    system_->node(node).brownout();
}

void
MbusBackend::brownoutRecover(std::size_t node)
{
    if (node == 0 || node >= system_->nodeCount())
        return;
    bus::Node &n = system_->node(node);
    if (n.config().powerGated && !n.awake())
        n.wake();
}

} // namespace backend
} // namespace mbus
