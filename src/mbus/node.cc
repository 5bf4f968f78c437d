#include "mbus/node.hh"

#include <utility>

#include "sim/logging.hh"

namespace mbus {
namespace bus {

Node::Node(sim::Simulator &sim, const SystemConfig &sysCfg, NodeConfig cfg,
           std::size_t id)
    : sim_(sim), sysCfg_(sysCfg), cfg_(std::move(cfg)), id_(id)
{
    aonDomain_ = std::make_unique<power::PowerDomain>(
        sim_, cfg_.name + ".aon", /*initiallyActive=*/true);
    busDomain_ = std::make_unique<power::PowerDomain>(
        sim_, cfg_.name + ".bus_ctrl",
        /*initiallyActive=*/!cfg_.powerGated);
    layerDomain_ = std::make_unique<power::PowerDomain>(
        sim_, cfg_.name + ".layer",
        /*initiallyActive=*/!cfg_.powerGated);
    busDomain_->setTraceTag(static_cast<int>(id_), 0);
    layerDomain_->setTraceTag(static_cast<int>(id_), 1);
}

void
Node::bind(wire::Net &clkIn, wire::Net &clkOut, wire::Net &dataIn,
           wire::Net &dataOut, std::vector<wire::Net *> laneIns,
           std::vector<wire::Net *> laneOuts, bool isMediatorHost,
           MediatorHostLink *medLink)
{
    // Subscription order on the nets is load-bearing (a net fans an
    // edge out in subscription order): wire controllers first so
    // forwarding precedes protocol work on the same edge, then the
    // detector, then the sleep controller whose hook drives the bus
    // controller.
    // With chunked dispatch the controllers mute their input
    // subscription while in Drive mode (where onInput is provably a
    // no-op), skipping the virtual call per ignored edge.
    const bool mute = sysCfg_.chunkedDispatch;
    wcClk_ = std::make_unique<WireController>(clkIn, clkOut, mute);
    wcData_ = std::make_unique<WireController>(dataIn, dataOut, mute);
    for (std::size_t l = 0; l < laneIns.size(); ++l) {
        wcLanes_.push_back(std::make_unique<WireController>(
            *laneIns[l], *laneOuts[l], mute));
    }

    // The mediator host's protocol logic clocks off the chip's own
    // driven output (the mediator generates CLK); members clock off
    // their input pad.
    wire::Net &localClk = isMediatorHost ? clkOut : clkIn;
    localClk_ = &localClk;

    detector_ = std::make_unique<InterjectionDetector>(
        localClk, dataIn, /*pullClkEpoch=*/sysCfg_.chunkedDispatch);
    sleepCtl_ = std::make_unique<SleepController>(localClk, *busDomain_);
    intCtl_ = std::make_unique<InterruptController>(localClk, *wcData_);

    BusControllerContext ctx{
        sim_,     sysCfg_,   localClk,      dataIn,
        *wcClk_,  *wcData_,  {},            {},
        *sleepCtl_, *intCtl_, *busDomain_,  *layerDomain_,
        id_,      isMediatorHost, medLink};
    for (auto &lane : laneIns)
        ctx.laneIns.push_back(lane);
    for (auto &wc : wcLanes_)
        ctx.laneCtls.push_back(wc.get());

    busCtl_ = std::make_unique<BusController>(std::move(ctx), cfg_);
    layerCtl_ = std::make_unique<LayerController>(sim_, *busCtl_,
                                                  *layerDomain_, sysCfg_);

    sleepCtl_->setEdgeSink(*busCtl_);
    detector_->setOnInterjection(
        [this] { busCtl_->onInterjectionDetected(); });
    busDomain_->setOnShutdown([this] { busCtl_->onPowerLost(); });
    busCtl_->setReceiveCallback(
        [this](const ReceivedMessage &rx) { layerCtl_->onReceive(rx); });
    layerCtl_->addPreDispatchHandler(
        [this](const ReceivedMessage &rx) {
            return handlePreDispatch(rx);
        });

    // The mutable-priority break needs each local CLK edge at its own
    // time (see onNetEdge()).
    if (sysCfg_.useNodeArbBreak)
        localClk.listen(wire::Edge::Any, *this);
}

void
Node::skipCycles(const SkipWindow &win)
{
    // The arb-break logic and the interrupt controller's null-
    // transaction release are idle past the arbitration cycle.
    sleepCtl_->skipCycles(static_cast<std::uint32_t>(win.cycles));
    busCtl_->skipCycles(win);
}

void
Node::onNetEdge(wire::Net &, bool rising)
{
    // Mutable-priority break (Sec 7): one bit of always-on wire
    // logic that, when this node holds the break role, parks DATA
    // high for the arbitration cycle.
    if (rising)
        return;
    std::uint32_t f = sleepCtl_->fallingCount();
    if (f == 1 && arbBreakRole_ && wcData_->forwarding()) {
        // First falling edge of the transaction: break the ring here
        // (unless this node is itself requesting -- its driven-low
        // request already is the break).
        wcData_->drive(true);
        arbBreakDriving_ = true;
    } else if (f == 2 && arbBreakDriving_) {
        arbBreakDriving_ = false;
        wcData_->forward();
    }
}

void
Node::send(Message msg, SendCallback cb)
{
    if (!layerDomain_->active())
        wake(); // Sending implies the application is running.
    busCtl_->send(std::move(msg), std::move(cb), false);
}

void
Node::sendCancelOnArbLoss(Message msg, SendCallback cb)
{
    if (!layerDomain_->active())
        wake();
    busCtl_->send(std::move(msg), std::move(cb), true);
}

void
Node::assertInterrupt()
{
    intCtl_->assertInterrupt();
}

void
Node::sleep()
{
    if (!cfg_.powerGated)
        return;
    layerDomain_->shutdown();
    if (busCtl_->busIdle() && busCtl_->pendingTx() == 0)
        busDomain_->shutdown();
}

void
Node::brownout()
{
    busCtl_->powerFail();
    wcClk_->forward();
    wcData_->forward();
    for (auto &lane : wcLanes_)
        lane->forward();
    sleep();
}

void
Node::wake()
{
    layerDomain_->wakeImmediately();
}

Address
Node::address(std::uint8_t fuId) const
{
    if (!busCtl_->hasShortPrefix())
        mbus_fatal("node ", cfg_.name,
                   " has no short prefix; enumerate first or use "
                   "fullAddress()");
    return Address::shortAddr(busCtl_->shortPrefix(), fuId);
}

bool
Node::handlePreDispatch(const ReceivedMessage &rx)
{
    // Enumeration responder (Sec 4.7), channel 0.
    if (!rx.dest.isBroadcast() || rx.dest.channel() != kChannelEnumerate)
        return false;
    if (rx.payload.size() < 3 || rx.payload[0] != 0x01)
        return false;
    if (busCtl_->hasShortPrefix())
        return true; // Assigned nodes stay silent.

    std::uint8_t proposed = rx.payload[1];
    Address reply_to = Address::decodeShort(rx.payload[2]);

    // Identification reply: our 20-bit full prefix. All unassigned
    // nodes reply; arbitration picks the topological winner, and only
    // the winner (ACKed reply) adopts the proposed prefix. Losers
    // cancel and wait for the next ENUMERATE round.
    Message reply;
    reply.dest = reply_to;
    reply.payload = {
        0x02,
        static_cast<std::uint8_t>((cfg_.fullPrefix >> 16) & 0xFF),
        static_cast<std::uint8_t>((cfg_.fullPrefix >> 8) & 0xFF),
        static_cast<std::uint8_t>(cfg_.fullPrefix & 0xFF),
    };
    busCtl_->send(std::move(reply),
                  [this, proposed](const TxResult &result) {
                      if (result.status == TxStatus::Ack)
                          busCtl_->setShortPrefix(proposed);
                  },
                  /*cancelOnArbLoss=*/true);
    return true;
}

} // namespace bus
} // namespace mbus
