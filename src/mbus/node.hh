/**
 * @file
 * An MBus node: one chip on the ring.
 *
 * Composes the module structure of Figure 8 with its three
 * hierarchical power domains:
 *
 *   - always-on ("green"): wire controllers, sleep controller,
 *     interrupt controller, interjection detector;
 *   - bus ("red"): the bus controller, powered during transactions;
 *   - layer ("blue"): the layer controller and local clock, powered
 *     only while the node is active.
 *
 * Non-power-gated nodes (NodeConfig::powerGated = false) model
 * power-oblivious chips: both gated domains stay permanently on, and
 * the node still interoperates seamlessly (Sec 3, Interoperability).
 */

#ifndef MBUS_BUS_NODE_HH
#define MBUS_BUS_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mbus/bus_controller.hh"
#include "mbus/config.hh"
#include "mbus/interjection_detector.hh"
#include "mbus/interrupt_controller.hh"
#include "mbus/layer_controller.hh"
#include "mbus/message.hh"
#include "mbus/sleep_controller.hh"
#include "mbus/wire_controller.hh"
#include "power/domain.hh"
#include "sim/simulator.hh"
#include "wire/net.hh"

namespace mbus {
namespace bus {

/**
 * One chip on the MBus ring.
 *
 * Under SystemConfig::useNodeArbBreak the node itself listens to its
 * local clock: one bit of always-on logic for the mutable-priority
 * arbitration break (Sec 7).
 */
class Node : private wire::EdgeListener
{
  public:
    Node(sim::Simulator &sim, const SystemConfig &sysCfg, NodeConfig cfg,
         std::size_t id);

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    /**
     * Attach the node to its ring segments and build the controller
     * stack. Called once by MBusSystem::finalize().
     *
     * @param isMediatorHost True for the chip hosting the mediator.
     * @param medLink Shared host/mediator coordination flags (only
     *        for the host; nullptr otherwise).
     */
    void bind(wire::Net &clkIn, wire::Net &clkOut, wire::Net &dataIn,
              wire::Net &dataOut, std::vector<wire::Net *> laneIns,
              std::vector<wire::Net *> laneOuts, bool isMediatorHost,
              MediatorHostLink *medLink);

    // --- Application API -------------------------------------------------

    /** Queue a message for transmission. */
    void send(Message msg, SendCallback cb = nullptr);

    /** Queue a message that is dropped if arbitration is lost. */
    void sendCancelOnArbLoss(Message msg, SendCallback cb = nullptr);

    /** Assert the always-on interrupt port (Sec 4.5). */
    void assertInterrupt();

    /** Third-party interjection of the current transaction (Sec 7). */
    void interject() { busCtl_->interject(); }

    /**
     * Mutable-priority support (Sec 7): make this node's always-on
     * wire logic provide the arbitration ring break, so topological
     * priority starts just downstream of it. Requires
     * SystemConfig::useNodeArbBreak; at most one node may hold the
     * role at a time (MBusSystem::setArbBreakNode manages this).
     */
    void
    setArbBreakRole(bool enabled)
    {
        arbBreakRole_ = enabled;
        busCtl_->setArbBreakSelf(enabled);
    }

    /** Gate the layer (and the bus controller if idle). */
    void sleep();

    /**
     * Hard brownout mid-transaction: the gateable domains die with
     * their in-flight state and queued sends end TxStatus::Reset
     * (BusController::powerFail); the always-on wire controllers
     * survive and fall back to forwarding, as a powered mux with a
     * dead control domain does; a gated chip then sleeps.
     */
    void brownout();

    /** Locally wake the layer (app decision, not bus-driven). */
    void wake();

    /** True while the layer domain is fully awake. */
    bool awake() const { return layerDomain_->active(); }

    /**
     * Fast-forward: advance the sleep controller, the bus controller
     * and the always-on edge logic across the cycles of @p win (see
     * BusController::skipCycles). Ring segments skip their own edges,
     * first.
     */
    void skipCycles(const SkipWindow &win);

    // --- Identity / component access ----------------------------------

    std::size_t id() const { return id_; }
    const NodeConfig &config() const { return cfg_; }
    const std::string &name() const { return cfg_.name; }

    /** The net the chip's protocol logic clocks off: its CLK output
     *  on the mediator host, its CLK input on a member. */
    const wire::Net &localClock() const { return *localClk_; }

    BusController &busController() { return *busCtl_; }
    const BusController &busController() const { return *busCtl_; }
    LayerController &layer() { return *layerCtl_; }
    SleepController &sleepController() { return *sleepCtl_; }

    power::PowerDomain &busDomain() { return *busDomain_; }
    power::PowerDomain &layerDomain() { return *layerDomain_; }

    WireController &clkWireController() { return *wcClk_; }
    WireController &dataWireController() { return *wcData_; }

    /** Extra parallel-lane wire controllers (lanes beyond DATA0). */
    std::size_t laneWireControllers() const { return wcLanes_.size(); }
    WireController &laneWireController(std::size_t lane)
    {
        return *wcLanes_.at(lane);
    }

    /** Assigned or static short prefix (0 if none). */
    std::uint8_t shortPrefix() const { return busCtl_->shortPrefix(); }

    /** This node's short unicast address for @p fuId. */
    Address address(std::uint8_t fuId) const;

    /** This node's full (32-bit) address for @p fuId. */
    Address
    fullAddress(std::uint8_t fuId) const
    {
        return Address::fullAddr(cfg_.fullPrefix, fuId);
    }

  private:
    void onNetEdge(wire::Net &net, bool rising) override;
    bool handlePreDispatch(const ReceivedMessage &rx);

    sim::Simulator &sim_;
    const SystemConfig &sysCfg_;
    NodeConfig cfg_;
    std::size_t id_;
    const wire::Net *localClk_ = nullptr;

    std::unique_ptr<power::PowerDomain> aonDomain_;
    std::unique_ptr<power::PowerDomain> busDomain_;
    std::unique_ptr<power::PowerDomain> layerDomain_;

    std::unique_ptr<WireController> wcClk_;
    std::unique_ptr<WireController> wcData_;
    std::vector<std::unique_ptr<WireController>> wcLanes_;
    std::unique_ptr<InterjectionDetector> detector_;
    std::unique_ptr<SleepController> sleepCtl_;
    std::unique_ptr<InterruptController> intCtl_;
    std::unique_ptr<BusController> busCtl_;
    std::unique_ptr<LayerController> layerCtl_;

    // Mutable-priority state (one bit of always-on wire logic).
    bool arbBreakRole_ = false;
    bool arbBreakDriving_ = false;
};

} // namespace bus
} // namespace mbus

#endif // MBUS_BUS_NODE_HH
