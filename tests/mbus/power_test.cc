/**
 * @file
 * Power-oblivious communication tests (Secs 4.4, 4.5):
 * bus-driven wakeup, selective layer power-on, self-wake via null
 * transactions, and interoperation with power-oblivious chips.
 */

#include <gtest/gtest.h>

#include "mbus/system.hh"
#include "tests/mbus/testutil.hh"

using namespace mbus;
using namespace mbus::test;

namespace {

struct Fixture
{
    sim::Simulator simulator;
    bus::MBusSystem system{simulator};
};

} // namespace

TEST(Power, GatedRecipientWakesAndReceives)
{
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("sensor", 0x222, 2, true));
    f.system.addNode(nodeCfg("radio", 0x333, 3, true));
    f.system.finalize();

    bus::Node &sensor = f.system.node(1);
    EXPECT_TRUE(sensor.busDomain().off());
    EXPECT_TRUE(sensor.layerDomain().off());

    std::vector<std::uint8_t> seen;
    sensor.layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload = {0x77};
    auto result = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(50 * sim::kMillisecond);

    EXPECT_EQ(seen, msg.payload);
    // The recipient's layer woke exactly once, via the bus.
    EXPECT_EQ(sensor.layerDomain().wakeupCount(), 1u);
    EXPECT_GE(sensor.busDomain().wakeupCount(), 1u);
}

TEST(Power, OnlyTheDestinationLayerPowersOn)
{
    // Sec 4.4: "the receiving node and only the receiving node will
    // be powered on to receive the message."
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("sensor", 0x222, 2, true));
    f.system.addNode(nodeCfg("radio", 0x333, 3, true));
    f.system.finalize();

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload = {0x01};
    f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    f.system.runUntilIdle(50 * sim::kMillisecond);
    // Let the post-idle power-down window run.
    f.simulator.run(f.simulator.now() + 10 * sim::kMillisecond);

    EXPECT_EQ(f.system.node(1).layerDomain().wakeupCount(), 1u);
    EXPECT_EQ(f.system.node(2).layerDomain().wakeupCount(), 0u);
    EXPECT_TRUE(f.system.node(2).layerDomain().off());
    // The radio's bus controller did wake (to track the bus) but
    // went back down once idle.
    EXPECT_GE(f.system.node(2).busDomain().wakeupCount(), 1u);
    EXPECT_TRUE(f.system.node(2).busDomain().off());
}

TEST(Power, BusControllersGateAgainAfterTransaction)
{
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("a", 0x222, 2, true));
    f.system.addNode(nodeCfg("b", 0x333, 3, true));
    f.system.finalize();

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    f.system.runUntilIdle(50 * sim::kMillisecond);
    // Give the post-idle window time to run.
    f.simulator.run(f.simulator.now() + 10 * sim::kMillisecond);

    EXPECT_TRUE(f.system.node(2).busDomain().off());
    // The recipient keeps its layer on (application decides when to
    // sleep); its bus controller may gate once idle.
    f.system.node(1).sleep();
    EXPECT_TRUE(f.system.node(1).layerDomain().off());
    EXPECT_TRUE(f.system.node(1).busDomain().off());
}

TEST(Power, InterruptGeneratesNullTransactionAndWakesSelf)
{
    // Sec 4.5 / Fig 6: the always-on interrupt port wakes the whole
    // node through a mediator general error, transparently to others.
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("imager", 0x222, 2, true));
    f.system.addNode(nodeCfg("radio", 0x333, 3, true));
    f.system.finalize();

    bus::Node &imager = f.system.node(1);
    bool serviced = false;
    imager.busController().setInterruptCallback([&] {
        serviced = true;
        f.simulator.stop();
    });

    EXPECT_TRUE(imager.layerDomain().off());
    imager.assertInterrupt();
    f.simulator.run(50 * sim::kMillisecond);

    EXPECT_TRUE(serviced);
    EXPECT_TRUE(imager.layerDomain().active());
    EXPECT_EQ(f.system.mediator().stats().generalErrors, 1u);
    // No message was delivered anywhere.
    EXPECT_EQ(imager.busController().stats().messagesReceived, 0u);
}

TEST(Power, GatedNodeCanInitiateTransmission)
{
    // A gated node that decides to send self-wakes its controller.
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("sensor", 0x222, 2, true));
    f.system.addNode(nodeCfg("radio", 0x333, 3, true));
    f.system.finalize();

    std::vector<std::uint8_t> seen;
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { seen = rx.payload; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = {0x55, 0x66};
    auto result = f.system.sendAndWait(1, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(50 * sim::kMillisecond);
    EXPECT_EQ(seen, msg.payload);
}

TEST(Power, ObliviousAndConsciousChipsInteroperate)
{
    // Sec 3 "Interoperability": chips with no notion of power gating
    // and aggressively gated chips share one bus.
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("oblivious", 0x222, 2, false));
    f.system.addNode(nodeCfg("conscious", 0x333, 3, true));
    f.system.finalize();

    int oblivious_rx = 0, conscious_rx = 0;
    f.system.node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++oblivious_rx; });
    f.system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++conscious_rx; });

    bus::Message to_oblivious;
    to_oblivious.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    f.system.sendAndWait(0, to_oblivious, 50 * sim::kMillisecond);

    bus::Message to_conscious;
    to_conscious.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    f.system.sendAndWait(1, to_conscious, 50 * sim::kMillisecond);

    f.system.runUntilIdle(50 * sim::kMillisecond);
    EXPECT_EQ(oblivious_rx, 1);
    EXPECT_EQ(conscious_rx, 1);
}

TEST(Power, WakeupUsesArbitrationEdges)
{
    // The bus controller must be awake by the addressing phase using
    // only the edges arbitration provides (Sec 4.4): if this were
    // broken the gated node could never match its address, and the
    // message would NAK.
    Fixture f;
    f.system.addNode(nodeCfg("proc", 0x111, 1, false));
    f.system.addNode(nodeCfg("gated", 0x222, 2, true));
    f.system.finalize();

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
    msg.payload = {0xAA};
    auto result = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
}

TEST(Power, IdleLeakageIntegratesOverTime)
{
    Fixture f;
    buildRing(f.system, 3);
    f.simulator.schedule(sim::kSecond, [] {});
    f.simulator.run();
    // 3 chips x 5.6 pW x 1 s.
    EXPECT_NEAR(f.system.idleLeakageJ(), 3 * 5.6e-12, 1e-15);
}
