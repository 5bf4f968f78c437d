/**
 * @file
 * Unit tests for the pluggable bus-backend layer: the factory, the
 * transactional I2C fabric (framing/energy agreement with the
 * analytic I2cModel, clock stretching, interject-abort, general-call
 * broadcast), and the mixed bitbang ring (delivery both directions,
 * third-party interjection of the software member's transmission).
 */

#include <gtest/gtest.h>

#include <optional>

#include "backend/backend.hh"
#include "backend/i2c_backend.hh"
#include "backend/mbus_backend.hh"
#include "baseline/i2c.hh"
#include "sim/simulator.hh"

using namespace mbus;
using namespace mbus::backend;

namespace {

BusParams
smallParams(int nodes, double clockHz, bool gated = false)
{
    BusParams p;
    p.nodes = nodes;
    p.busClockHz = clockHz;
    p.powerGated = gated;
    return p;
}

/** Drive one send to completion; returns the terminal result. */
bus::TxResult
sendAndRun(sim::Simulator &simulator, BusBackend &backend,
           std::size_t from, bus::Message msg)
{
    std::optional<bus::TxResult> result;
    backend.send(from, std::move(msg),
                 [&](const bus::TxResult &r) {
                     result = r;
                     simulator.stop();
                 });
    simulator.run(10 * sim::kSecond);
    EXPECT_TRUE(result.has_value());
    backend.runUntilIdle(sim::kSecond);
    return result.value_or(bus::TxResult{});
}

} // namespace

TEST(BackendFactory, NamesRoundTrip)
{
    for (BackendKind k :
         {BackendKind::Mbus, BackendKind::I2cStd,
          BackendKind::I2cOracle, BackendKind::Bitbang,
          BackendKind::Firmware}) {
        BackendKind parsed{};
        ASSERT_TRUE(backendKindFromName(backendKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    BackendKind parsed{};
    EXPECT_FALSE(backendKindFromName("spi", parsed));
}

TEST(BackendFactory, BuildsEveryKindWithMatchingKind)
{
    for (BackendKind k :
         {BackendKind::Mbus, BackendKind::I2cStd,
          BackendKind::I2cOracle, BackendKind::Bitbang,
          BackendKind::Firmware}) {
        sim::Simulator simulator;
        auto b = makeBackend(k, simulator, smallParams(3, 100e3));
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->kind(), k);
        EXPECT_EQ(b->nodeCount(), 3u);
        EXPECT_GT(b->busClockHz(), 0.0);
        EXPECT_LE(b->busClockHz(), 100e3 + 1.0);
    }
}

TEST(I2cBackend, MessageEnergyMatchesAnalyticModel)
{
    // The event bus and the closed-form I2cModel must agree: this is
    // what "promoting the analytic model into an event kernel" means.
    for (auto sizing : {baseline::I2cSizing::Standard,
                        baseline::I2cSizing::Oracle}) {
        sim::Simulator simulator;
        I2cBackend bus(simulator, smallParams(4, 400e3), sizing);

        const std::size_t kPayload = 8;
        bus::Message msg;
        msg.dest = bus.unicastAddress(0, false, 0);
        msg.payload.assign(kPayload, 0x5A);
        bus::TxResult r = sendAndRun(simulator, bus, 1, msg);
        EXPECT_EQ(r.status, bus::TxStatus::Ack);

        double expected =
            bus.model().messageEnergyJ(kPayload, bus.busClockHz());
        EXPECT_NEAR(bus.switchingJ(), expected, 1e-9 * expected);
        // All of it charged to the master.
        EXPECT_NEAR(bus.nodeEnergyJ(1), expected, 1e-9 * expected);
        EXPECT_EQ(bus.clockCycles(),
                  baseline::I2cModel::totalBits(kPayload));
    }
}

TEST(I2cBackend, TransactionLatencyIsFramingCycles)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(3, 400e3),
                   baseline::I2cSizing::Oracle);
    bus::Message msg;
    msg.dest = bus.unicastAddress(0, false, 0);
    msg.payload = {1, 2, 3, 4};
    sim::SimTime t0 = simulator.now();
    bus::TxResult r = sendAndRun(simulator, bus, 1, msg);
    double seconds = sim::toSeconds(r.completedAt - t0);
    double expected =
        static_cast<double>(baseline::I2cModel::totalBits(4)) /
        bus.busClockHz();
    EXPECT_NEAR(seconds, expected, 1e-6);
}

TEST(I2cBackend, DeliversPayloadIntact)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(3, 400e3),
                   baseline::I2cSizing::Standard);
    std::vector<std::uint8_t> seen;
    std::size_t seenNode = 99;
    bus.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            seenNode = n;
            seen = rx.payload;
            EXPECT_FALSE(rx.interjected);
        });
    bus::Message msg;
    msg.dest = bus.unicastAddress(2, false, 0);
    msg.payload = {0xDE, 0xAD, 0xBE, 0xEF};
    bus::TxResult r = sendAndRun(simulator, bus, 0, msg);
    EXPECT_EQ(r.status, bus::TxStatus::Ack);
    EXPECT_EQ(seenNode, 2u);
    EXPECT_EQ(seen, msg.payload);
}

TEST(I2cBackend, UnmatchedAddressNaks)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(3, 400e3),
                   baseline::I2cSizing::Standard);
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(9, 0); // Nobody home.
    msg.payload = {1};
    bus::TxResult r = sendAndRun(simulator, bus, 0, msg);
    EXPECT_EQ(r.status, bus::TxStatus::Nak);
}

TEST(I2cBackend, SleepingReceiverStretchesTheClock)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(3, 400e3, /*gated=*/true),
                   baseline::I2cSizing::Standard);
    bus.sleep(2);

    bus::Message msg;
    msg.dest = bus.unicastAddress(2, false, 0);
    msg.payload = {7, 7};
    sim::SimTime t0 = simulator.now();
    bus::TxResult r = sendAndRun(simulator, bus, 0, msg);
    EXPECT_EQ(r.status, bus::TxStatus::Ack);

    double seconds = sim::toSeconds(r.completedAt - t0);
    double unstretched =
        static_cast<double>(baseline::I2cModel::totalBits(2)) /
        bus.busClockHz();
    double stretched =
        unstretched + static_cast<double>(kI2cWakeStretchCycles) /
                          bus.busClockHz();
    EXPECT_NEAR(seconds, stretched, 1e-6);
    EXPECT_GT(seconds, unstretched);
    // The stretch burned low-phase energy at the receiver, and the
    // receiver is awake afterwards.
    EXPECT_GT(bus.nodeEnergyJ(2), 0.0);
    bus::TxResult again = sendAndRun(simulator, bus, 0, msg);
    EXPECT_NEAR(sim::toSeconds(again.completedAt - r.completedAt),
                unstretched, 1e-4);
}

TEST(I2cBackend, InterjectAbortsWithTruncatedFlaggedDelivery)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(3, 400e3),
                   baseline::I2cSizing::Standard);
    std::optional<bus::ReceivedMessage> seen;
    bus.setDeliveryHandler(
        [&](std::size_t, const bus::ReceivedMessage &rx) {
            seen = rx;
        });
    bus::Message msg;
    msg.dest = bus.unicastAddress(0, false, 0);
    msg.payload.assign(16, 0x42);

    std::optional<bus::TxResult> result;
    bus.send(1, msg, [&](const bus::TxResult &r) {
                         result = r;
                         simulator.stop();
                     });
    // Stomp the bus mid-payload (framing = 10 + 9n cycles).
    simulator.schedule(
        sim::fromSeconds(60.0 / bus.busClockHz()),
        [&] { bus.interject(2); });
    simulator.run(sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    EXPECT_LT(result->bytesSent, msg.payload.size());
    EXPECT_EQ(bus.aborts(), 1u);
    ASSERT_TRUE(seen.has_value());
    EXPECT_TRUE(seen->interjected);
    EXPECT_LT(seen->payload.size(), msg.payload.size());
    EXPECT_TRUE(bus.runUntilIdle(sim::kSecond));
}

TEST(I2cBackend, GeneralCallSkipsSleepingListeners)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(4, 400e3, /*gated=*/true),
                   baseline::I2cSizing::Standard);
    // Gated members start asleep (as on MBus); wake two listeners
    // and leave node 2 down: no wake-by-general-call on I2C.
    bus.wake(1);
    bus.wake(3);

    int deliveries = 0;
    bus.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &) {
            EXPECT_NE(n, 2u);
            ++deliveries;
        });
    bus::Message msg;
    msg.dest = bus::Address::broadcast(bus::kChannelUserBase);
    msg.payload = {0x11};
    bus::TxResult r = sendAndRun(simulator, bus, 0, msg);
    EXPECT_EQ(r.status, bus::TxStatus::Broadcast);
    EXPECT_EQ(deliveries, 2); // Nodes 1 and 3; 2 sleeps, 0 sent.
}

TEST(I2cBackend, RetimeAppliesAfterCarrierMessage)
{
    sim::Simulator simulator;
    I2cBackend bus(simulator, smallParams(3, 400e3),
                   baseline::I2cSizing::Standard);
    bool done = false;
    bus.retime(0, 100e3, [&] {
        done = true;
        simulator.stop();
    });
    simulator.run(sim::kSecond);
    EXPECT_TRUE(done);
    EXPECT_NEAR(bus.busClockHz(), 100e3, 1.0);
    // Clamped to the fabric ceiling.
    bus.retime(0, 50e6, [&] { simulator.stop(); });
    simulator.run(sim::kSecond);
    EXPECT_LE(bus.busClockHz(), kI2cStdMaxClockHz);
}

TEST(BitbangBackend, DeliveryBothDirections)
{
    sim::Simulator simulator;
    MbusBackend ring(simulator, smallParams(3, 400e3),
                     BackendKind::Bitbang);
    // The software member throttles the fabric far below 400 kHz.
    EXPECT_LT(ring.busClockHz(), 30e3);

    std::vector<std::uint8_t> atGateway, atSoft;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == 0)
                atGateway = rx.payload;
            if (n == ring.softIndex())
                atSoft = rx.payload;
        });

    bus::Message toGateway;
    toGateway.dest = ring.unicastAddress(0, false, 7);
    toGateway.payload = {0xCA, 0xFE};
    EXPECT_EQ(sendAndRun(simulator, ring, ring.softIndex(), toGateway)
                  .status,
              bus::TxStatus::Ack);
    EXPECT_EQ(atGateway, toGateway.payload);

    bus::Message toSoft;
    toSoft.dest = ring.unicastAddress(ring.softIndex(), false, 0);
    toSoft.payload = {0x12, 0x34, 0x56};
    EXPECT_EQ(sendAndRun(simulator, ring, 1, toSoft).status,
              bus::TxStatus::Ack);
    EXPECT_EQ(atSoft, toSoft.payload);
}

TEST(BitbangBackend, FiveNodeRingForwardsThroughSoftMember)
{
    // The generalized mixed ring: 4 hardware chips + the software
    // member; hw1 -> hw3 passes through nobody special, hw3 -> hw1
    // wraps through the software member's forwarding ISRs.
    sim::Simulator simulator;
    MbusBackend ring(simulator, smallParams(5, 400e3),
                     BackendKind::Bitbang);
    std::vector<std::uint8_t> seen;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == 1)
                seen = rx.payload;
        });
    bus::Message msg;
    msg.dest = ring.unicastAddress(1, false, 7);
    msg.payload = {0x77};
    EXPECT_EQ(sendAndRun(simulator, ring, 3, msg).status,
              bus::TxStatus::Ack);
    EXPECT_EQ(seen, msg.payload);
    EXPECT_GT(ring.softMember()->stats().isrInvocations, 0u);
    // Segment switching charged; software CPU cycles priced in.
    EXPECT_GT(ring.switchingJ(), 0.0);
    EXPECT_GT(ring.nodeEnergyJ(ring.softIndex()), 0.0);
}

TEST(BitbangBackend, ThirdPartyInterjectionOfSoftTxFlagsTruncation)
{
    // Regression: the software transmitter must drive control bit 0
    // low when a third party cuts its message, so the hardware
    // receiver flags the truncated delivery instead of treating it
    // as a clean end-of-message.
    sim::Simulator simulator;
    MbusBackend ring(simulator, smallParams(3, 400e3),
                     BackendKind::Bitbang);
    std::optional<bus::ReceivedMessage> seen;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == 0)
                seen = rx;
        });
    bus::Message msg;
    msg.dest = ring.unicastAddress(0, false, 7);
    msg.payload = {0xAA, 1, 2, 3, 4, 5, 6, 7};
    std::optional<bus::TxResult> result;
    ring.send(ring.softIndex(), msg,
              [&](const bus::TxResult &r) {
                  result = r;
                  simulator.stop();
              });
    simulator.schedule(
        sim::fromSeconds(40.0 / ring.busClockHz()),
        [&] { ring.interject(1); });
    simulator.run(10 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    ASSERT_TRUE(seen.has_value());
    EXPECT_TRUE(seen->interjected);
    EXPECT_LT(seen->payload.size(), msg.payload.size());
    EXPECT_TRUE(ring.runUntilIdle(sim::kSecond));
}

TEST(MbusBackend, WrapsSystemApiFaithfully)
{
    sim::Simulator simulator;
    MbusBackend ring(simulator, smallParams(4, 400e3, /*gated=*/true));
    EXPECT_EQ(ring.nodeCount(), 4u);
    EXPECT_DOUBLE_EQ(ring.busClockHz(), 400e3);
    EXPECT_EQ(ring.unicastAddress(2, false, 7).shortPrefix(), 3);
    EXPECT_TRUE(ring.unicastAddress(2, true, 7).isFull());

    std::vector<std::uint8_t> seen;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == 2)
                seen = rx.payload;
        });
    bus::Message msg;
    msg.dest = ring.unicastAddress(2, false, 7);
    msg.payload = {9, 8, 7};
    EXPECT_EQ(sendAndRun(simulator, ring, 1, msg).status,
              bus::TxStatus::Ack);
    EXPECT_EQ(seen, msg.payload);
    EXPECT_GT(ring.switchingJ(), 0.0);
    EXPECT_GT(ring.nodeEdges(1), 0u);
    EXPECT_GT(ring.clockCycles(), 0u);
}
