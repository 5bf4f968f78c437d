/**
 * @file
 * Unit tests for the ported libmbus FSM (firmware::LibMbus) and the
 * firmware-in-the-loop node (firmware::FirmwareNode).
 *
 * The LibMbus tests hand-clock the FSM through fake GPIO lambdas --
 * the test plays the rest of the ring (echoing bits back on DIN,
 * running the mediator's control pulses) so each firmware behaviour
 * is pinned in isolation: the MBus_send stomp the C source leaves as
 * a TODO, the DIN-only-while-CLK-high interjection detector, and the
 * 1:1 error-code mapping (DATA_SYNCH, RECV_OVERFLOW, CLOCK_SYNCH,
 * INTERRUPTED).
 *
 * The FirmwareNode tests run the same FSM as the software member of a
 * mixed-ring MbusBackend (BackendKind::Firmware) and pin the
 * harness contract: busy sends queue FIFO instead of stomping, and
 * error codes surface as bus::TxStatus / bus::LocalError.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "backend/backend.hh"
#include "backend/mbus_backend.hh"
#include "firmware/libmbus_port.hh"
#include "sim/simulator.hh"

using namespace mbus;
using namespace mbus::firmware;

namespace {

/**
 * Hand-clocked harness: four fake pins, the test is the ring.
 *
 * `setDin` changes the level the FSM will read (a level set-up
 * between edges); `dinEdge` additionally invokes the DIN ISR, which
 * is how the interjection detector sees edges.
 */
struct HandBus
{
    std::array<std::uint8_t, 4> pin{1, 1, 1, 1};
    std::unique_ptr<LibMbus> fsm;

    // Captured completions.
    std::optional<std::size_t> doneBytes;
    std::optional<MBus_error_t> doneErr;
    std::optional<bool> doneAcked;
    std::optional<std::uint32_t> rxAddr;
    int rxAddrBits = 0;
    std::vector<std::uint8_t> rxData;
    std::optional<MBus_error_t> rxErr;
    bool rxEom = false;

    explicit HandBus(std::uint8_t shortPrefix = 2,
                     std::size_t capacity = 256)
    {
        MBus_t cfg;
        cfg.short_prefix = shortPrefix;
        cfg.recv_capacity = capacity;
        cfg.set_gpio_val = [this](int g, std::uint8_t v) {
            pin[static_cast<std::size_t>(g)] = v;
        };
        cfg.get_gpio_val = [this](int g) {
            return pin[static_cast<std::size_t>(g)];
        };
        cfg.MBus_send_done = [this](std::size_t bytes,
                                    MBus_error_t err, bool acked) {
            doneBytes = bytes;
            doneErr = err;
            doneAcked = acked;
        };
        cfg.MBus_recv = [this](std::uint32_t addr, int addrBits,
                               const std::uint8_t *buf,
                               std::size_t len, MBus_error_t err,
                               bool eom) {
            rxAddr = addr;
            rxAddrBits = addrBits;
            rxData.assign(buf, buf + len);
            rxErr = err;
            rxEom = eom;
        };
        fsm = std::make_unique<LibMbus>(std::move(cfg));
        fsm->MBus_init();
    }

    void
    clk(bool v)
    {
        pin[0] = v ? 1 : 0;
        fsm->MBus_CLKIN_int_handler();
    }
    void fall() { clk(false); }
    void rise() { clk(true); }

    void setDin(bool v) { pin[2] = v ? 1 : 0; }
    void
    dinEdge(bool v)
    {
        setDin(v);
        fsm->MBus_DIN_int_handler();
    }

    bool dout() const { return pin[3] != 0; }
    bool clkout() const { return pin[1] != 0; }

    /** Arbitration: this node requested and wins cleanly. */
    void
    winArbitration()
    {
        fall(); // IDLE -> PREARB
        setDin(true);
        rise(); // latch win
        fall(); // -> PRIO_DRIVE
        setDin(false);
        rise(); // no priority request
        fall(); // reserved cycle: park high
        rise(); // roles final -> DRIVE_DATA
        ASSERT_EQ(fsm->state(), MBUS_STATE_DRIVE_DATA);
    }

    /** Arbitration with nobody requesting: this node forwards. */
    void
    observeArbitration()
    {
        fall();
        setDin(false);
        rise();
        fall();
        rise();
        fall();
        rise();
        ASSERT_EQ(fsm->state(), MBUS_STATE_DRIVE_SHORT_ADDR);
    }

    /** One TX bit: the ring echoes what the node drove. */
    void
    echoTxBit()
    {
        fall(); // drive
        setDin(dout());
        rise(); // latch echo
    }

    /** One RX bit fed on DIN. */
    void
    feedBit(bool bit)
    {
        fall();
        setDin(bit);
        rise();
    }

    void
    feedByte(std::uint8_t byte)
    {
        for (int i = 7; i >= 0; --i)
            feedBit(((byte >> i) & 1) != 0);
    }

    /** Mediator interjection: three DIN edges under a high CLK. */
    void
    mediatorInterjects()
    {
        ASSERT_TRUE(pin[0] != 0); // CLK parked high.
        bool v = pin[2] == 0;
        dinEdge(v);
        dinEdge(!v);
        dinEdge(v);
        ASSERT_EQ(fsm->state(), MBUS_STATE_PRE_BEGIN_CONTROL);
    }

    /** Control sequence with the ring presenting @p cb0 / @p cb1. */
    void
    runControl(bool cb0, bool cb1)
    {
        fall(); // -> BEGIN_CONTROL
        rise(); // -> DRIVE_CB0
        fall(); // bit 0 driven (by whoever owns it)
        setDin(cb0);
        rise(); // latch cb0
        fall(); // bit 1 driven
        setDin(cb1);
        rise(); // latch cb1, resolve
        fall(); // release
        rise(); // -> IDLE
        ASSERT_EQ(fsm->state(), MBUS_STATE_IDLE);
    }
};

} // namespace

TEST(LibMbus, InitParksBothOutputsHigh)
{
    HandBus b;
    EXPECT_TRUE(b.dout());
    EXPECT_TRUE(b.clkout());
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_IDLE);
    EXPECT_EQ(b.fsm->error(), MBUS_NO_ERROR);
}

TEST(LibMbus, CleanSendReportsAllBytesAcked)
{
    HandBus b;
    const std::uint8_t buf[] = {0x27, 0xA5, 0x3C};
    ASSERT_TRUE(b.fsm->MBus_send(buf, sizeof buf, false));
    EXPECT_FALSE(b.dout()); // Bus request driven low.

    b.winArbitration();
    for (std::size_t i = 0; i < 8 * sizeof buf; ++i)
        b.echoTxBit();
    // All bytes out: the transmitter holds CLK and waits on the
    // mediator (clean end-of-message interjection).
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_REQUEST_INTERRUPT);

    b.mediatorInterjects();
    // cb0 echoes the transmitter's own EoM drive; cb1 low = ACK.
    b.runControl(/*cb0=*/true, /*cb1=*/false);
    while (b.fsm->MBus_run())
        ;
    ASSERT_TRUE(b.doneErr.has_value());
    EXPECT_EQ(*b.doneErr, MBUS_NO_ERROR);
    EXPECT_TRUE(*b.doneAcked);
    EXPECT_EQ(*b.doneBytes, sizeof buf);
}

TEST(LibMbus, SendWhileBusyStompsAndReportsIt)
{
    // Pins the deliberate port deviation: bitbang.c overwrites the
    // transmit registers unconditionally (its "what if not idle?"
    // TODO); the port preserves the stomp but returns false so a
    // harness can queue above it -- FirmwareNode does exactly that.
    HandBus b;
    const std::uint8_t first[] = {0x27, 0x01};
    const std::uint8_t second[] = {0x27, 0x02};
    ASSERT_TRUE(b.fsm->MBus_send(first, sizeof first, false));
    b.fall(); // Transaction underway: no longer IDLE.
    ASSERT_NE(b.fsm->state(), MBUS_STATE_IDLE);

    EXPECT_FALSE(b.fsm->MBus_send(second, sizeof second, false));
    // The in-flight buffer registers were stomped anyway.
    EXPECT_EQ(b.fsm->txBuf(), second);
}

TEST(LibMbus, DinEdgesCountOnlyWhileClkHigh)
{
    // The libmbus interjection discipline (satellite regression): the
    // detector counts DIN edges only under a high CLK; edges that
    // ride a low clock phase are ordinary bus activity.
    HandBus b;
    b.fall(); // IDLE -> PREARB; CLK now low.
    for (int i = 0; i < 5; ++i)
        b.dinEdge(i % 2 == 0);
    EXPECT_EQ(b.fsm->interruptCount(), 0);
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_PREARB);

    b.setDin(false);
    b.rise(); // CLK high again (edge resets the counter).
    b.dinEdge(true);
    b.dinEdge(false);
    EXPECT_EQ(b.fsm->interruptCount(), 2);
    EXPECT_NE(b.fsm->state(), MBUS_STATE_PRE_BEGIN_CONTROL);
    b.dinEdge(true); // Third edge under a high CLK: interjection.
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_PRE_BEGIN_CONTROL);
}

TEST(LibMbus, DataSynchErrorWhenEchoDisagrees)
{
    HandBus b;
    const std::uint8_t buf[] = {0x27, 0xFF};
    ASSERT_TRUE(b.fsm->MBus_send(buf, sizeof buf, false));
    b.winArbitration();

    b.fall(); // Drive the first bit...
    b.setDin(!b.dout());
    b.rise(); // ...and see the ring echo the opposite.
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_REQUEST_INTERRUPT);
    EXPECT_EQ(b.fsm->error(), MBUS_DATA_SYNCH_ERROR);

    b.mediatorInterjects();
    b.runControl(/*cb0=*/false, /*cb1=*/true); // Error abort code.
    while (b.fsm->MBus_run())
        ;
    ASSERT_TRUE(b.doneErr.has_value());
    EXPECT_EQ(*b.doneErr, MBUS_DATA_SYNCH_ERROR);
    EXPECT_FALSE(*b.doneAcked);
    EXPECT_EQ(*b.doneBytes, 0u); // No complete byte made it out.
}

TEST(LibMbus, RecvOverflowTruncatesAndFlagsDelivery)
{
    HandBus b(/*shortPrefix=*/2, /*capacity=*/2);
    b.observeArbitration();
    b.feedByte(0x27); // Prefix 2, FU 7: addressed to us.
    ASSERT_EQ(b.fsm->logical(), MBUS_LOGICAL_RECEIVE);

    b.feedByte(0xAB);
    b.feedByte(0xCD);
    EXPECT_EQ(b.fsm->error(), MBUS_NO_ERROR); // Buffer exactly full.
    b.feedByte(0xEF); // Third byte cannot be stored.
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_REQUEST_INTERRUPT);
    EXPECT_EQ(b.fsm->error(), MBUS_RECV_OVERFLOW);

    b.mediatorInterjects();
    b.runControl(/*cb0=*/false, /*cb1=*/true);
    while (b.fsm->MBus_run())
        ;
    ASSERT_TRUE(b.rxErr.has_value());
    EXPECT_EQ(*b.rxErr, MBUS_RECV_OVERFLOW);
    EXPECT_FALSE(b.rxEom);
    EXPECT_EQ(b.rxData, (std::vector<std::uint8_t>{0xAB, 0xCD}));
    EXPECT_EQ(*b.rxAddr, 0x27u);
    EXPECT_EQ(b.rxAddrBits, 8);
}

TEST(LibMbus, MergedClockEdgeIsClockSynchErrorAndRecovers)
{
    HandBus b;
    const std::uint8_t buf[] = {0x27, 0x55};
    ASSERT_TRUE(b.fsm->MBus_send(buf, sizeof buf, false));
    b.winArbitration();
    b.echoTxBit();
    b.echoTxBit();

    // The CLKIN ISR fires with the level unchanged: an edge was
    // merged while the handler was pending. Fatal for bit framing.
    b.clk(b.pin[0] != 0);
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_ERROR);
    EXPECT_EQ(b.fsm->error(), MBUS_CLOCK_SYNCH_ERROR);
    EXPECT_TRUE(b.clkout()); // Every hold released: ring keeps going.

    b.mediatorInterjects();
    b.runControl(/*cb0=*/false, /*cb1=*/true);
    while (b.fsm->MBus_run())
        ;
    ASSERT_TRUE(b.doneErr.has_value());
    EXPECT_EQ(*b.doneErr, MBUS_CLOCK_SYNCH_ERROR);
    EXPECT_FALSE(*b.doneAcked);
    // Fully resynchronized: idle, error cleared, next send works.
    EXPECT_EQ(b.fsm->state(), MBUS_STATE_IDLE);
    EXPECT_EQ(b.fsm->error(), MBUS_NO_ERROR);
}

TEST(LibMbus, ThirdPartyInterjectionReportsInterrupted)
{
    HandBus b;
    const std::uint8_t buf[] = {0x27, 0x11, 0x22, 0x33};
    ASSERT_TRUE(b.fsm->MBus_send(buf, sizeof buf, false));
    b.winArbitration();
    for (int i = 0; i < 16; ++i) // Two of four bytes out.
        b.echoTxBit();
    ASSERT_EQ(b.fsm->state(), MBUS_STATE_DRIVE_DATA);

    // A third party interjects mid-message: CLK parks high after the
    // last latch edge, then the mediator toggles DATA.
    b.mediatorInterjects();
    b.runControl(/*cb0=*/false, /*cb1=*/true);
    while (b.fsm->MBus_run())
        ;
    ASSERT_TRUE(b.doneErr.has_value());
    EXPECT_EQ(*b.doneErr, MBUS_INTERRUPTED);
    EXPECT_FALSE(*b.doneAcked);
    EXPECT_EQ(*b.doneBytes, 2u); // Complete bytes driven before cut.
}

TEST(LibMbus, BroadcastReceiveDoesNotAck)
{
    HandBus b;
    b.observeArbitration();
    b.feedByte(0x03); // Broadcast prefix 0, channel 3.
    ASSERT_EQ(b.fsm->logical(), MBUS_LOGICAL_RECEIVE_BROADCAST);
    b.feedByte(0x9A);

    b.mediatorInterjects();
    b.fall(); // -> BEGIN_CONTROL
    b.rise(); // -> DRIVE_CB0
    b.fall();
    b.setDin(true); // Clean end-of-message.
    b.rise();
    b.fall(); // Bit-1 drive: a unicast receiver would ACK low here.
    EXPECT_TRUE(b.dout()); // Broadcast receivers stay hands-off.
    b.setDin(true);
    b.rise();
    b.fall();
    b.rise();
    ASSERT_EQ(b.fsm->state(), MBUS_STATE_IDLE);
    while (b.fsm->MBus_run())
        ;
    ASSERT_TRUE(b.rxErr.has_value());
    EXPECT_EQ(*b.rxErr, MBUS_NO_ERROR);
    EXPECT_TRUE(b.rxEom);
    EXPECT_EQ(b.rxData, (std::vector<std::uint8_t>{0x9A}));
}

// ---------------------------------------------------------------------
// FirmwareNode as the software member of a mixed ring.

namespace {

backend::BusParams
ringParams(int nodes, double clockHz)
{
    backend::BusParams p;
    p.nodes = nodes;
    p.busClockHz = clockHz;
    return p;
}

bus::TxResult
sendAndRun(sim::Simulator &simulator, backend::BusBackend &backend,
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

TEST(FirmwareBackend, FactoryNameRoundTripsAndBuilds)
{
    backend::BackendKind parsed{};
    ASSERT_TRUE(backend::backendKindFromName(
        backend::backendKindName(backend::BackendKind::Firmware),
        parsed));
    EXPECT_EQ(parsed, backend::BackendKind::Firmware);

    sim::Simulator simulator;
    auto b = backend::makeBackend(backend::BackendKind::Firmware,
                                  simulator, ringParams(3, 400e3));
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->kind(), backend::BackendKind::Firmware);
    EXPECT_EQ(b->nodeCount(), 3u);
}

TEST(FirmwareBackend, DeliveryBothDirections)
{
    sim::Simulator simulator;
    backend::MbusBackend ring(simulator, ringParams(3, 400e3),
                              backend::BackendKind::Firmware);

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
    EXPECT_GT(ring.softMember()->stats().isrInvocations, 0u);
}

TEST(FirmwareBackend, BackToBackSendsQueueFifoInsteadOfStomping)
{
    // The harness half of the stomp satellite: two sends issued
    // while the first is still in flight must both complete, in
    // order, with their own payloads intact at the receiver.
    sim::Simulator simulator;
    backend::MbusBackend ring(simulator, ringParams(3, 400e3),
                              backend::BackendKind::Firmware);

    std::vector<std::vector<std::uint8_t>> delivered;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == 0)
                delivered.push_back(rx.payload);
        });

    std::vector<int> order;
    bus::Message a, c;
    a.dest = ring.unicastAddress(0, false, 7);
    a.payload = {0xA1, 0xA2};
    c.dest = ring.unicastAddress(0, false, 7);
    c.payload = {0xC1};
    int done = 0;
    bus::TxStatus stA{}, stC{};
    ring.send(ring.softIndex(), a, [&](const bus::TxResult &r) {
        order.push_back(1);
        stA = r.status;
        if (++done == 2)
            simulator.stop();
    });
    ring.send(ring.softIndex(), c, [&](const bus::TxResult &r) {
        order.push_back(2);
        stC = r.status;
        if (++done == 2)
            simulator.stop();
    });
    EXPECT_EQ(ring.pendingTx(ring.softIndex()), 2u);

    simulator.run(10 * sim::kSecond);
    ASSERT_EQ(done, 2);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(stA, bus::TxStatus::Ack);
    EXPECT_EQ(stC, bus::TxStatus::Ack);
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0], a.payload);
    EXPECT_EQ(delivered[1], c.payload);
    EXPECT_TRUE(ring.runUntilIdle(sim::kSecond));
}

TEST(FirmwareBackend, ThirdPartyInterjectionMapsToInterrupted)
{
    sim::Simulator simulator;
    backend::MbusBackend ring(simulator, ringParams(3, 400e3),
                              backend::BackendKind::Firmware);
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
    simulator.schedule(sim::fromSeconds(40.0 / ring.busClockHz()),
                       [&] { ring.interject(1); });
    simulator.run(10 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    EXPECT_EQ(result->error, bus::LocalError::Interrupted);
    EXPECT_LT(result->bytesSent, msg.payload.size());
    ASSERT_TRUE(seen.has_value());
    EXPECT_TRUE(seen->interjected);
    EXPECT_TRUE(ring.runUntilIdle(sim::kSecond));
}

TEST(FirmwareBackend, RxOverflowSurfacesLocalErrorAtDelivery)
{
    sim::Simulator simulator;
    backend::BusParams p = ringParams(3, 400e3);
    p.softRxCapacity = 4; // Tiny firmware receive buffer.
    backend::MbusBackend ring(simulator, p,
                              backend::BackendKind::Firmware);

    std::optional<bus::ReceivedMessage> seen;
    ring.setDeliveryHandler(
        [&](std::size_t n, const bus::ReceivedMessage &rx) {
            if (n == ring.softIndex())
                seen = rx;
        });
    bus::Message msg;
    msg.dest = ring.unicastAddress(ring.softIndex(), false, 0);
    msg.payload.assign(16, 0x5C);
    bus::TxResult r = sendAndRun(simulator, ring, 0, msg);
    EXPECT_NE(r.status, bus::TxStatus::Ack);
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->error, bus::LocalError::RecvOverflow);
    EXPECT_TRUE(seen->interjected);
    EXPECT_LT(seen->payload.size(), msg.payload.size());
}
