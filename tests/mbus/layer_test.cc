/**
 * @file
 * Layer controller tests (Fig 8): register writes, memory writes,
 * memory read requests with streamed replies, mailbox dispatch.
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

    Fixture() { buildRing(system, 3); }
};

} // namespace

TEST(Layer, RegisterWriteOverBus)
{
    Fixture f;
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, bus::kFuRegisterWrite);
    // Two register writes: reg 0x10 = 0xABCDEF, reg 0x20 = 0x000042.
    msg.payload = {0x10, 0xAB, 0xCD, 0xEF, 0x20, 0x00, 0x00, 0x42};

    auto result = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);
    f.system.runUntilIdle(50 * sim::kMillisecond);

    EXPECT_EQ(f.system.node(1).layer().readRegister(0x10), 0xABCDEFu);
    EXPECT_EQ(f.system.node(1).layer().readRegister(0x20), 0x42u);
    EXPECT_EQ(f.system.node(1).layer().registerWrites(), 2u);
}

TEST(Layer, RegisterValuesAre24Bit)
{
    Fixture f;
    f.system.node(1).layer().writeRegister(5, 0xFFFFFFFF);
    EXPECT_EQ(f.system.node(1).layer().readRegister(5), 0xFFFFFFu);
}

TEST(Layer, MemoryWriteOverBus)
{
    Fixture f;
    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMemoryWrite);
    // Address 0x100, two words.
    msg.payload = {0x00, 0x00, 0x01, 0x00,
                   0xDE, 0xAD, 0xBE, 0xEF,
                   0x01, 0x02, 0x03, 0x04};
    auto result = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    f.system.runUntilIdle(50 * sim::kMillisecond);

    EXPECT_EQ(f.system.node(2).layer().readMemory(0x100), 0xDEADBEEFu);
    EXPECT_EQ(f.system.node(2).layer().readMemory(0x101), 0x01020304u);
}

TEST(Layer, MemoryReadStreamsReplyMessage)
{
    // A memory-read request triggers the remote layer to send a new
    // MBus message back: two chained transactions.
    Fixture f;
    f.system.node(2).layer().writeMemory(0x40, 0xCAFEF00Du);
    f.system.node(2).layer().writeMemory(0x41, 0x12345678u);

    std::vector<std::uint8_t> reply;
    f.system.node(0).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) {});

    bus::Message req;
    req.dest = bus::Address::shortAddr(3, bus::kFuMemoryRead);
    // addr=0x40, len=2 words, reply to prefix 1 / memory-write FU.
    req.payload = {0x00, 0x00, 0x00, 0x40,
                   0x00, 0x00, 0x00, 0x02,
                   static_cast<std::uint8_t>((1 << 4) |
                                             bus::kFuMemoryWrite)};
    auto result = f.system.sendAndWait(0, req, 100 * sim::kMillisecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Ack);

    // Wait for the reply transaction to land in node 0's memory.
    f.system.runUntilIdle(sim::kSecond);
    EXPECT_EQ(f.system.node(0).layer().readMemory(0), 0xCAFEF00Du);
    EXPECT_EQ(f.system.node(0).layer().readMemory(1), 0x12345678u);
    EXPECT_EQ(f.system.node(2).layer().memoryReads(), 1u);
}

TEST(Layer, UnknownFuFallsThroughToMailbox)
{
    Fixture f;
    int mail = 0;
    f.system.node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++mail; });

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(2, 0xC); // Unclaimed FU.
    msg.payload = {1, 2, 3};
    f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
    f.system.runUntilIdle(50 * sim::kMillisecond);
    EXPECT_EQ(mail, 1);
}

TEST(Layer, SixteenFunctionalUnitsPerPrefix)
{
    // FU-IDs are 4 bits: all 16 route to the same chip (Sec 4.6).
    Fixture f;
    int mail = 0;
    f.system.node(1).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &) { ++mail; });

    int acks = 0;
    for (std::uint8_t fu = 0; fu < 16; ++fu) {
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(2, fu);
        msg.payload = {0x00, 0x00, 0x00, 0x00,
                       0x00, 0x00, 0x00, 0x00, 0x00};
        auto r = f.system.sendAndWait(0, msg, 50 * sim::kMillisecond);
        ASSERT_TRUE(r.has_value());
        if (r->status == bus::TxStatus::Ack)
            ++acks;
        f.system.runUntilIdle(50 * sim::kMillisecond);
    }
    EXPECT_EQ(acks, 16);
}
