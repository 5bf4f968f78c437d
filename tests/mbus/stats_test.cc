/**
 * @file
 * Tests for the aggregated statistics report and the precise
 * minimum-progress guarantee (Sec 7: a winner may send at least four
 * bytes before being interrupted).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mbus/system.hh"
#include "tests/mbus/testutil.hh"

using namespace mbus;
using namespace mbus::test;

TEST(Stats, DumpContainsEveryNodeAndTheMediator)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    bus::Message msg;
    msg.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    msg.payload = {1, 2, 3};
    system.sendAndWait(1, msg, sim::kSecond);
    system.runUntilIdle(sim::kSecond);

    std::ostringstream os;
    system.dumpStats(os);
    std::string report = os.str();
    EXPECT_NE(report.find("mediator: transactions=1"),
              std::string::npos);
    EXPECT_NE(report.find("n1: tx=1 acked=1"), std::string::npos);
    EXPECT_NE(report.find("n2:"), std::string::npos);
    EXPECT_NE(report.find("bytesRx=3"), std::string::npos);
    EXPECT_NE(report.find("energy:"), std::string::npos);
}

TEST(Stats, CountersTrackTrafficShape)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    for (int i = 0; i < 3; ++i) {
        bus::Message msg;
        msg.dest = bus::Address::shortAddr(2, bus::kFuMailbox);
        msg.payload.assign(5, 0x70);
        system.sendAndWait(0, msg, sim::kSecond);
        system.runUntilIdle(sim::kSecond);
    }
    const auto &tx = system.node(0).busController().stats();
    const auto &rx = system.node(1).busController().stats();
    EXPECT_EQ(tx.messagesSent, 3u);
    EXPECT_EQ(tx.messagesAcked, 3u);
    EXPECT_EQ(tx.bytesSent, 15u);
    EXPECT_EQ(rx.messagesReceived, 3u);
    EXPECT_EQ(rx.bytesReceived, 15u);
}

TEST(ProgressRule, EarlyInterjectDefersUntilFourBytes)
{
    // Interject immediately after the transfer starts: the cut must
    // land at >= kMinProgressBytes of delivered payload.
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    std::vector<std::uint8_t> delivered;
    system.node(2).layer().setMailboxHandler(
        [&](const bus::ReceivedMessage &rx) { delivered = rx.payload; });

    bus::Message big;
    big.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    big.payload.assign(64, 0xDD);
    std::optional<bus::TxResult> result;
    system.node(1).send(big,
                        [&](const bus::TxResult &r) {
                            result = r;
                            simulator.stop();
                        });

    // Right at the start of the transaction (~arbitration time).
    simulator.schedule(30 * sim::kMicrosecond,
                       [&] { system.node(0).interject(); });

    simulator.run(sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    system.runUntilIdle(sim::kSecond);

    EXPECT_GE(delivered.size(), bus::kMinProgressBytes);
    EXPECT_LE(delivered.size(), bus::kMinProgressBytes + 2);
    // The sender-side progress report agrees with the wire.
    EXPECT_GE(result->bytesSent, delivered.size());
}

TEST(ProgressRule, TransmitterReportsPartialProgress)
{
    sim::Simulator simulator;
    bus::MBusSystem system(simulator);
    buildRing(system, 3);

    bus::Message big;
    big.dest = bus::Address::shortAddr(3, bus::kFuMailbox);
    big.payload.assign(100, 0xEE);
    std::optional<bus::TxResult> result;
    system.node(1).send(big,
                        [&](const bus::TxResult &r) {
                            result = r;
                            simulator.stop();
                        });

    // Cut roughly halfway (100 B at 400 kHz ~ 2.1 ms).
    simulator.schedule(sim::kMillisecond,
                       [&] { system.node(0).interject(); });
    simulator.run(sim::kSecond);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->status, bus::TxStatus::Interrupted);
    EXPECT_GT(result->bytesSent, 20u);
    EXPECT_LT(result->bytesSent, 80u);
}
