/**
 * @file
 * Tests for MBus addressing (Secs 4.6, 4.7).
 */

#include <gtest/gtest.h>

#include "mbus/address.hh"

using namespace mbus::bus;

TEST(Address, ShortAddressEncoding)
{
    Address a = Address::shortAddr(5, 3);
    EXPECT_FALSE(a.isFull());
    EXPECT_FALSE(a.isBroadcast());
    EXPECT_EQ(a.bitCount(), 8);
    EXPECT_EQ(a.encoded(), 0x53u);
}

TEST(Address, ShortDecodeRoundTrip)
{
    for (std::uint8_t prefix = 1; prefix <= 0xE; ++prefix) {
        for (std::uint8_t fu = 0; fu <= 0xF; ++fu) {
            Address a = Address::shortAddr(prefix, fu);
            Address b = Address::decodeShort(
                static_cast<std::uint8_t>(a.encoded()));
            EXPECT_EQ(a, b);
        }
    }
}

TEST(Address, BroadcastUsesPrefixZero)
{
    Address a = Address::broadcast(4);
    EXPECT_TRUE(a.isBroadcast());
    EXPECT_EQ(a.channel(), 4);
    EXPECT_EQ(a.encoded(), 0x04u);
    EXPECT_EQ(a.bitCount(), 8);
}

TEST(Address, FullAddressLayout)
{
    Address a = Address::fullAddr(0xABCDE, 0x7);
    EXPECT_TRUE(a.isFull());
    EXPECT_EQ(a.bitCount(), 32);
    // {0xF, 20-bit prefix, FU, 4 reserved} (mbus/address.hh).
    EXPECT_EQ(a.encoded(), 0xF0000000u | (0xABCDEu << 8) | (0x7u << 4));
}

TEST(Address, FullDecodeRoundTrip)
{
    Address a = Address::fullAddr(0x12345, 0xA);
    Address b = Address::decodeFull(a.encoded());
    EXPECT_EQ(b.fullPrefix(), 0x12345u);
    EXPECT_EQ(b.fuId(), 0xA);
    EXPECT_EQ(a, b);
}

TEST(Address, FullAddressMarkerIsTopNibble)
{
    Address a = Address::fullAddr(0, 0);
    EXPECT_EQ(a.encoded() >> 28, 0xFu);
}

TEST(AddressDeath, ReservedShortPrefixesRejected)
{
    EXPECT_EXIT(Address::shortAddr(0, 1), testing::ExitedWithCode(1),
                "reserved");
    EXPECT_EXIT(Address::shortAddr(0xF, 1), testing::ExitedWithCode(1),
                "reserved");
}

TEST(AddressDeath, OversizedFieldsRejected)
{
    EXPECT_EXIT(Address::fullAddr(1u << 20, 0),
                testing::ExitedWithCode(1), "full prefix");
    EXPECT_EXIT(Address::broadcast(16), testing::ExitedWithCode(1),
                "channel");
}

TEST(Address, ToStringIsInformative)
{
    EXPECT_NE(Address::shortAddr(2, 1).toString().find("2.1"),
              std::string::npos);
    EXPECT_NE(Address::broadcast(3).toString().find("bcast"),
              std::string::npos);
    EXPECT_NE(Address::fullAddr(0xBEEF, 2).toString().find("beef"),
              std::string::npos);
}
