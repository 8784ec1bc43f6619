/**
 * @file
 * Unit tests for the write-back buffer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/write_buffer.hh"

namespace vrc
{
namespace
{

TEST(WriteBufferTest, StartsEmpty)
{
    WriteBuffer wb(4, 10);
    EXPECT_TRUE(wb.empty());
    EXPECT_EQ(wb.capacity(), 4u);
}

TEST(WriteBufferTest, PushAndContains)
{
    WriteBuffer wb(4, 10);
    EXPECT_FALSE(wb.push(0x100, 0));
    EXPECT_TRUE(wb.contains(0x100));
    EXPECT_FALSE(wb.contains(0x200));
    EXPECT_EQ(wb.size(), 1u);
}

TEST(WriteBufferTest, DrainAfterLatency)
{
    WriteBuffer wb(4, 10);
    std::vector<std::uint32_t> drained;
    wb.setDrainHandler([&](const WriteBufferEntry &e) {
        drained.push_back(e.physBlockAddr);
    });
    wb.push(0x100, 5);
    wb.tick(14);
    EXPECT_TRUE(drained.empty()) << "not due yet";
    wb.tick(15);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], 0x100u);
    EXPECT_TRUE(wb.empty());
}

TEST(WriteBufferTest, FifoDrainOrder)
{
    WriteBuffer wb(4, 10);
    std::vector<std::uint32_t> drained;
    wb.setDrainHandler([&](const WriteBufferEntry &e) {
        drained.push_back(e.physBlockAddr);
    });
    wb.push(0x100, 0);
    wb.push(0x200, 1);
    wb.tick(100);
    ASSERT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0], 0x100u);
    EXPECT_EQ(drained[1], 0x200u);
}

TEST(WriteBufferTest, FullPushStallsAndForcesOldest)
{
    WriteBuffer wb(2, 1000);
    std::vector<std::uint32_t> drained;
    wb.setDrainHandler([&](const WriteBufferEntry &e) {
        drained.push_back(e.physBlockAddr);
    });
    wb.push(0x100, 0);
    wb.push(0x200, 0);
    EXPECT_TRUE(wb.push(0x300, 1)) << "third push must stall";
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0], 0x100u);
    EXPECT_EQ(wb.size(), 2u);
}

TEST(WriteBufferTest, RemoveCancelsWithoutDrain)
{
    WriteBuffer wb(4, 10);
    int drains = 0;
    wb.setDrainHandler([&](const WriteBufferEntry &) { ++drains; });
    wb.push(0x100, 0);
    auto e = wb.remove(0x100);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->physBlockAddr, 0x100u);
    EXPECT_EQ(drains, 0);
    EXPECT_FALSE(wb.remove(0x100).has_value());
}

TEST(WriteBufferTest, StatsCounters)
{
    WriteBuffer wb(1, 1000);
    EXPECT_FALSE(wb.push(0x100, 0));
    EXPECT_TRUE(wb.push(0x200, 0)); // stall + forced drain
    wb.remove(0x200);
    EXPECT_EQ(wb.pushes(), 2u);
    EXPECT_EQ(wb.drains(), 1u);
    EXPECT_EQ(wb.removes(), 1u);
}

TEST(WriteBufferTest, NoHandlerIsSafe)
{
    WriteBuffer wb(2, 1);
    wb.push(0x100, 0);
    wb.tick(10); // drains with no handler installed
    EXPECT_TRUE(wb.empty());
}

} // namespace
} // namespace vrc
