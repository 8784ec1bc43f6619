/**
 * @file
 * Unit tests for the generic set-associative tag store.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/tag_store.hh"

namespace vrc
{
namespace
{

struct Payload
{
    int value = 0;
};

using Store = TagStore<Payload>;

CacheGeometry
smallGeom(std::uint32_t assoc = 2)
{
    return CacheGeometry(256, 16, assoc); // 16 blocks
}

TEST(TagStoreTest, MissOnEmpty)
{
    Store s(smallGeom(), ReplPolicy::LRU);
    EXPECT_FALSE(s.find(0x40).has_value());
    EXPECT_EQ(s.validCount(), 0u);
}

TEST(TagStoreTest, FillThenFind)
{
    Store s(smallGeom(), ReplPolicy::LRU);
    LineRef slot = s.victim(0x40);
    s.fill(slot, 0x40).meta.value = 7;
    auto found = s.find(0x40);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(s.line(*found).meta.value, 7);
    EXPECT_EQ(s.lineAddr(*found), 0x40u);
}

TEST(TagStoreTest, FindMatchesWholeBlock)
{
    Store s(smallGeom(), ReplPolicy::LRU);
    s.fill(s.victim(0x40), 0x40);
    EXPECT_TRUE(s.find(0x4f).has_value()) << "same block, any offset";
    EXPECT_FALSE(s.find(0x50).has_value()) << "next block misses";
}

TEST(TagStoreTest, VictimPrefersInvalidWay)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    LineRef first = s.victim(0x0);
    s.fill(first, 0x0);
    LineRef second = s.victim(0x100); // same set (16 blocks span 256B)
    EXPECT_EQ(second.set, first.set);
    EXPECT_NE(second.way, first.way);
}

TEST(TagStoreTest, LruEviction)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    // Set 0 holds blocks 0x0 and 0x100 (conflicting tags).
    s.fill(s.victim(0x0), 0x0);
    s.fill(s.victim(0x100), 0x100);
    s.touch(*s.find(0x0)); // 0x100 becomes LRU
    LineRef v = s.victim(0x200);
    EXPECT_EQ(s.lineAddr(v), 0x100u);
}

TEST(TagStoreTest, FifoIgnoresTouches)
{
    Store s(smallGeom(2), ReplPolicy::FIFO);
    s.fill(s.victim(0x0), 0x0);
    s.fill(s.victim(0x100), 0x100);
    s.touch(*s.find(0x0));
    s.touch(*s.find(0x0));
    LineRef v = s.victim(0x200);
    EXPECT_EQ(s.lineAddr(v), 0x0u) << "FIFO evicts oldest fill";
}

TEST(TagStoreTest, RandomVictimIsValidChoice)
{
    Store s(smallGeom(2), ReplPolicy::Random, 1234);
    s.fill(s.victim(0x0), 0x0);
    s.fill(s.victim(0x100), 0x100);
    for (int i = 0; i < 20; ++i) {
        LineRef v = s.victim(0x200);
        EXPECT_EQ(v.set, 0u);
        EXPECT_LT(v.way, 2u);
    }
}

/** Victim ways of 10k fills into a 4-way Random store seeded @p seed. */
std::vector<std::uint32_t>
randomVictims(std::uint64_t seed)
{
    Store s(smallGeom(4), ReplPolicy::Random, seed);
    std::vector<std::uint32_t> ways;
    for (std::uint32_t i = 0; i < 10000; ++i) {
        const std::uint32_t addr = i * 16; // 4 sets round robin, new tags
        LineRef v = s.victim(addr);
        ways.push_back(v.way);
        s.fill(v, addr);
    }
    return ways;
}

TEST(TagStoreTest, RandomVictimsFollowTheSeed)
{
    EXPECT_EQ(randomVictims(1234), randomVictims(1234));
    EXPECT_NE(randomVictims(1234), randomVictims(1235));
}

TEST(TagStoreTest, VictimWherePredicate)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    s.fill(s.victim(0x0), 0x0).meta.value = 1;
    s.fill(s.victim(0x100), 0x100).meta.value = 2;
    LineRef v = s.victimWhere(
        0, [](LineRef, const Store::Line &l) { return l.meta.value == 2; });
    EXPECT_EQ(s.line(v).meta.value, 2);
}

TEST(TagStoreTest, VictimWhereFallsBackWhenNoneEligible)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    s.fill(s.victim(0x0), 0x0);
    s.fill(s.victim(0x100), 0x100);
    LineRef v =
        s.victimWhere(0, [](LineRef, const Store::Line &) { return false; });
    EXPECT_TRUE(s.line(v).valid) << "fallback picks some valid line";
}

TEST(TagStoreTest, InvalidateSingle)
{
    Store s(smallGeom(), ReplPolicy::LRU);
    LineRef slot = s.victim(0x40);
    s.fill(slot, 0x40);
    s.invalidate(slot);
    EXPECT_FALSE(s.find(0x40).has_value());
}

TEST(TagStoreTest, InvalidateAllResetsPayloads)
{
    Store s(smallGeom(), ReplPolicy::LRU);
    LineRef slot = s.victim(0x40);
    s.fill(slot, 0x40).meta.value = 9;
    s.invalidateAll();
    EXPECT_EQ(s.validCount(), 0u);
    EXPECT_EQ(s.line(slot).meta.value, 0);
}

TEST(TagStoreTest, FillResetsPayload)
{
    Store s(smallGeom(), ReplPolicy::LRU);
    LineRef slot = s.victim(0x40);
    s.fill(slot, 0x40).meta.value = 9;
    s.fill(slot, 0x140);
    EXPECT_EQ(s.line(slot).meta.value, 0);
}

TEST(TagStoreTest, ForEachWayVisitsAssocLines)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    int visits = 0;
    s.forEachWay(3, [&](LineRef ref, Store::Line &) {
        EXPECT_EQ(ref.set, 3u);
        ++visits;
    });
    EXPECT_EQ(visits, 2);
}

TEST(TagStoreTest, ForEachLineVisitsAll)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    int visits = 0;
    s.forEachLine([&](LineRef, Store::Line &) { ++visits; });
    EXPECT_EQ(visits, 16);
}

TEST(TagStoreTest, ConflictingTagsCoexistAcrossWays)
{
    Store s(smallGeom(2), ReplPolicy::LRU);
    s.fill(s.victim(0x0), 0x0);
    s.fill(s.victim(0x100), 0x100);
    EXPECT_TRUE(s.find(0x0).has_value());
    EXPECT_TRUE(s.find(0x100).has_value());
}

} // namespace
} // namespace vrc
