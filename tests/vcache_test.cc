/**
 * @file
 * Unit tests for the V-cache tag store behaviour (swapped-valid bit,
 * retag, victim choice). The architected r-pointer bits are owned by
 * the hierarchy's synonym directory (tests/synonym_dir_test.cc).
 */

#include <gtest/gtest.h>

#include "core/vcache.hh"

namespace vrc
{
namespace
{

CacheParams
smallParams()
{
    return {4 * 1024, 16, 1, ReplPolicy::LRU};
}

TEST(VCacheTest, MissOnEmpty)
{
    VCache vc(smallParams());
    EXPECT_FALSE(vc.lookup(VirtAddr(0x1000)).has_value());
}

TEST(VCacheTest, InstallThenHit)
{
    VCache vc(smallParams());
    VirtAddr va(0x1230);
    LineRef slot = vc.victimFor(va);
    vc.install(slot, va, 0x55550, false);
    auto hit = vc.lookup(va);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(vc.line(*hit).meta.dirty);
    EXPECT_EQ(vc.line(*hit).meta.physBlockAddr, 0x55550u);
}

TEST(VCacheTest, SwappedBlockDoesNotHit)
{
    VCache vc(smallParams());
    VirtAddr va(0x1000);
    vc.install(vc.victimFor(va), va, 0x9990, true);
    vc.markAllSwapped();
    EXPECT_FALSE(vc.lookup(va).has_value())
        << "swapped-valid blocks are invisible to lookups";
    // ...but the content is still occupied for synonym/victim purposes.
    auto occ = vc.findOccupied(0x1000);
    ASSERT_TRUE(occ.has_value());
    EXPECT_TRUE(vc.line(*occ).meta.swappedValid);
    EXPECT_TRUE(vc.line(*occ).meta.dirty) << "dirty survives the switch";
}

TEST(VCacheTest, MarkAllSwappedSkipsEmptyLines)
{
    VCache vc(smallParams());
    vc.markAllSwapped();
    EXPECT_EQ(vc.tags().validCount(), 0u);
}

TEST(VCacheTest, RetagClearsSwappedAndPreservesState)
{
    VCache vc(smallParams());
    VirtAddr old_va(0x1000);
    vc.install(vc.victimFor(old_va), old_va, 0x9990, true);
    vc.markAllSwapped();
    auto occ = vc.findOccupied(0x1000);
    ASSERT_TRUE(occ.has_value());
    // New virtual address in the same set (same index bits).
    VirtAddr new_va(0x1000 + 4 * 1024);
    ASSERT_EQ(vc.setIndex(new_va), occ->set);
    vc.retag(*occ, new_va);
    auto hit = vc.lookup(new_va);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(vc.line(*hit).meta.dirty);
    EXPECT_EQ(vc.line(*hit).meta.physBlockAddr, 0x9990u);
    EXPECT_FALSE(vc.lookup(old_va).has_value());
}

TEST(VCacheTest, InstallClearsSwapped)
{
    VCache vc(smallParams());
    VirtAddr va(0x1000);
    vc.install(vc.victimFor(va), va, 0x9990, false);
    vc.markAllSwapped();
    LineRef slot = vc.victimFor(va);
    vc.install(slot, va, 0x9990, false);
    EXPECT_TRUE(vc.lookup(va).has_value());
}

TEST(VCacheTest, ConflictingBlocksShareSetDirectMapped)
{
    VCache vc(smallParams());
    VirtAddr a(0x1000), b(0x1000 + 4 * 1024);
    EXPECT_EQ(vc.setIndex(a), vc.setIndex(b));
    vc.install(vc.victimFor(a), a, 0x100, false);
    LineRef slot = vc.victimFor(b);
    EXPECT_TRUE(vc.line(slot).valid) << "victim is the conflicting block";
}

/**
 * In a 2-way set the stale same-tag line, not the LRU way, is the
 * victim: tags must stay unique per set. After a context switch leaves
 * both ways swapped, with the other way least recently used,
 * victimFor() must still pick the swapped copy of the same block, which
 * findOccupied() finds and lookup() does not.
 */
TEST(VCacheTest, SwappedSameTagIsVictimOverLruWayTwoWay)
{
    VCache vc(CacheParams{4 * 1024, 16, 2, ReplPolicy::LRU});
    VirtAddr older(0x1000), newer(0x1000 + 2 * 1024);
    ASSERT_EQ(vc.setIndex(older), vc.setIndex(newer));
    LineRef older_slot = vc.victimFor(older);
    vc.install(older_slot, older, 0x100, true);
    LineRef newer_slot = vc.victimFor(newer);
    vc.install(newer_slot, newer, 0x200, false);
    ASSERT_NE(older_slot.way, newer_slot.way);
    vc.markAllSwapped();

    ASSERT_EQ(vc.tags().victim(newer.value()), older_slot)
        << "the base policy would evict the LRU way";
    EXPECT_EQ(vc.victimFor(newer), newer_slot);

    auto occ = vc.findOccupied(newer.value());
    ASSERT_TRUE(occ.has_value());
    EXPECT_EQ(*occ, newer_slot);
    EXPECT_TRUE(vc.line(*occ).meta.swappedValid);
    EXPECT_FALSE(vc.lookup(newer).has_value());
}

TEST(VCacheTest, LineVAddrRoundTrip)
{
    VCache vc(smallParams());
    VirtAddr va(0xabc0);
    LineRef slot = vc.victimFor(va);
    vc.install(slot, va, 0x100, false);
    EXPECT_EQ(vc.lineVAddr(slot), 0xabc0u);
}

TEST(VCacheDeathTest, RetagAcrossSetsRejected)
{
    VCache vc(smallParams());
    VirtAddr va(0x1000);
    LineRef slot = vc.victimFor(va);
    vc.install(slot, va, 0x100, false);
    EXPECT_DEATH(vc.retag(slot, VirtAddr(0x2010)), "within the set");
}

} // namespace
} // namespace vrc
