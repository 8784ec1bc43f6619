/**
 * @file
 * Unit tests for the R-cache: subentries and the relaxed inclusion
 * replacement rule. The architected v-pointer bits are owned by the
 * hierarchy's synonym directory (tests/synonym_dir_test.cc).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/rcache.hh"

namespace vrc
{
namespace
{

constexpr std::uint32_t kL1Block = 16;

TEST(RCacheTest, LookupMissOnEmpty)
{
    RCache rc({64 * 1024, 16, 1}, kL1Block);
    EXPECT_FALSE(rc.lookup(PhysAddr(0x100)).has_value());
}

TEST(RCacheTest, InstallCreatesSubentries)
{
    RCache rc({64 * 1024, 64, 1}, kL1Block);
    EXPECT_EQ(rc.subCount(), 4u);
    auto [slot, forced] = rc.victimFor(PhysAddr(0x1000));
    EXPECT_FALSE(forced);
    auto line = rc.install(slot, PhysAddr(0x1000),
                            CoherenceState::Private);
    EXPECT_EQ(line.meta.state, CoherenceState::Private);
    EXPECT_FALSE(line.meta.rdirty);
    EXPECT_TRUE(rc.noChildren(slot));
    for (std::uint32_t i = 0; i < rc.subCount(); ++i) {
        const RSubentry &s = rc.sub(slot, i);
        EXPECT_FALSE(s.childAbove()) << "sub-block " << i;
        EXPECT_FALSE(s.vdirty) << "sub-block " << i;
    }
    // Both sub() overloads name the same storage.
    EXPECT_EQ(&rc.sub(slot, PhysAddr(0x1020)), &rc.sub(slot, 2u));
}

TEST(RCacheTest, ReinstallResetsEverySubentry)
{
    RCache rc({64 * 1024, 64, 1}, kL1Block);
    ASSERT_EQ(rc.subCount(), 4u);
    PhysAddr a(0x1000);
    auto [slot, forced] = rc.victimFor(a);
    rc.install(slot, a, CoherenceState::Private);
    for (std::uint32_t i = 0; i < rc.subCount(); ++i) {
        RSubentry &s = rc.sub(slot, i);
        s.inclusion = true;
        s.buffer = true;
        s.vdirty = true;
        s.l1Index = 1;
        s.childAddrBlock = 0xabc0 + i * kL1Block;
    }
    rc.invalidate(slot);

    // Same set (64 KiB direct-mapped), different tag: same slot.
    PhysAddr b(0x1000 + 64 * 1024);
    auto [again, forced_again] = rc.victimFor(b);
    EXPECT_EQ(again, slot);
    EXPECT_FALSE(forced_again) << "an invalid way is always free";
    rc.install(again, b, CoherenceState::Shared);
    for (std::uint32_t i = 0; i < rc.subCount(); ++i) {
        const RSubentry &s = rc.sub(again, i);
        EXPECT_FALSE(s.inclusion) << "sub-block " << i;
        EXPECT_FALSE(s.buffer) << "sub-block " << i;
        EXPECT_FALSE(s.vdirty) << "sub-block " << i;
        EXPECT_EQ(s.l1Index, 0u) << "sub-block " << i;
        EXPECT_EQ(s.childAddrBlock, 0u) << "sub-block " << i;
    }
}

TEST(RCacheTest, SubIndexSelectsSubBlock)
{
    RCache rc({64 * 1024, 64, 1}, kL1Block);
    EXPECT_EQ(rc.subIndex(PhysAddr(0x1000)), 0u);
    EXPECT_EQ(rc.subIndex(PhysAddr(0x1010)), 1u);
    EXPECT_EQ(rc.subIndex(PhysAddr(0x1030)), 3u);
    EXPECT_EQ(rc.subIndex(PhysAddr(0x1040)), 0u) << "next line wraps";
}

TEST(RCacheTest, SubBlockAddr)
{
    RCache rc({64 * 1024, 64, 1}, kL1Block);
    auto [slot, forced] = rc.victimFor(PhysAddr(0x1000));
    rc.install(slot, PhysAddr(0x1000), CoherenceState::Shared);
    EXPECT_EQ(rc.subBlockAddr(slot, 2), 0x1020u);
}

TEST(RCacheTest, RelaxedVictimPrefersChildlessLine)
{
    RCache rc({512, 16, 2}, kL1Block); // 16 sets x 2
    PhysAddr a(0x0), b(0x200); // same set, different tags
    auto [sa, fa] = rc.victimFor(a);
    rc.install(sa, a, CoherenceState::Private);
    auto [sb, fb] = rc.victimFor(b);
    rc.install(sb, b, CoherenceState::Private);

    // Mark `a` as having a child; `b` stays childless.
    rc.sub(*rc.probe(a), a).inclusion = true;
    auto [victim, forced] = rc.victimFor(PhysAddr(0x400));
    EXPECT_FALSE(forced);
    EXPECT_EQ(rc.lineAddr(victim), 0x200u)
        << "relaxed rule must pick the line without level-1 children";
}

TEST(RCacheTest, RelaxedVictimForcedWhenAllHaveChildren)
{
    RCache rc({512, 16, 2}, kL1Block);
    PhysAddr a(0x0), b(0x200);
    auto [sa, fa] = rc.victimFor(a);
    rc.install(sa, a, CoherenceState::Private);
    auto [sb, fb] = rc.victimFor(b);
    rc.install(sb, b, CoherenceState::Private);
    rc.sub(*rc.probe(a), a).inclusion = true;
    rc.sub(*rc.probe(b), b).buffer = true;

    auto [victim, forced] = rc.victimFor(PhysAddr(0x400));
    EXPECT_TRUE(forced) << "no childless line exists";
    EXPECT_TRUE(rc.line(victim).valid);
}

TEST(RCacheTest, BufferBitCountsAsChild)
{
    RCache rc({64 * 1024, 32, 1}, kL1Block);
    ASSERT_EQ(rc.subCount(), 2u);
    PhysAddr a(0x1000);
    auto [slot, forced] = rc.victimFor(a);
    rc.install(slot, a, CoherenceState::Private);
    EXPECT_TRUE(rc.noChildren(slot));
    rc.sub(slot, 1u).buffer = true;
    EXPECT_FALSE(rc.noChildren(slot));
}

/**
 * Fill one set of a 4-way R-cache 32 times, giving lines level-1
 * children and taking them away in a fixed pattern, and return each
 * relaxed-rule victim as (way, forced).
 */
std::vector<std::pair<std::uint32_t, bool>>
relaxedVictimSequence(ReplPolicy policy)
{
    RCache rc({1024, 16, 4, policy}, kL1Block); // 16 sets x 4
    std::vector<std::pair<std::uint32_t, bool>> seq;
    for (std::uint32_t k = 0; k < 32; ++k) {
        PhysAddr pa(k * 0x100); // all in set 0
        auto [slot, forced] = rc.victimFor(pa);
        seq.emplace_back(slot.way, forced);
        rc.install(slot, pa, CoherenceState::Private);
        if (k % 3 == 0)
            rc.sub(slot, pa).inclusion = true;
        if (k % 5 == 1)
            rc.sub(slot, pa).buffer = true;
        if (k % 4 == 2) {
            LineRef old{0, (k / 4) % 4};
            RSubentry &s = rc.sub(old, PhysAddr(rc.lineAddr(old)));
            s.inclusion = false;
            s.buffer = false;
        }
        if (k >= 2)
            rc.lookup(PhysAddr((k - 2) * 0x100));
    }
    return seq;
}

/** Zip pinned way and forced sequences into relaxedVictimSequence form. */
std::vector<std::pair<std::uint32_t, bool>>
pinned(const std::vector<std::uint32_t> &ways,
       const std::vector<int> &forced)
{
    std::vector<std::pair<std::uint32_t, bool>> seq;
    for (std::size_t i = 0; i < ways.size(); ++i)
        seq.emplace_back(ways[i], forced.at(i) != 0);
    return seq;
}

// The sequences below were recorded from the per-line-vector R-cache;
// they pin that the predicate judges the way it is asked about and
// that Random draws the Rng exactly as before.
TEST(RCacheTest, RelaxedVictimSequenceLru)
{
    EXPECT_EQ(relaxedVictimSequence(ReplPolicy::LRU),
              pinned({0, 1, 2, 3, 2, 0, 2, 1, 1, 0, 1, 2, 1, 3, 3, 3,
                      0, 2, 2, 0, 0, 0, 1, 1, 1, 3, 3, 2, 0, 0, 0, 3},
                     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
                      1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0}));
}

TEST(RCacheTest, RelaxedVictimSequenceRandom)
{
    EXPECT_EQ(relaxedVictimSequence(ReplPolicy::Random),
              pinned({0, 1, 2, 3, 2, 0, 2, 0, 1, 1, 0, 2, 0, 3, 3, 3,
                      0, 0, 0, 0, 0, 0, 2, 2, 2, 1, 1, 2, 2, 2, 2, 3},
                     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
                      1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0}));
}

TEST(RCacheTest, ProbeDoesNotTouchRecency)
{
    RCache rc({512, 16, 2}, kL1Block);
    PhysAddr a(0x0), b(0x200);
    auto [sa, fa] = rc.victimFor(a);
    rc.install(sa, a, CoherenceState::Private);
    auto [sb, fb] = rc.victimFor(b);
    rc.install(sb, b, CoherenceState::Private);
    // `a` is older. A probe must not refresh it.
    rc.probe(a);
    auto [victim, forced] = rc.victimFor(PhysAddr(0x400));
    EXPECT_EQ(rc.lineAddr(victim), 0x0u);
    // A lookup does refresh.
    rc.lookup(a);
    auto [victim2, forced2] = rc.victimFor(PhysAddr(0x400));
    EXPECT_EQ(rc.lineAddr(victim2), 0x200u);
}

TEST(RCacheDeathTest, BlockSizeMismatchRejected)
{
    EXPECT_DEATH(RCache({64 * 1024, 16, 1}, 64),
                 "multiple");
}

} // namespace
} // namespace vrc
