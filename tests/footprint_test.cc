/**
 * @file
 * Host-memory footprint of the simulated caches: what one simulated
 * line costs in host bytes, pinned so that a regression shows up as a
 * failing test rather than as peak RSS drift in a benchmark.
 *
 * A tag store keeps recency stamps only where its policy reads them,
 * an R-cache subentry is 8 bytes, and a hierarchy's arena holds
 * exactly the arrays its caches carve -- no chunk rounding.
 */

#include <gtest/gtest.h>

#include "base/arena.hh"
#include "cache/tag_store.hh"
#include "coherence/bus.hh"
#include "core/rcache.hh"
#include "core/rr_hierarchy.hh"
#include "core/vcache.hh"
#include "core/vr_hierarchy.hh"
#include "vm/addr_space.hh"

namespace vrc
{
namespace
{

static_assert(sizeof(RSubentry) == 8);

/** Host bytes per line of every array but the stamps. */
constexpr std::size_t kTagBytes = sizeof(std::uint32_t);
constexpr std::size_t kValidBytes = 1;
constexpr std::size_t kStampBytes = sizeof(std::uint64_t);

/**
 * Build a store of @p assoc ways under @p policy (1 KiB, 16-byte
 * blocks, int payloads) in an arena of exactly @p expect bytes, and
 * check the store carves all of it.
 */
void
expectStoreCarves(std::uint32_t assoc, ReplPolicy policy,
                  std::size_t expect, bool stamps)
{
    const CacheGeometry g(1024, 16, assoc);
    EXPECT_EQ(TagStore<int>::footprint(g, policy), expect);
    Arena arena(expect);
    TagStore<int> store(g, policy, 1, &arena);
    EXPECT_EQ(store.keepsStamps(), stamps);
    EXPECT_EQ(arena.usedBytes(), expect);
}

TEST(ArenaFootprintTest, DirectMappedStoreKeepsNoStamps)
{
    // 64 lines; every array is a multiple of the arena alignment.
    const std::size_t line = kTagBytes + kValidBytes + sizeof(int);
    for (ReplPolicy p :
         {ReplPolicy::LRU, ReplPolicy::FIFO, ReplPolicy::Random}) {
        SCOPED_TRACE(replPolicyName(p));
        expectStoreCarves(1, p, 64 * line, false);
    }
}

TEST(ArenaFootprintTest, MultiWayStoreKeepsStampsWherePolicyReadsThem)
{
    const std::size_t line = kTagBytes + kValidBytes + sizeof(int);
    expectStoreCarves(4, ReplPolicy::LRU, 64 * (line + kStampBytes), true);
    expectStoreCarves(4, ReplPolicy::FIFO, 64 * (line + kStampBytes), true);
    expectStoreCarves(4, ReplPolicy::Random, 64 * line, false);
}

TEST(ArenaFootprintTest, ArenaRoundsEachArrayToItsAlignmentOnly)
{
    EXPECT_EQ(Arena::footprint(0), 0u);
    EXPECT_EQ(Arena::footprint(1), Arena::kAlign);
    EXPECT_EQ(Arena::footprint(Arena::kAlign), Arena::kAlign);
    EXPECT_EQ(Arena::footprint(Arena::kAlign + 1), 2 * Arena::kAlign);

    Arena arena(2 * Arena::kAlign);
    auto *a = arena.allocArray<std::uint8_t>(3);
    auto *b = arena.allocArray<std::uint64_t>(1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::uint64_t),
              0u);
    EXPECT_EQ(reinterpret_cast<std::byte *>(b) -
                  reinterpret_cast<std::byte *>(a),
              static_cast<std::ptrdiff_t>(Arena::kAlign));
    EXPECT_EQ(a[0] + a[2] + b[0], 0u) << "arena memory is zeroed";
    EXPECT_EQ(arena.usedBytes(), arena.allocatedBytes());
}

/** The vrcbench contention machine: 512 B / 64 KiB, 16-byte blocks. */
class ContentionArenaTest : public ::testing::Test
{
  protected:
    ContentionArenaTest() : spaces(4096)
    {
        params.l1 = {512, 16, 1, ReplPolicy::LRU};
        params.l2 = {64 * 1024, 16, 1, ReplPolicy::LRU};
    }

    static constexpr std::size_t kL1Lines = 512 / 16;
    static constexpr std::size_t kL2Lines = 64 * 1024 / 16;

    HierarchyParams params;
    AddressSpaceManager spaces;
    SharedBus bus;
};

TEST_F(ContentionArenaTest, VrArenaIsExactlyTheGeometry)
{
    // Direct-mapped throughout: no stamps. One subentry per R-cache
    // line (equal block sizes).
    const std::size_t v_line = kTagBytes + kValidBytes + sizeof(VLineMeta);
    const std::size_t r_line = kTagBytes + kValidBytes +
                               sizeof(RLineMeta) + sizeof(RSubentry);
    EXPECT_EQ(v_line, 13u);
    EXPECT_EQ(r_line, 15u);
    const std::size_t expect = kL1Lines * v_line + kL2Lines * r_line;

    for (bool l1_virtual : {true, false}) {
        for (SynonymOrg org :
             {SynonymOrg::Pointer, SynonymOrg::ReverseLookup}) {
            VrHierarchy h(params, spaces, bus, l1_virtual, org);
            EXPECT_EQ(h.arena().allocatedBytes(), expect);
            EXPECT_EQ(h.arena().usedBytes(), expect);
        }
    }
}

TEST_F(ContentionArenaTest, RrNoInclArenaIsExactlyTheGeometry)
{
    const std::size_t l1_line = kTagBytes + kValidBytes + sizeof(PLineMeta);
    const std::size_t l2_line =
        kTagBytes + kValidBytes + sizeof(L2LineMeta);
    EXPECT_EQ(l1_line, 7u);
    EXPECT_EQ(l2_line, 7u);
    const std::size_t expect = kL1Lines * l1_line + kL2Lines * l2_line;

    RrNoInclHierarchy h(params, spaces, bus);
    EXPECT_EQ(h.arena().allocatedBytes(), expect);
    EXPECT_EQ(h.arena().usedBytes(), expect);
}

TEST_F(ContentionArenaTest, SplitAssociativeLevelOneIsCounted)
{
    // Two 2-way LRU halves keep stamps; the R-cache line holds two
    // subentries (32-byte level-2 blocks over 16-byte level-1 ones).
    params.splitL1 = true;
    params.l1.assoc = 2;
    params.l2.blockBytes = 32;
    const std::size_t half_lines = kL1Lines / 2;
    const std::size_t v_line =
        kTagBytes + kValidBytes + sizeof(VLineMeta) + kStampBytes;
    const std::size_t r_line = kTagBytes + kValidBytes +
                               sizeof(RLineMeta) + 2 * sizeof(RSubentry);
    const std::size_t expect =
        2 * half_lines * v_line + (kL2Lines / 2) * r_line;

    VrHierarchy h(params, spaces, bus, true);
    EXPECT_EQ(h.arena().allocatedBytes(), expect);
    EXPECT_EQ(h.arena().usedBytes(), expect);
    EXPECT_TRUE(h.vcache(0).tags().keepsStamps());
    EXPECT_FALSE(h.rcache().tags().keepsStamps());
}

} // namespace
} // namespace vrc
