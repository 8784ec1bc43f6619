/**
 * @file
 * Parameterized sweeps over tag-store geometry and replacement policy:
 * basic invariants must hold for every combination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cache/tag_store.hh"
#include "legacy_tag_store.hh"

namespace vrc
{
namespace
{

struct StoreCase
{
    std::uint32_t size;
    std::uint32_t block;
    std::uint32_t assoc;
    ReplPolicy policy;
};

std::string
storeCaseName(const ::testing::TestParamInfo<StoreCase> &info)
{
    const StoreCase &c = info.param;
    return std::to_string(c.size) + "B_b" + std::to_string(c.block) +
        "_w" + std::to_string(c.assoc) + "_" +
        replPolicyName(c.policy);
}

class TagStoreParamTest : public ::testing::TestWithParam<StoreCase>
{
};

/** The geometries where LRU stamp order is observable: LRU, w > 1. */
class TagStoreLruTest : public TagStoreParamTest
{
};

const std::vector<StoreCase> kStoreCases = {
    {512, 16, 1, ReplPolicy::LRU},     {512, 16, 2, ReplPolicy::LRU},
    {1024, 32, 4, ReplPolicy::LRU},    {1024, 16, 1, ReplPolicy::FIFO},
    {2048, 64, 2, ReplPolicy::FIFO},   {512, 16, 2, ReplPolicy::Random},
    {4096, 16, 8, ReplPolicy::Random}, {1024, 16, 64, ReplPolicy::LRU},
};

std::vector<StoreCase>
lruStoreCases()
{
    std::vector<StoreCase> lru;
    std::copy_if(kStoreCases.begin(), kStoreCases.end(),
                 std::back_inserter(lru), [](const StoreCase &c) {
                     return c.policy == ReplPolicy::LRU && c.assoc > 1;
                 });
    return lru;
}

TEST_P(TagStoreParamTest, FillFindInvalidateCycle)
{
    const StoreCase &c = GetParam();
    TagStore<int> store(CacheGeometry(c.size, c.block, c.assoc),
                        c.policy, 99);
    // Fill the entire store with distinct blocks.
    std::uint32_t blocks = c.size / c.block;
    for (std::uint32_t i = 0; i < blocks; ++i) {
        std::uint32_t addr = i * c.block;
        LineRef slot = store.victim(addr);
        EXPECT_FALSE(store.line(slot).valid)
            << "cold fill must use empty ways";
        store.fill(slot, addr).meta = static_cast<int>(i);
    }
    EXPECT_EQ(store.validCount(), blocks);
    // Everything present and payloads correct.
    for (std::uint32_t i = 0; i < blocks; ++i) {
        auto ref = store.find(i * c.block);
        ASSERT_TRUE(ref.has_value()) << "block " << i;
        EXPECT_EQ(store.line(*ref).meta, static_cast<int>(i));
        EXPECT_EQ(store.lineAddr(*ref), i * c.block);
    }
    // Invalidate half; the rest must survive.
    for (std::uint32_t i = 0; i < blocks; i += 2)
        store.invalidate(*store.find(i * c.block));
    for (std::uint32_t i = 0; i < blocks; ++i) {
        EXPECT_EQ(store.find(i * c.block).has_value(), i % 2 == 1)
            << "block " << i;
    }
}

TEST_P(TagStoreParamTest, VictimsAlwaysComeFromTheRightSet)
{
    const StoreCase &c = GetParam();
    TagStore<int> store(CacheGeometry(c.size, c.block, c.assoc),
                        c.policy, 7);
    CacheGeometry g(c.size, c.block, c.assoc);
    // Overfill each set by 3x; every victim must belong to the set.
    std::uint32_t rounds = 3 * c.assoc;
    for (std::uint32_t r = 0; r < rounds; ++r) {
        for (std::uint32_t set = 0; set < g.numSets(); ++set) {
            std::uint32_t addr =
                (set + (r + 1) * g.numSets()) * c.block;
            ASSERT_EQ(g.setIndex(addr), set);
            LineRef slot = store.victim(addr);
            EXPECT_EQ(slot.set, set);
            EXPECT_LT(slot.way, c.assoc);
            store.fill(slot, addr);
        }
    }
    EXPECT_EQ(store.validCount(), g.numBlocks());
}

TEST_P(TagStoreParamTest, NoDuplicateTagsPerSet)
{
    const StoreCase &c = GetParam();
    TagStore<int> store(CacheGeometry(c.size, c.block, c.assoc),
                        c.policy, 13);
    Rng rng(31);
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t addr =
            static_cast<std::uint32_t>(rng.below(64)) * c.block;
        if (!store.find(addr)) {
            LineRef slot = store.victim(addr);
            store.fill(slot, addr);
        }
    }
    CacheGeometry g(c.size, c.block, c.assoc);
    for (std::uint32_t set = 0; set < g.numSets(); ++set) {
        std::set<std::uint32_t> tags;
        store.forEachWay(set, [&](LineRef, TagStore<int>::Line &l) {
            if (l.valid) {
                EXPECT_TRUE(tags.insert(l.tag).second)
                    << "duplicate tag in set " << set;
            }
        });
    }
}

/**
 * SoA invariant: the (set, way) packing round-trips through the flat
 * arrays. Every stored line's reconstructed block address must map
 * back to exactly its own (set, way) via setIndex + find, for every
 * geometry -- a mis-stride in any of the parallel arrays would
 * surface as a wrong set, a wrong way, or a phantom hit.
 */
TEST_P(TagStoreParamTest, SoaPackingRoundTrips)
{
    const StoreCase &c = GetParam();
    CacheGeometry g(c.size, c.block, c.assoc);
    TagStore<int> store(g, c.policy, 17);
    std::uint32_t blocks = c.size / c.block;
    for (std::uint32_t i = 0; i < blocks; ++i) {
        // Scatter tags so neighbouring ways differ in high bits too.
        std::uint32_t addr = (i * 7919u % (4 * blocks)) * c.block;
        if (!store.find(addr))
            store.fill(store.victim(addr), addr);
    }
    for (std::uint32_t set = 0; set < g.numSets(); ++set) {
        store.forEachWay(set, [&](LineRef ref,
                                  TagStore<int>::Line &l) {
            if (!l.valid)
                return;
            std::uint32_t addr = store.lineAddr(ref);
            EXPECT_EQ(g.setIndex(addr), ref.set);
            EXPECT_EQ(g.tag(addr), l.tag);
            auto back = store.find(addr);
            ASSERT_TRUE(back.has_value());
            EXPECT_EQ(back->set, ref.set);
            EXPECT_EQ(back->way, ref.way);
        });
    }
}

/**
 * SoA invariant: the parallel valid/tag/stamp/meta arrays stay
 * mutually coherent through a long random op sequence. A shadow map
 * is the oracle: presence, payload and the valid population must
 * agree after every operation mix, and a full invalidate must leave
 * nothing findable (in particular, no invalid way may ever satisfy a
 * lookup -- the sentinel-tag fast path must be airtight).
 */
TEST_P(TagStoreParamTest, ParallelArraysStayCoherentUnderRandomOps)
{
    const StoreCase &c = GetParam();
    CacheGeometry g(c.size, c.block, c.assoc);
    TagStore<int> store(g, c.policy, 23);
    Rng rng(417);
    std::unordered_map<std::uint32_t, int> shadow;
    int next_payload = 1;
    std::uint32_t universe = 4 * (c.size / c.block);
    for (int op = 0; op < 5000; ++op) {
        std::uint32_t addr =
            static_cast<std::uint32_t>(rng.below(universe)) * c.block;
        std::uint64_t dice = rng.below(100);
        auto ref = store.find(addr);
        ASSERT_EQ(ref.has_value(), shadow.count(addr) != 0)
            << "presence diverged for " << addr << " at op " << op;
        if (dice < 60) {
            // Access: install on miss, touch and verify on hit.
            if (ref) {
                EXPECT_EQ(store.line(*ref).meta, shadow[addr]);
                store.touch(*ref);
            } else {
                LineRef slot = store.victim(addr);
                if (store.line(slot).valid)
                    shadow.erase(store.lineAddr(slot));
                store.fill(slot, addr).meta = next_payload;
                shadow[addr] = next_payload++;
            }
        } else if (dice < 90) {
            if (ref) {
                store.invalidate(*ref);
                shadow.erase(addr);
            }
        } else if (dice == 99) {
            store.invalidateAll();
            shadow.clear();
        }
    }
    EXPECT_EQ(store.validCount(), shadow.size());
    std::size_t seen = 0;
    store.forEachLine([&](LineRef ref, TagStore<int>::Line &l) {
        if (!l.valid)
            return;
        ++seen;
        auto it = shadow.find(store.lineAddr(ref));
        ASSERT_NE(it, shadow.end());
        EXPECT_EQ(l.meta, it->second);
    });
    EXPECT_EQ(seen, shadow.size());
}

/**
 * SoA invariant: with LRU and real associativity, the stamp array
 * must order ways exactly by touch recency -- the victim of a full
 * set is always the least recently touched way, for any permutation.
 */
TEST_P(TagStoreLruTest, LruVictimMatchesTouchOrder)
{
    const StoreCase &c = GetParam();
    CacheGeometry g(c.size, c.block, c.assoc);
    TagStore<int> store(g, c.policy, 29);
    // Fill set 0 completely.
    std::vector<std::uint32_t> addrs;
    for (std::uint32_t w = 0; w < c.assoc; ++w) {
        std::uint32_t addr = w * g.numSets() * c.block;
        ASSERT_EQ(g.setIndex(addr), 0u);
        store.fill(store.victim(addr), addr);
        addrs.push_back(addr);
    }
    Rng rng(3301);
    for (int round = 0; round < 32; ++round) {
        // Touch every resident block in a fresh random order.
        std::vector<std::uint32_t> order = addrs;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (std::uint32_t addr : order)
            store.touch(*store.find(addr));
        // The next victim must be the first-touched (oldest) block.
        std::uint32_t fresh =
            (c.assoc + round + 1) * g.numSets() * c.block;
        ASSERT_EQ(g.setIndex(fresh), 0u);
        LineRef v = store.victim(fresh);
        EXPECT_EQ(store.lineAddr(v), order.front())
            << "round " << round;
        // Replace it, keeping the set full for the next round.
        store.fill(v, fresh);
        *std::find(addrs.begin(), addrs.end(), order.front()) = fresh;
    }
}

/**
 * Store-level differential: the SoA TagStore against the original
 * array-of-structures LegacyTagStore. Both are seeded alike and driven
 * through one random sequence of every operation the simulator uses --
 * including victimWhere with a predicate that reads the line and a tag
 * rewrite on a valid line (the V-cache synonym retag), plus stamp
 * copies that force LRU/FIFO ties -- and every
 * return value must agree, as must every line's valid bit, tag and
 * payload at the end. Identical victims under Random replacement show
 * that the two stores consume their Rng draw for draw.
 */
TEST_P(TagStoreParamTest, MatchesLegacyReferenceUnderRandomOps)
{
    const StoreCase &c = GetParam();
    CacheGeometry g(c.size, c.block, c.assoc);
    TagStore<int> store(g, c.policy, 41);
    LegacyTagStore<int> legacy(g, c.policy, 41);
    Rng rng(5417);
    const std::uint32_t universe = 4 * g.numBlocks();
    auto randomAddr = [&] {
        return static_cast<std::uint32_t>(rng.below(universe)) * c.block +
               static_cast<std::uint32_t>(rng.below(c.block));
    };
    auto randomRef = [&] {
        return LineRef{static_cast<std::uint32_t>(rng.below(g.numSets())),
                       static_cast<std::uint32_t>(rng.below(c.assoc))};
    };
    // Deterministic predicate over (location, line contents).
    auto eligible = [](LineRef ref, const TagLineView<int> &l) {
        return (ref.way + l.tag + static_cast<std::uint32_t>(l.meta)) %
                   3 != 0;
    };
    auto expectSameFaultStats = [&] {
        const ArrayFaultStats &a = store.faultStats();
        const ArrayFaultStats &b = legacy.faultStats();
        EXPECT_EQ(a.silent, b.silent);
        EXPECT_EQ(a.corrected, b.corrected);
        EXPECT_EQ(a.detected, b.detected);
        EXPECT_EQ(a.uncorrectable, b.uncorrectable);
    };
    int next_payload = 1;
    for (int op = 0; op < 20000; ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        const std::uint64_t dice = rng.below(100);
        if (dice < 45) {
            // Access: find, then touch on a hit or victim + fill.
            const std::uint32_t addr = randomAddr();
            const auto hit = store.find(addr);
            ASSERT_EQ(hit, legacy.find(addr));
            if (hit) {
                store.touch(*hit);
                legacy.touch(*hit);
                continue;
            }
            const LineRef v = store.victim(addr);
            ASSERT_EQ(v, legacy.victim(addr));
            auto a = store.fill(v, addr);
            auto b = legacy.fill(v, addr);
            EXPECT_EQ(a.valid, b.valid);
            EXPECT_EQ(a.tag, b.tag);
            EXPECT_EQ(a.meta, b.meta);
            a.meta = b.meta = next_payload++;
        } else if (dice < 60) {
            // Predicated victim choice, then install there.
            const std::uint32_t addr = randomAddr();
            const std::uint32_t set = g.setIndex(addr);
            const LineRef v = store.victimWhere(set, eligible);
            ASSERT_EQ(v, legacy.victimWhere(set, eligible));
            store.fill(v, addr).meta = next_payload;
            legacy.fill(v, addr).meta = next_payload++;
        } else if (dice < 72) {
            const LineRef ref = randomRef();
            store.invalidate(ref);
            legacy.invalidate(ref);
        } else if (dice < 80) {
            // Retag a valid line in place, as a synonym move does.
            const LineRef ref = randomRef();
            ASSERT_EQ(store.line(ref).valid, legacy.line(ref).valid);
            if (!store.line(ref).valid)
                continue;
            const std::uint32_t tag = g.tag(randomAddr());
            store.line(ref).tag = tag;
            legacy.line(ref).tag = tag;
        } else if (dice < 85) {
            const LineRef ref = randomRef();
            ASSERT_EQ(store.line(ref).valid, legacy.line(ref).valid);
            if (store.line(ref).valid) {
                EXPECT_EQ(store.lineAddr(ref), legacy.lineAddr(ref));
            }
        } else if (dice < 88) {
            // Copy one way's recency stamp onto another way of its set.
            // No owner does this, so it is the only way to reach equal
            // stamps; it pins the tie-break (the lowest eligible way
            // wins). A store without stamps ignores it, and so does the
            // legacy store's choice: one way, or Random.
            const LineRef from = randomRef();
            const LineRef to{
                from.set, static_cast<std::uint32_t>(rng.below(c.assoc))};
            store.copyStamp(from, to);
            legacy.copyStamp(from, to);
        } else if (dice < 93) {
            EXPECT_EQ(store.validCount(), legacy.validCount());
        } else if (dice < 99) {
            const auto p = static_cast<ArrayProtection>(rng.below(3));
            store.setProtection(p);
            legacy.setProtection(p);
            const unsigned flips = 1 + static_cast<unsigned>(rng.below(2));
            const FaultOutcome out = store.absorbFault(flips);
            ASSERT_EQ(out, legacy.absorbFault(flips));
            if (out == FaultOutcome::Detected) {
                store.noteUncorrectable();
                legacy.noteUncorrectable();
            }
            expectSameFaultStats();
        } else if (rng.below(4) == 0) {
            store.invalidateAll();
            legacy.invalidateAll();
        }
    }
    EXPECT_EQ(store.validCount(), legacy.validCount());
    expectSameFaultStats();
    store.forEachLine([&](LineRef ref, TagStore<int>::Line &l) {
        const auto m = legacy.line(ref);
        EXPECT_EQ(l.valid, m.valid) << ref.set << "/" << ref.way;
        if (l.valid) {
            EXPECT_EQ(l.tag, m.tag) << ref.set << "/" << ref.way;
        }
        EXPECT_EQ(l.meta, m.meta) << ref.set << "/" << ref.way;
    });
}

INSTANTIATE_TEST_SUITE_P(Geometries, TagStoreParamTest,
                         ::testing::ValuesIn(kStoreCases), storeCaseName);
INSTANTIATE_TEST_SUITE_P(Geometries, TagStoreLruTest,
                         ::testing::ValuesIn(lruStoreCases()),
                         storeCaseName);

} // namespace
} // namespace vrc
