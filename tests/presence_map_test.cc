/**
 * @file
 * Differential test of the snoop filter's PresenceMap against a
 * std::unordered_map reference: randomized setBits/clearBits sequences
 * over block-aligned keys that grow the table several times and erase
 * through probe chains (backward-shift deletion).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/rng.hh"
#include "coherence/presence_map.hh"

namespace vrc
{
namespace
{

using Reference = std::unordered_map<std::uint32_t, PresenceMap::Mask>;

/** Every key of @p pool must read back as the reference says. */
void
expectAgrees(const PresenceMap &map, const Reference &ref,
             const std::vector<std::uint32_t> &pool, int step)
{
    ASSERT_EQ(map.size(), ref.size()) << "step " << step;
    for (std::uint32_t key : pool) {
        auto it = ref.find(key);
        const PresenceMap::Mask want = it == ref.end() ? 0 : it->second;
        ASSERT_EQ(map.lookup(key), want)
            << "step " << step << " key 0x" << std::hex << key;
    }
}

/**
 * Grow the map to more than 3072 entries -- past the 3/4 load limit of
 * 1024, 2048 and 4096 slots, so at least three grow() steps -- then
 * drain it, mixing sets and clears throughout.
 *
 * Only grow() and the backward-shift erase move entries other than the
 * one a step touches, so every key of the pool is checked after a step
 * that erased a key or changed the capacity, and every 256th step;
 * other steps check the size and the touched key.
 */
void
runDifferential(std::uint32_t align, std::uint64_t seed)
{
    constexpr std::uint32_t kPoolSize = 4000;
    constexpr int kSteps = 16000;
    // Mostly consecutive line addresses (what a cache holds), plus a
    // sprinkle of far-apart ones sharing the same low bits.
    std::vector<std::uint32_t> pool;
    for (std::uint32_t i = 0; i < kPoolSize; ++i) {
        std::uint32_t line = i % 8 == 7 ? i << 12 : i;
        pool.push_back(0x40000000u + line * align);
    }

    Rng rng(seed);
    PresenceMap map;
    Reference ref;
    std::size_t peak = 0;
    std::size_t capacity = map.capacity();
    for (int step = 0; step < kSteps; ++step) {
        // Mostly sets at random keys for the first 5/8; then mostly
        // clears, striding over the whole pool (1237 is coprime to its
        // size). Masks use 8 agents; 3/4 of clears drop every bit.
        const bool grow_phase = step < kSteps / 8 * 5;
        const std::uint32_t key = grow_phase
            ? pool[rng.below(kPoolSize)]
            : pool[std::uint64_t(step) * 1237 % kPoolSize];
        const bool set = rng.below(100) < (grow_phase ? 90u : 10u);
        PresenceMap::Mask bits = PresenceMap::Mask{1} << rng.below(8);
        if (!set && rng.below(4) != 0)
            bits = ~PresenceMap::Mask{0};
        const std::size_t before = ref.size();
        if (set) {
            map.setBits(key, bits);
            ref[key] |= bits;
        } else {
            map.clearBits(key, bits);
            auto it = ref.find(key);
            if (it != ref.end()) {
                it->second &= ~bits;
                if (it->second == 0)
                    ref.erase(it);
            }
        }
        const bool erased = ref.size() < before;
        peak = std::max(peak, ref.size());
        if (erased || map.capacity() != capacity || step % 256 == 0) {
            ASSERT_NO_FATAL_FAILURE(expectAgrees(map, ref, pool, step));
            capacity = map.capacity();
        } else {
            ASSERT_NO_FATAL_FAILURE(expectAgrees(map, ref, {key}, step));
        }
    }
    EXPECT_GT(peak, 3072u) << "the table never grew three times";
    EXPECT_LT(ref.size(), peak / 2) << "the drain phase erased too little";

    Reference seen;
    map.forEach([&](std::uint32_t key, PresenceMap::Mask mask) {
        EXPECT_NE(mask, 0u);
        EXPECT_TRUE(seen.emplace(key, mask).second)
            << "key 0x" << std::hex << key << " visited twice";
    });
    EXPECT_EQ(seen, ref);
}

TEST(PresenceMapTest, MatchesReference16ByteLines)
{
    runDifferential(16, 0x16);
}

TEST(PresenceMapTest, MatchesReference64ByteLines)
{
    runDifferential(64, 0x64);
}

TEST(PresenceMapTest, ClearBitsEverywhereKeepsOtherAgents)
{
    PresenceMap map;
    Reference ref;
    for (std::uint32_t i = 0; i < 2000; ++i) {
        const std::uint32_t key = i * 16;
        const PresenceMap::Mask bits = i % 3 == 0 ? 0b01 : 0b11;
        map.setBits(key, bits);
        ref[key] = bits;
    }
    map.clearBitsEverywhere(0b01);
    for (auto it = ref.begin(); it != ref.end();) {
        it->second &= ~PresenceMap::Mask{0b01};
        it = it->second == 0 ? ref.erase(it) : std::next(it);
    }
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 2000; ++i)
        keys.push_back(i * 16);
    expectAgrees(map, ref, keys, 0);
}

} // namespace
} // namespace vrc
