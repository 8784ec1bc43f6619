/**
 * @file
 * Unit tests for the deterministic RNG wrapper, including its exactness
 * contract: the engine, integer reductions, real conversion and
 * Bernoulli thresholds reproduce the standard components draw for draw.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "base/rng.hh"

namespace vrc
{
namespace
{

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.below(1000), b.below(1000));
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.below(1u << 30) == b.below(1u << 30) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, BelowOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(RngTest, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(RngTest, ChanceExtremes)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(RngTest, ChanceRoughlyCalibrated)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedRespectsWeights)
{
    Rng r(19);
    std::vector<double> w{0.0, 10.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.weighted(w), 1u);
}

TEST(RngTest, WeightedProportions)
{
    Rng r(23);
    std::vector<double> w{1.0, 3.0};
    int c1 = 0;
    for (int i = 0; i < 10000; ++i)
        c1 += r.weighted(w) == 1 ? 1 : 0;
    EXPECT_NEAR(c1 / 10000.0, 0.75, 0.03);
}

TEST(RngTest, GeometricBounded)
{
    Rng r(29);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.geometric(0.5, 8);
        EXPECT_GE(v, 1u);
        EXPECT_LE(v, 8u);
    }
}

TEST(RngTest, ForkIndependence)
{
    Rng parent(31);
    Rng c1 = parent.fork();
    Rng c2 = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += c1.below(1u << 30) == c2.below(1u << 30) ? 1 : 0;
    EXPECT_LT(same, 5);
}

TEST(RngTest, ForkDeterministic)
{
    Rng p1(37), p2(37);
    Rng c1 = p1.fork();
    Rng c2 = p2.fork();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(c1.below(1000), c2.below(1000));
}

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/** Seeds at both ends of the range and the conventional default. */
const std::uint64_t kSeeds[] = {0, 1, kMax};

/** A generator that returns one fixed word, to probe single draws. */
struct FixedDraw
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return kMax; }
    result_type operator()() { return x; }
    result_type x;
};

/** What the standard real distribution makes of draw @p x. */
double
stdUnit(std::uint64_t x)
{
    FixedDraw g{x};
    return std::uniform_real_distribution<double>(0.0, 1.0)(g);
}

TEST(RngExactTest, EngineMatchesStdMt19937_64)
{
    for (std::uint64_t seed : kSeeds) {
        std::mt19937_64 ref(seed);
        Mt19937_64 own(seed);
        Rng rng(seed);
        for (int i = 0; i < 1'000'000; ++i) {
            std::uint64_t want = ref();
            ASSERT_EQ(own(), want) << "seed " << seed << " draw " << i;
            ASSERT_EQ(rng.raw(), want) << "seed " << seed << " draw " << i;
        }
    }
}

TEST(RngExactTest, UniformMatchesStdDistribution)
{
    for (std::uint64_t seed : kSeeds) {
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        Rng rng(seed);
        for (int i = 0; i < 1'000'000; ++i)
            ASSERT_EQ(rng.uniform(), dist(ref))
                << "seed " << seed << " draw " << i;
    }
}

TEST(RngExactTest, UnitConversionMatchesStdAtRoundingEdges)
{
    // Exact integers, round-to-even ties at 2^53 and 2^63, and the top
    // words that round to 2^64 and must clamp below 1.
    const std::uint64_t edges[] = {
        0, 1, 2, (1ULL << 53) - 1, 1ULL << 53, (1ULL << 53) + 1,
        (1ULL << 53) + 3, (1ULL << 63) - 513, (1ULL << 63) - 512,
        (1ULL << 63) - 511, (1ULL << 63) - 1, 1ULL << 63,
        (1ULL << 63) + 1, (1ULL << 63) + 1024, (1ULL << 63) + 1025,
        kMax - 3072, kMax - 3071, kMax - 2048, kMax - 1024, kMax - 1023,
        kMax - 1, kMax};
    for (std::uint64_t x : edges) {
        EXPECT_EQ(Rng::toUnit(x), stdUnit(x)) << "word " << x;
        EXPECT_LT(Rng::toUnit(x), 1.0) << "word " << x;
    }
    EXPECT_EQ(Rng::toUnit(kMax), std::nextafter(1.0, 0.0));
}

TEST(RngExactTest, BelowAndRangeMatchStdUniformInt)
{
    const std::uint64_t bounds[] = {1,
                                    2,
                                    3,
                                    (1ULL << 32) - 1,
                                    1ULL << 32,
                                    (1ULL << 32) + 1,
                                    (1ULL << 63) + 1,
                                    kMax};
    for (std::uint64_t seed : kSeeds) {
        for (std::uint64_t bound : bounds) {
            std::mt19937_64 ref(seed);
            std::uniform_int_distribution<std::uint64_t> dist(0, bound - 1);
            Rng rng(seed);
            for (int i = 0; i < 20'000; ++i)
                ASSERT_EQ(rng.below(bound), dist(ref))
                    << "seed " << seed << " bound " << bound << " draw " << i;
            // Rejections consumed the same number of words on both sides.
            ASSERT_EQ(rng.raw(), ref());
        }
    }

    struct Span
    {
        std::uint64_t lo, hi;
    };
    const Span spans[] = {{0, 0}, {3, 5}, {8, 128}, {7, 7},
                          {5, kMax}, {0, kMax}, {1ULL << 63, kMax}};
    for (const Span &sp : spans) {
        std::mt19937_64 ref(9);
        std::uniform_int_distribution<std::uint64_t> dist(sp.lo, sp.hi);
        Rng rng(9);
        for (int i = 0; i < 20'000; ++i)
            ASSERT_EQ(rng.range(sp.lo, sp.hi), dist(ref))
                << "[" << sp.lo << ", " << sp.hi << "] draw " << i;
        ASSERT_EQ(rng.raw(), ref());
    }
}

TEST(RngExactTest, ThresholdEqualsChance)
{
    const double probs[] = {-0.5,
                            0.0,
                            std::ldexp(1.0, -70),
                            std::ldexp(1.0, -53),
                            0.002,
                            0.5,
                            std::nextafter(1.0, 0.0),
                            1.0,
                            1.5,
                            std::numeric_limits<double>::quiet_NaN()};
    const Rng::U128 two64 = Rng::U128{1} << 64;
    for (double p : probs) {
        const Rng::Threshold t = Rng::threshold(p);
        ASSERT_LE(t.limit, two64) << "p " << p;

        // At the boundary: the standard test flips exactly at T.
        for (Rng::U128 x : {t.limit - 1, t.limit, t.limit + 1}) {
            if (x >= two64) // includes T-1 wrapping when T == 0
                continue;
            std::uint64_t w = static_cast<std::uint64_t>(x);
            EXPECT_EQ(stdUnit(w) < p, x < t.limit)
                << "p " << p << " word " << w;
        }

        // On random draws: one draw each, same outcome.
        Rng a(77), b(77);
        for (int i = 0; i < 100'000; ++i)
            ASSERT_EQ(a.chance(p), b.chance(t)) << "p " << p << " draw " << i;
        EXPECT_EQ(a.raw(), b.raw());
    }

    EXPECT_EQ(Rng::threshold(0.0).limit, 0u);
    EXPECT_EQ(Rng::threshold(std::ldexp(1.0, -70)).limit, 1u);
    EXPECT_EQ(Rng::threshold(std::ldexp(1.0, -53)).limit, 2048u);
    EXPECT_EQ(Rng::threshold(1.0).limit, two64);
}

} // namespace
} // namespace vrc
