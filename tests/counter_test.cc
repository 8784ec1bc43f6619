/**
 * @file
 * Unit tests for fixed counter tables.
 */

#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "base/counter.hh"

namespace vrc
{
namespace
{

#define TEST_STATS(X)                                                  \
    X(Alpha, "alpha", Always)                                          \
    X(Beta, "beta", Extra)                                             \
    X(Delta, "delta", OnFirstUse)                                      \
    X(Gamma, "gamma", Always)

struct TestStats
{
    static constexpr std::uint32_t OnFirstUse = 0;
    static constexpr std::uint32_t Always = 1;
    static constexpr std::uint32_t Extra = 2;

    VRC_STAT_TABLE(TEST_STATS)
};

using Stat = TestStats::Stat;
using Listing = std::vector<std::pair<std::string_view, std::uint64_t>>;

// The order check itself: a row out of name order, or one naming
// another enumerator, fails it.
enum class Two : std::uint8_t { A, B, Count };
constexpr StatRow<Two> kSorted[] = {{Two::A, "a", 1}, {Two::B, "b", 1}};
constexpr StatRow<Two> kUnsorted[] = {{Two::A, "b", 1}, {Two::B, "a", 1}};
constexpr StatRow<Two> kSwapped[] = {{Two::B, "a", 1}, {Two::A, "b", 1}};
static_assert(statRowsInOrder(kSorted));
static_assert(!statRowsInOrder(kUnsorted));
static_assert(!statRowsInOrder(kSwapped));

TEST(CounterTest, StartsAtZero)
{
    StatGroup<TestStats> g(TestStats::Always | TestStats::Extra);
    for (Stat s : {Stat::Alpha, Stat::Beta, Stat::Delta, Stat::Gamma})
        EXPECT_EQ(g[s], 0u);
    EXPECT_EQ(g.all(), (Listing{{"alpha", 0}, {"beta", 0}, {"gamma", 0}}));
}

TEST(CounterTest, IncrementForms)
{
    StatGroup<TestStats> g(TestStats::Always);
    ++g[Stat::Alpha];
    g[Stat::Alpha] += 5;
    ++g.show(Stat::Delta);
    EXPECT_EQ(g[Stat::Alpha], 6u);
    EXPECT_EQ(g.value("alpha"), 6u);
    EXPECT_EQ(g.value("delta"), 1u);
}

TEST(CounterTest, Reset)
{
    StatGroup<TestStats> g(TestStats::Always);
    g[Stat::Alpha] += 3;
    g.reset();
    EXPECT_EQ(g[Stat::Alpha], 0u);
    ++g[Stat::Alpha];
    EXPECT_EQ(g.value("alpha"), 1u) << "a reset counter counts from zero";
}

TEST(StatGroupTest, UnknownNameReadsZero)
{
    StatGroup<TestStats> g(TestStats::Always);
    g[Stat::Gamma] += 3;
    EXPECT_EQ(g.value("gamma"), 3u);
    EXPECT_EQ(g.value("missing"), 0u);
    EXPECT_EQ(g.value(""), 0u);
    EXPECT_EQ(g.value("gammaa"), 0u);
    EXPECT_EQ(g.value("zzz"), 0u);
}

TEST(StatGroupTest, AllListsShownCountersInNameOrder)
{
    // Only the kinds passed in are shown, whatever the row order.
    StatGroup<TestStats> g(TestStats::Always);
    g[Stat::Gamma] = 4;
    g[Stat::Alpha] = 2;
    EXPECT_EQ(g.all(), (Listing{{"alpha", 2}, {"gamma", 4}}));

    StatGroup<TestStats> extra(TestStats::Extra);
    EXPECT_EQ(extra.all(), (Listing{{"beta", 0}}));
}

TEST(StatGroupTest, LazyCounterShownFromFirstIncrement)
{
    StatGroup<TestStats> g(TestStats::Always);
    EXPECT_EQ(g.all(), (Listing{{"alpha", 0}, {"gamma", 0}}));
    ++g.show(Stat::Delta);
    EXPECT_EQ(g.all(),
              (Listing{{"alpha", 0}, {"delta", 1}, {"gamma", 0}}));
    g.reset();
    EXPECT_EQ(g.all(),
              (Listing{{"alpha", 0}, {"delta", 0}, {"gamma", 0}}))
        << "a shown counter stays shown across reset()";
}

TEST(StatGroupTest, ResetZeroesEverything)
{
    StatGroup<TestStats> g(TestStats::Always);
    g[Stat::Alpha] += 2;
    g[Stat::Beta] += 3; // counted, though not shown
    ++g.show(Stat::Delta);
    g[Stat::Gamma] += 5;
    g.reset();
    for (Stat s : {Stat::Alpha, Stat::Beta, Stat::Delta, Stat::Gamma})
        EXPECT_EQ(g[s], 0u);
}

} // namespace
} // namespace vrc
