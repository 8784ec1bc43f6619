/**
 * @file
 * Unit tests for the overflow-bucket histogram.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/histogram.hh"

namespace vrc
{
namespace
{

TEST(HistogramTest, EmptyHistogram)
{
    Histogram h(10);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (std::uint64_t v = 1; v <= 10; ++v)
        EXPECT_EQ(h.count(v), 0u);
}

TEST(HistogramTest, BasicBuckets)
{
    Histogram h(10);
    h.record(1);
    h.record(1);
    h.record(5);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.samples(), 3u);
}

TEST(HistogramTest, OverflowBucketAbsorbsLargeValues)
{
    Histogram h(10);
    h.record(10);
    h.record(11);
    h.record(1000);
    EXPECT_EQ(h.overflowCount(), 3u);
    EXPECT_EQ(h.count(10), 3u);
    EXPECT_EQ(h.count(9), 0u);
}

TEST(HistogramTest, SumKeepsExactValues)
{
    Histogram h(4);
    h.record(100);
    h.record(2);
    EXPECT_EQ(h.sum(), 102u);
    EXPECT_DOUBLE_EQ(h.mean(), 51.0);
}

TEST(HistogramTest, ZeroClampsToOne)
{
    Histogram h(4);
    h.record(0);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.sum(), 1u);
}

TEST(HistogramTest, Clear)
{
    Histogram h(4);
    h.record(2);
    h.record(9);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.count(2), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
}

TEST(HistogramTest, SingleBucketEverythingOverflows)
{
    Histogram h(1);
    h.record(1);
    h.record(7);
    EXPECT_EQ(h.overflowCount(), 2u);
}

TEST(HistogramTest, MergeEqualsRecordingBothSampleSets)
{
    const std::vector<std::uint64_t> a = {0, 1, 3, 5, 5, 40};
    const std::vector<std::uint64_t> b = {2, 3, 4, 6, 1000};
    Histogram left(5), right(5), both(5);
    for (std::uint64_t v : a) {
        left.record(v);
        both.record(v);
    }
    for (std::uint64_t v : b) {
        right.record(v);
        both.record(v);
    }
    left.merge(right);
    for (std::uint64_t v = 1; v <= 5; ++v)
        EXPECT_EQ(left.count(v), both.count(v)) << "bucket " << v;
    EXPECT_EQ(left.overflowCount(), both.overflowCount());
    EXPECT_EQ(left.overflowCount(), 5u);
    EXPECT_EQ(left.samples(), both.samples());
    EXPECT_EQ(left.sum(), both.sum());
    EXPECT_EQ(left.sum(), 1070u);

    // Merging an empty histogram changes nothing.
    left.merge(Histogram(5));
    EXPECT_EQ(left.samples(), 11u);
    EXPECT_EQ(left.sum(), both.sum());
}

} // namespace
} // namespace vrc
