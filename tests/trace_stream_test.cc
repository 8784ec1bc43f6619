/**
 * @file
 * Tests for streaming trace generation: TraceStream must emit exactly
 * the sequence generateTrace() materializes, and a simulator fed from
 * the stream must be indistinguishable from one fed the vector.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "trace/generator.hh"
#include "trace/trace_stream.hh"

namespace vrc
{
namespace
{

/** Names of every built-in paper profile, in Table 5 order. */
std::vector<std::string>
paperProfileNames()
{
    std::vector<std::string> names;
    for (const auto &p : paperProfiles())
        names.push_back(p.name);
    return names;
}

class TraceStreamEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TraceStreamEquivalence, MatchesMaterializedTrace)
{
    WorkloadProfile p = scaled(profileByName(GetParam()), 0.01);
    TraceBundle bundle = generateTrace(p);

    TraceStream stream(p);
    TraceRecord r;
    std::size_t i = 0;
    while (stream.next(r)) {
        ASSERT_LT(i, bundle.records.size());
        ASSERT_EQ(r, bundle.records[i]) << "record " << i << " differs";
        ++i;
    }
    EXPECT_EQ(i, bundle.records.size());
    EXPECT_EQ(stream.produced(), bundle.records.size());
    // Exhausted streams stay exhausted.
    EXPECT_FALSE(stream.next(r));

    // Generation ground truth must match too (same engines, same order).
    EXPECT_EQ(stream.stats().totalWrites, bundle.stats.totalWrites);
    EXPECT_EQ(stream.stats().totalReads, bundle.stats.totalReads);
    EXPECT_EQ(stream.stats().totalInstr, bundle.stats.totalInstr);
    EXPECT_EQ(stream.stats().totalCalls, bundle.stats.totalCalls);
    EXPECT_EQ(stream.stats().contextSwitches,
              bundle.stats.contextSwitches);
    EXPECT_EQ(stream.stats().callWriteCount,
              bundle.stats.callWriteCount);
}

TEST_P(TraceStreamEquivalence, SimulatorStatsMatchMaterializedRun)
{
    WorkloadProfile p = scaled(profileByName(GetParam()), 0.01);
    TraceBundle bundle = generateTrace(p);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         8 * 1024, 64 * 1024,
                                         p.pageSize);

    MpSimulator from_vector(mc, p);
    from_vector.run(bundle.records);

    MpSimulator from_stream(mc, p);
    TraceStream stream(p);
    from_stream.run(stream);

    EXPECT_EQ(toJson(from_vector), toJson(from_stream));
}

// Every built-in profile: a new profile added to paperProfiles() is
// automatically held to the stream/vector bit-equivalence contract.
INSTANTIATE_TEST_SUITE_P(
    Profiles, TraceStreamEquivalence,
    ::testing::ValuesIn(paperProfileNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(TraceStreamTest, ExpectedTotalCoversProducedRecords)
{
    // 3 CPUs leave a remainder of totalRefs undelivered; the last shape
    // has more switches per CPU than records, so only some go out.
    WorkloadProfile three = scaled(popsProfile(), 0.005);
    three.numCpus = 3;
    WorkloadProfile sixteen = scaled(abaqusProfile(), 0.05);
    sixteen.numCpus = 16;
    WorkloadProfile crowded = popsProfile();
    crowded.numCpus = 16;
    crowded.totalRefs = 40;
    crowded.contextSwitches = 100;
    for (const WorkloadProfile &p : {three, sixteen, crowded}) {
        TraceStream stream(p);
        std::uint64_t expected = stream.expectedTotal();
        TraceRecord r;
        while (stream.next(r)) {
        }
        EXPECT_EQ(stream.produced(), expected) << p.numCpus << " CPUs";
        EXPECT_EQ(stream.produced(),
                  p.numCpus * (p.totalRefs / p.numCpus) +
                      stream.stats().contextSwitches)
            << p.numCpus << " CPUs";
    }
    // totalRefs % 3 != 0: the remainder is never generated.
    EXPECT_LT(TraceStream(three).expectedTotal(),
              three.totalRefs + three.contextSwitches);
}

TEST(TraceStreamTest, MoveTransfersState)
{
    WorkloadProfile p = scaled(popsProfile(), 0.005);
    TraceStream a(p);
    TraceRecord r;
    ASSERT_TRUE(a.next(r));
    TraceStream b(std::move(a));
    EXPECT_EQ(b.produced(), 1u);
    EXPECT_TRUE(b.next(r));
}

} // namespace
} // namespace vrc
