/**
 * @file
 * Tests for streaming trace generation: TraceStream must emit exactly
 * the sequence generateTrace() materializes in parallel, and a
 * simulator fed from the stream must be indistinguishable from one fed
 * the vector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/fault.hh"
#include "cache/protection.hh"
#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "trace/generator.hh"
#include "trace/trace_stream.hh"

namespace vrc
{
namespace
{

/** Records per decode batch in MpSimulator::run(TraceStream&). */
constexpr std::uint64_t kBatch = 4096;

/**
 * toJson of @p p replayed through the pipelined run(TraceStream&) and
 * through run() over the materialized trace, in that order.
 */
std::pair<std::string, std::string>
streamedAndMaterialized(const WorkloadProfile &p, const MachineConfig &mc)
{
    MpSimulator from_stream(mc, p);
    TraceStream stream(p);
    from_stream.run(stream);
    EXPECT_EQ(stream.produced(), stream.expectedTotal());

    MpSimulator from_vector(mc, p);
    from_vector.run(generateTrace(p).records);
    return {toJson(from_stream), toJson(from_vector)};
}

/** Rounds generateTrace() stages per block: one record per CPU each. */
constexpr std::uint64_t kBlockRounds = 65536;

/**
 * generateTrace() must equal draining a TraceStream: every record in
 * order and every GenStats field, callWrites histogram included.
 */
void
expectGenerateMatchesStream(const WorkloadProfile &p)
{
    SCOPED_TRACE(p.name + ", " + std::to_string(p.numCpus) + " CPUs, " +
                 std::to_string(p.totalRefs) + " refs, " +
                 std::to_string(p.contextSwitches) + " switches");
    TraceStream stream(p);
    std::vector<TraceRecord> want;
    want.reserve(stream.expectedTotal());
    TraceRecord r;
    while (stream.next(r))
        want.push_back(r);
    EXPECT_EQ(stream.produced(), want.size());
    EXPECT_EQ(stream.expectedTotal(), want.size());
    // Exhausted streams stay exhausted.
    EXPECT_FALSE(stream.next(r));
    TraceBundle got = generateTrace(p);

    ASSERT_EQ(got.records.size(), want.size());
    auto diff = std::mismatch(got.records.begin(), got.records.end(),
                              want.begin());
    EXPECT_TRUE(diff.first == got.records.end())
        << "first difference at record "
        << (diff.first - got.records.begin());

    const GenStats &g = got.stats;
    const GenStats &w = stream.stats();
    EXPECT_EQ(g.totalCalls, w.totalCalls);
    EXPECT_EQ(g.callWriteCount, w.callWriteCount);
    EXPECT_EQ(g.totalWrites, w.totalWrites);
    EXPECT_EQ(g.totalReads, w.totalReads);
    EXPECT_EQ(g.totalInstr, w.totalInstr);
    EXPECT_EQ(g.contextSwitches, w.contextSwitches);
    ASSERT_EQ(g.callWrites.maxBucket(), w.callWrites.maxBucket());
    for (std::uint64_t b = 1; b <= w.callWrites.maxBucket(); ++b)
        EXPECT_EQ(g.callWrites.count(b), w.callWrites.count(b))
            << "bucket " << b;
    EXPECT_EQ(g.callWrites.samples(), w.callWrites.samples());
    EXPECT_EQ(g.callWrites.sum(), w.callWrites.sum());
}

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
    expectGenerateMatchesStream(scaled(profileByName(GetParam()), 0.01));
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

TEST(TraceStreamTest, PipelinedRunMatchesTraceShorterThanOneBatch)
{
    WorkloadProfile p = popsProfile();
    p.numCpus = 16;
    p.totalRefs = 40;
    p.contextSwitches = 100;
    ASSERT_LT(TraceStream(p).expectedTotal(), kBatch);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         8 * 1024, 64 * 1024, p.pageSize);
    auto [streamed, materialized] = streamedAndMaterialized(p, mc);
    EXPECT_EQ(streamed, materialized);
}

TEST(TraceStreamTest, PipelinedRunMatchesWholeBatchTrace)
{
    // Find a length whose record count is exactly three batches, so
    // the stream ends on a batch boundary: the final nextBatch()
    // returns 0 with no partial batch before it.
    const std::uint64_t target = 3 * kBatch;
    // Every count is a multiple of the CPU count plus the switches, so
    // the switch count must keep the target reachable.
    WorkloadProfile p = popsProfile();
    p.numCpus = 4;
    p.contextSwitches = 12;
    bool found = false;
    for (std::uint64_t refs = target; refs + 1000 > target; --refs) {
        p.totalRefs = refs;
        if (TraceStream(p).expectedTotal() == target) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    TraceStream probe(p);
    std::vector<TraceRecord> batch(kBatch);
    for (int b = 0; b < 3; ++b)
        ASSERT_EQ(probe.nextBatch(batch.data(), kBatch), kBatch);
    EXPECT_EQ(probe.nextBatch(batch.data(), kBatch), 0u);

    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         8 * 1024, 64 * 1024, p.pageSize);
    auto [streamed, materialized] = streamedAndMaterialized(p, mc);
    EXPECT_EQ(streamed, materialized);
}

TEST(TraceStreamTest, PipelinedRunMatchesContentionShape)
{
    // The contention benchmark's shape, scaled down: pops on 16 CPUs,
    // 512 B / 64 K, cycle engine, every organization.
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    p.numCpus = 16;
    for (HierarchyKind kind : kAllHierarchyKinds) {
        MachineConfig mc =
            makeMachineConfig(kind, 512, 64 * 1024, p.pageSize);
        mc.timingMode = TimingMode::Cycle;
        auto [streamed, materialized] = streamedAndMaterialized(p, mc);
        EXPECT_EQ(streamed, materialized) << hierarchyKindName(kind);
    }
}

TEST(TraceStreamTest, MachineCheckStopsPipelineAndJoinsProducer)
{
    // Parity with a strike per reference machine-checks almost at
    // once, long before the producer runs out of trace: replay throws
    // while decoding is still under way.
    WorkloadProfile p = scaled(popsProfile(), 0.02);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         8 * 1024, 64 * 1024, p.pageSize);
    mc.hierarchy.l1.protection = ArrayProtection::Parity;
    mc.hierarchy.l2.protection = ArrayProtection::Parity;
    mc.hierarchy.softErrors = parseSoftErrors("seed=2,tag=1.0").take();

    MpSimulator materialized(mc, p);
    EXPECT_THROW(materialized.run(generateTrace(p).records),
                 FaultUnrecoverable);

    MpSimulator streamed(mc, p);
    TraceStream stream(p);
    EXPECT_THROW(streamed.run(stream), FaultUnrecoverable);
    EXPECT_EQ(streamed.refsProcessed(), materialized.refsProcessed());
    EXPECT_LT(streamed.refsProcessed(), stream.expectedTotal());
    EXPECT_GE(streamed.totalCounter("machine_checks"), 1u);
    EXPECT_EQ(toJson(streamed), toJson(materialized));
    streamed.checkInvariants();

    // The producer was joined, so the stream is ours again and sits at
    // most one ring of batches past what replay consumed.
    EXPECT_LE(stream.produced(), streamed.refsProcessed() +
                                     stream.stats().contextSwitches +
                                     4 * kBatch);
    TraceRecord r;
    EXPECT_TRUE(stream.next(r));
}

TEST(TraceStreamTest, GenerateMatchesStreamFullScale)
{
    for (const WorkloadProfile &p : paperProfiles())
        expectGenerateMatchesStream(p);
}

TEST(TraceStreamTest, GenerateMatchesStreamMoreCpusThanWorkers)
{
    // generateTrace() runs at most one worker per host thread, so on
    // any host with fewer than 16 some worker owns several CPUs.
    WorkloadProfile p = popsProfile();
    p.numCpus = 16;
    expectGenerateMatchesStream(p);
}

TEST(TraceStreamTest, GenerateMatchesStreamOneCpu)
{
    WorkloadProfile p = scaled(thorProfile(), 0.1);
    p.numCpus = 1;
    expectGenerateMatchesStream(p);
}

TEST(TraceStreamTest, GenerateMatchesStreamFewerRefsThanCpus)
{
    // No CPU gets a record, so none of the switches go out either.
    WorkloadProfile p = popsProfile();
    p.numCpus = 8;
    p.totalRefs = 5;
    p.contextSwitches = 20;
    ASSERT_EQ(TraceStream(p).expectedTotal(), 0u);
    expectGenerateMatchesStream(p);
}

TEST(TraceStreamTest, GenerateMatchesStreamMoreSwitchesThanRecords)
{
    // Ten records per CPU and far more switches: the switch interval
    // is 0, so a switch precedes every record.
    WorkloadProfile crowded = popsProfile();
    crowded.numCpus = 3;
    crowded.totalRefs = 31;
    crowded.contextSwitches = 100;
    expectGenerateMatchesStream(crowded);
    // Four records per CPU: CPUs 0-1 owe four switches (interval 0),
    // CPUs 2-3 owe three (interval 1), so the two rules interleave.
    WorkloadProfile mixed = popsProfile();
    mixed.numCpus = 4;
    mixed.totalRefs = 16;
    mixed.contextSwitches = 14;
    expectGenerateMatchesStream(mixed);
}

TEST(TraceStreamTest, GenerateMatchesStreamNoSwitches)
{
    WorkloadProfile p = scaled(abaqusProfile(), 0.2);
    p.contextSwitches = 0;
    expectGenerateMatchesStream(p);
}

TEST(TraceStreamTest, GenerateMatchesStreamAcrossBlockBoundaries)
{
    WorkloadProfile p = popsProfile();
    p.numCpus = 3;
    // Ends exactly on a block boundary, after two whole blocks. One
    // switch per CPU is due before record kBlockRounds, so each goes
    // out first in the second block.
    p.totalRefs = 2 * kBlockRounds * p.numCpus;
    p.contextSwitches = p.numCpus;
    expectGenerateMatchesStream(p);
    // Ends mid-block, and leaves a remainder no CPU generates.
    p.totalRefs = (2 * kBlockRounds + 777) * p.numCpus + 2;
    p.contextSwitches = 50;
    expectGenerateMatchesStream(p);
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
