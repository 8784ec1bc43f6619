/**
 * @file
 * Integration tests reproducing the paper's qualitative claims on
 * scaled-down traces: V-R vs R-R hit ratios, coherence shielding, and
 * the effect of context-switch frequency.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/campaign.hh"
#include "sim/experiment.hh"

namespace vrc
{
namespace
{

const TraceBundle &
bundleFor(const char *name, double scale)
{
    // Cache generated traces across tests in this binary.
    static std::map<std::string, TraceBundle> cache;
    std::string key = std::string(name) + "@" + std::to_string(scale);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key,
                          generateTrace(scaled(profileByName(name),
                                               scale)))
                 .first;
    }
    return it->second;
}

TEST(ExperimentTest, SummaryFieldsPopulated)
{
    const auto &b = bundleFor("pops", 0.01);
    SimSummary s = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024});
    EXPECT_GT(s.h1, 0.5);
    EXPECT_LT(s.h1, 1.0);
    EXPECT_GT(s.h2, 0.0);
    EXPECT_EQ(s.l1MsgsPerCpu.size(), 4u);
    EXPECT_GT(s.refs, 30'000u);
}

TEST(ExperimentTest, InvariantsHoldUnderAllOrganizations)
{
    const auto &b = bundleFor("abaqus", 0.02);
    for (auto kind : kAllHierarchyKinds) {
        SCOPED_TRACE(hierarchyKindName(kind));
        SimSummary s = runSimulationJob(
            b, SimJob{kind, 4 * 1024, 64 * 1024, false, 2'000});
        EXPECT_GT(s.h1, 0.3);
    }
}

TEST(ExperimentTest, H1GrowsWithCacheSize)
{
    const auto &b = bundleFor("thor", 0.02);
    double prev = 0.0;
    for (auto [l1, l2] : paperSizePairs()) {
        SimSummary s =
            runSimulationJob(b, SimJob{HierarchyKind::VirtualReal, l1, l2});
        EXPECT_GT(s.h1, prev) << sizeLabel(l1, l2);
        prev = s.h1;
    }
}

TEST(ExperimentTest, VrMatchesRrWhenSwitchesAreRare)
{
    // Table 6, thor/pops: with rare context switches the V-R and R-R
    // level-1 hit ratios are nearly identical.
    const auto &b = bundleFor("pops", 0.02);
    SimSummary vr = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024});
    SimSummary rr = runSimulationJob(
        b, SimJob{HierarchyKind::RealRealIncl, 8 * 1024, 128 * 1024});
    EXPECT_NEAR(vr.h1, rr.h1, 0.015);
}

TEST(ExperimentTest, FrequentSwitchesFavorRr)
{
    // Table 6, abaqus: the R-R hierarchy keeps a measurably better h1
    // because nothing flushes on a context switch.
    const auto &b = bundleFor("abaqus", 0.10);
    SimSummary vr = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024});
    SimSummary rr = runSimulationJob(
        b, SimJob{HierarchyKind::RealRealIncl, 16 * 1024, 256 * 1024});
    EXPECT_GT(rr.h1, vr.h1);
}

TEST(ExperimentTest, ShieldingCutsL1CoherenceMessages)
{
    // Tables 11-13: RR without inclusion sees far more coherence
    // messages at level 1 than VR or RR with inclusion.
    const auto &b = bundleFor("pops", 0.02);
    SimSummary vr = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 4 * 1024, 64 * 1024});
    SimSummary ni = runSimulationJob(
        b, SimJob{HierarchyKind::RealRealNoIncl, 4 * 1024, 64 * 1024});
    std::uint64_t vr_total = 0, ni_total = 0;
    for (auto v : vr.l1MsgsPerCpu)
        vr_total += v;
    for (auto v : ni.l1MsgsPerCpu)
        ni_total += v;
    EXPECT_GT(ni_total, 2 * vr_total)
        << "no-inclusion L1 disturbed several times more often";
}

TEST(ExperimentTest, InclusionInvalidationsAreRare)
{
    // Section 2's claim: with the relaxed replacement rule and a 2-way
    // V/R configuration (the paper's quoted setup: 16K 2-way V, 256K
    // R, 21 invalidations over 3.3M refs), forced inclusion
    // invalidations are rare -- both lines of an R set having level-1
    // children at once almost never happens when L2 >> L1.
    const auto &b = bundleFor("pops", 0.05);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         16 * 1024, 256 * 1024,
                                         b.profile.pageSize);
    mc.hierarchy.l1.assoc = 2;
    mc.hierarchy.l2.assoc = 2;
    MpSimulator sim(mc, b.profile);
    sim.run(b.records);
    EXPECT_LT(sim.totalCounter("inclusion_invalidations"),
              sim.refsProcessed() / 2000);
}

TEST(ExperimentTest, SwappedWritebacksOnlyWithSwitches)
{
    const auto &pops = bundleFor("pops", 0.02);
    const auto &abaqus = bundleFor("abaqus", 0.05);
    SimSummary sp = runSimulationJob(
        pops, SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024});
    SimSummary sa = runSimulationJob(
        abaqus, SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024});
    // abaqus context-switches far more often per reference.
    double rp = static_cast<double>(sp.swappedWritebacks) /
        static_cast<double>(sp.refs);
    double ra = static_cast<double>(sa.swappedWritebacks) /
        static_cast<double>(sa.refs);
    EXPECT_GT(ra, rp);
}

TEST(ExperimentTest, SplitRatiosCloseToUnified)
{
    // Tables 8-10: split I/D hit ratios are close to unified.
    const auto &b = bundleFor("thor", 0.02);
    SimSummary uni = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024, false});
    SimSummary split = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024, true});
    EXPECT_NEAR(split.h1, uni.h1, 0.05);
}

TEST(ExperimentTest, WriteBufferStallsReachSummaryAndJournalLine)
{
    // The write buffer drains on the reference clock, so both timing
    // engines stall on the same references.
    const auto &b = bundleFor("pops", 0.01);
    SimJob job{HierarchyKind::VirtualReal, 4 * 1024, 64 * 1024};
    MpSimulator sim(makeMachineConfig(job.kind, job.l1Size, job.l2Size,
                                      b.profile.pageSize),
                    b.profile);
    sim.run(b.records);
    std::uint64_t stalls = sim.totalCounter("wb_stalls");
    ASSERT_GT(stalls, 0u);
    EXPECT_EQ(summarizeSimulation(sim, job).writeBufferStalls, stalls);

    for (TimingMode mode : {TimingMode::Analytic, TimingMode::Cycle}) {
        job.timingMode = mode;
        SimSummary s = runSimulationJob(b, job);
        EXPECT_EQ(s.writeBufferStalls, stalls) << timingModeName(mode);
        auto r = decodeSummaryLine(encodeSummaryLine(0, s));
        ASSERT_TRUE(r.ok()) << r.error().describe();
        EXPECT_EQ(r.take().second.writeBufferStalls, stalls);
    }
}

/** The summary line of one MpSimulator::run() over all of @p b. */
std::string
singleRunLine(const TraceBundle &b, const SimJob &job)
{
    MachineConfig mc = makeMachineConfig(job.kind, job.l1Size, job.l2Size,
                                         b.profile.pageSize, job.split);
    mc.timingMode = job.timingMode;
    MpSimulator sim(mc, b.profile);
    sim.run(b.records);
    return encodeSummaryLine(0, summarizeSimulation(sim, job));
}

/** Chunked cancellable replay == one run(), for every cell shape. */
void
expectChunkedReplayMatchesSingleRun(const TraceBundle &b)
{
    CancelToken token;
    for (HierarchyKind kind : kAllHierarchyKinds) {
        for (TimingMode mode : {TimingMode::Analytic, TimingMode::Cycle}) {
            for (bool split : {false, true}) {
                SCOPED_TRACE(std::string(hierarchyKindName(kind)) +
                             (mode == TimingMode::Cycle ? " cycle"
                                                        : " analytic") +
                             (split ? " split" : " unified"));
                SimJob job{kind, 4 * 1024, 64 * 1024, split, 0, mode};
                EXPECT_EQ(encodeSummaryLine(
                              0, runSimulationCancellable(b, job, token)),
                          singleRunLine(b, job));
            }
        }
    }
}

constexpr std::size_t kReplayChunk = 8192;

TEST(ExperimentTest, ChunkedReplayMatchesSingleRunWithPartialLastChunk)
{
    const auto &b = bundleFor("pops", 0.01);
    ASSERT_GT(b.records.size(), 2 * kReplayChunk);
    ASSERT_NE(b.records.size() % kReplayChunk, 0u);
    expectChunkedReplayMatchesSingleRun(b);
}

TEST(ExperimentTest, ChunkedReplayMatchesSingleRunOnChunkBoundary)
{
    TraceBundle b = bundleFor("pops", 0.01);
    b.records.resize(2 * kReplayChunk);
    expectChunkedReplayMatchesSingleRun(b);
}

TEST(ExperimentTest, CancelledTokenStopsReplayBeforeFirstChunk)
{
    // The token is polled before each chunk, so a cancelled one stops
    // the run before any record reaches the machine. The first record
    // names a CPU the machine lacks: replaying it would panic.
    TraceBundle b = bundleFor("pops", 0.01);
    b.records.front().cpu = 99;
    CancelToken token;
    token.cancel();
    try {
        runSimulationCancellable(
            b, SimJob{HierarchyKind::VirtualReal, 4 * 1024, 64 * 1024},
            token);
        FAIL() << "a cancelled token must stop the run";
    } catch (const ErrorException &e) {
        EXPECT_EQ(e.err().kind, ErrorKind::Cancelled);
        EXPECT_NE(std::string(e.what()).find(
                      "after 0 of " + std::to_string(b.records.size()) +
                      " records"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ExperimentTest, SizePairHelpers)
{
    EXPECT_EQ(paperSizePairs().size(), 3u);
    EXPECT_EQ(smallSizePairs().size(), 3u);
    EXPECT_EQ(sizeLabel(16 * 1024, 256 * 1024), "16K/256K");
    EXPECT_EQ(sizeLabel(512, 64 * 1024), ".5K/64K");
}

TEST(CheckMachineConfigTest, NamesTheFlagOfTheBadValue)
{
    auto context = [](HierarchyKind kind, auto mutate) {
        MachineConfig mc = makeMachineConfig(kind, 16384, 262144, 4096);
        mutate(mc.hierarchy);
        Status st = checkMachineConfig(mc);
        return st ? std::string("ok") : st.error().context;
    };
    using H = HierarchyParams;
    const HierarchyKind vr = HierarchyKind::VirtualReal;
    EXPECT_EQ(context(vr, [](H &) {}), "ok");
    EXPECT_EQ(context(vr, [](H &h) { h.l1.blockBytes = 24; }), "--block1");
    EXPECT_EQ(context(vr, [](H &h) { h.l1.blockBytes = 0; }), "--block1");
    EXPECT_EQ(context(vr, [](H &h) { h.l2.blockBytes = 1; }), "--block2");
    EXPECT_EQ(context(vr,
                      [](H &h) {
                          h.l1 = {4, 1, 4, ReplPolicy::LRU};
                          h.l2.blockBytes = 1;
                      }),
              "--block1");
    EXPECT_EQ(context(vr, [](H &h) { h.l1.assoc = 0; }), "--assoc1");
    EXPECT_EQ(context(vr, [](H &h) { h.l2.assoc = 3; }), "--assoc2");
    EXPECT_EQ(context(vr, [](H &h) { h.l1.sizeBytes = 3000; }), "--l1");
    EXPECT_EQ(context(vr, [](H &h) { h.l2.blockBytes = 8; }), "--block2");
    // Without inclusion the R-cache holds no level-1 sub-blocks.
    EXPECT_EQ(context(HierarchyKind::RealRealNoIncl,
                      [](H &h) { h.l2.blockBytes = 8; }),
              "ok");
    EXPECT_EQ(context(vr, [](H &h) { h.rltAssoc = 0; }), "--rlt-assoc");
    EXPECT_EQ(context(vr, [](H &h) { h.rltEntries = 3; }), "--rlt-entries");
    EXPECT_EQ(context(vr, [](H &h) { h.rltEntries = kMaxRltEntries * 2; }),
              "--rlt-entries");
    MachineConfig mc = makeMachineConfig(vr, 16384, 262144, 3000);
    Status page = checkMachineConfig(mc);
    ASSERT_FALSE(page.ok());
    EXPECT_EQ(page.error().kind, ErrorKind::Bounds);
    EXPECT_EQ(page.error().context, "");
}

// Whatever the check accepts must build: the constructors' panics are
// the reference the check mirrors.
TEST(CheckMachineConfigTest, EveryAcceptedMachineBuilds)
{
    WorkloadProfile profile = popsProfile();
    unsigned accepted = 0, refused = 0;
    for (HierarchyKind kind : kAllHierarchyKinds)
        for (bool split : {false, true})
            for (std::uint32_t l1 : {2u, 32u, 4096u})
                for (std::uint32_t b1 : {1u, 2u, 16u, 8192u})
                    for (std::uint32_t b2 : {2u, 16u, 64u})
                        for (std::uint32_t a1 : {0u, 2u, 3u})
                            for (std::uint32_t a2 : {1u, 3u}) {
        MachineConfig mc =
            makeMachineConfig(kind, l1, 65536, profile.pageSize, split);
        mc.hierarchy.l1.blockBytes = b1;
        mc.hierarchy.l2.blockBytes = b2;
        mc.hierarchy.l1.assoc = a1;
        mc.hierarchy.l2.assoc = a2;
        if (!checkMachineConfig(mc)) {
            ++refused;
            continue;
        }
        ++accepted;
        MpSimulator sim(mc, profile);
        EXPECT_EQ(sim.cpuCount(), profile.numCpus);
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(refused, 0u);
}

} // namespace
} // namespace vrc
