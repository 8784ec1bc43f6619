/**
 * @file
 * Parameterized property tests: for every organization, geometry and
 * workload combination, the hierarchy invariants hold throughout a
 * trace replay, hit ratios stay in bounds, and simulation results are
 * deterministic.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "sim/experiment.hh"

namespace vrc
{
namespace
{

struct PropertyCase
{
    HierarchyKind kind;
    std::uint32_t l1Size;
    std::uint32_t l2Size;
    std::uint32_t l1Assoc;
    std::uint32_t l2Assoc;
    std::uint32_t l2BlockFactor; ///< B2 = factor * B1
    bool split;
    const char *workload;
};

std::string
caseName(const ::testing::TestParamInfo<PropertyCase> &info)
{
    const PropertyCase &c = info.param;
    std::string n = hierarchyKindName(c.kind);
    for (char &ch : n) {
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    n += '_';
    n += std::to_string(c.l1Size / 1024);
    n += 'k';
    n += std::to_string(c.l1Assoc);
    n += "w_";
    n += std::to_string(c.l2Size / 1024);
    n += 'k';
    n += std::to_string(c.l2Assoc);
    n += "w_b";
    n += std::to_string(c.l2BlockFactor);
    n += c.split ? "_split_" : "_";
    n += c.workload;
    return n;
}

const TraceBundle &
cachedBundle(const std::string &workload)
{
    static std::map<std::string, TraceBundle> cache;
    auto it = cache.find(workload);
    if (it == cache.end()) {
        WorkloadProfile p = scaled(profileByName(workload), 0.008);
        it = cache.emplace(workload, generateTrace(p)).first;
    }
    return it->second;
}

class HierarchyPropertyTest
    : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(HierarchyPropertyTest, InvariantsHoldThroughoutReplay)
{
    const PropertyCase &c = GetParam();
    const TraceBundle &bundle = cachedBundle(c.workload);

    MachineConfig mc = makeMachineConfig(c.kind, c.l1Size, c.l2Size,
                                         bundle.profile.pageSize,
                                         c.split);
    mc.hierarchy.l1.assoc = c.l1Assoc;
    mc.hierarchy.l2.assoc = c.l2Assoc;
    mc.hierarchy.l2.blockBytes =
        mc.hierarchy.l1.blockBytes * c.l2BlockFactor;
    mc.invariantPeriod = 500;

    MpSimulator sim(mc, bundle.profile);
    sim.run(bundle.records);
    sim.checkInvariants();

    // Hit ratios stay in their mathematical bounds.
    EXPECT_GE(sim.h1(), 0.0);
    EXPECT_LT(sim.h1(), 1.0);
    EXPECT_GE(sim.h2(), 0.0);
    EXPECT_LE(sim.h2(), 1.0);

    // Conservation: every reference is a hit at exactly one place.
    std::uint64_t refs = sim.totalCounter("refs");
    std::uint64_t l1 = sim.totalCounter("l1_hits");
    std::uint64_t l2 = sim.totalCounter("l2_hits");
    std::uint64_t syn = sim.totalCounter("synonym_hits");
    std::uint64_t miss = sim.totalCounter("misses");
    EXPECT_EQ(refs, l1 + l2 + syn + miss);
}

TEST_P(HierarchyPropertyTest, Deterministic)
{
    const PropertyCase &c = GetParam();
    const TraceBundle &bundle = cachedBundle(c.workload);
    MachineConfig mc = makeMachineConfig(c.kind, c.l1Size, c.l2Size,
                                         bundle.profile.pageSize,
                                         c.split);
    mc.hierarchy.l1.assoc = c.l1Assoc;
    mc.hierarchy.l2.assoc = c.l2Assoc;
    mc.hierarchy.l2.blockBytes =
        mc.hierarchy.l1.blockBytes * c.l2BlockFactor;

    MpSimulator a(mc, bundle.profile);
    MpSimulator b(mc, bundle.profile);
    a.run(bundle.records);
    b.run(bundle.records);
    EXPECT_EQ(a.totalCounter("l1_hits"), b.totalCounter("l1_hits"));
    EXPECT_EQ(a.totalCounter("misses"), b.totalCounter("misses"));
    EXPECT_EQ(a.bus().transactions(), b.bus().transactions());
    EXPECT_EQ(a.totalCounter("memory_writes"),
              b.totalCounter("memory_writes"));
}

/**
 * SoA invariant under OS pressure: interleave replay with storms of
 * page remaps (machine-wide TLB shootdowns) and verify after every
 * storm that the hierarchy invariants -- including the V-cache
 * synonym/reverse-pointer linkage walked by checkInvariants() -- still
 * hold, and that every remapped page translates to its new frame.
 */
TEST_P(HierarchyPropertyTest, SynonymPointersSurviveRemapStorm)
{
    const PropertyCase &c = GetParam();
    const TraceBundle &bundle = cachedBundle(c.workload);

    MachineConfig mc = makeMachineConfig(c.kind, c.l1Size, c.l2Size,
                                         bundle.profile.pageSize,
                                         c.split);
    mc.hierarchy.l1.assoc = c.l1Assoc;
    mc.hierarchy.l2.assoc = c.l2Assoc;
    mc.hierarchy.l2.blockBytes =
        mc.hierarchy.l1.blockBytes * c.l2BlockFactor;
    mc.invariantPeriod = 500;

    MpSimulator sim(mc, bundle.profile);
    const std::vector<TraceRecord> &recs = bundle.records;
    const std::size_t rounds = 8;
    const std::size_t chunk = recs.size() / rounds;
    ASSERT_GT(chunk, 0u);

    Rng rng(c.l1Size + 31 * c.l1Assoc + (c.split ? 7 : 0));
    // Hand out frames from the top of physical memory, descending, so
    // storm targets never collide with demand-allocated frames.
    Ppn fresh = mc.physPages - 1;

    for (std::size_t round = 0; round < rounds; ++round) {
        sim.runBatch(recs.data() + round * chunk, chunk);

        // Storm: remap pages the replay just touched (so the TLBs and
        // caches plausibly hold them) to brand-new frames.
        std::vector<std::pair<ProcessId, Vpn>> moved;
        for (int i = 0; i < 12; ++i) {
            const TraceRecord &r =
                recs[round * chunk + rng.below(chunk)];
            if (!r.isMemRef())
                continue;
            Vpn vpn = r.vaddr / bundle.profile.pageSize;
            sim.remapPage(r.pid, vpn, fresh);
            moved.emplace_back(r.pid, vpn);
            --fresh;
        }
        sim.checkInvariants();

        // Only the most recent remap of a page is architecturally
        // visible; walk the storm backwards and check the first
        // assignment seen per page.
        std::map<std::pair<ProcessId, Vpn>, Ppn> expect;
        Ppn frame = fresh;
        for (auto it = moved.rbegin(); it != moved.rend(); ++it)
            expect.emplace(*it, ++frame);
        for (const auto &[page, ppn] : expect) {
            auto pa = sim.spaces().tryTranslate(
                page.first,
                VirtAddr(page.second * bundle.profile.pageSize));
            ASSERT_TRUE(pa.has_value());
            EXPECT_EQ(pa->ppn(bundle.profile.pageSize), ppn);
        }
    }

    // Finish the tail of the trace on the remapped address spaces.
    sim.runBatch(recs.data() + rounds * chunk,
                 recs.size() - rounds * chunk);
    sim.checkInvariants();

    // Conservation must survive the storms too.
    std::uint64_t refs = sim.totalCounter("refs");
    EXPECT_EQ(refs, sim.totalCounter("l1_hits") +
                        sim.totalCounter("l2_hits") +
                        sim.totalCounter("synonym_hits") +
                        sim.totalCounter("misses"));
    EXPECT_GT(sim.totalCounter("tlb_shootdowns"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HierarchyPropertyTest,
    ::testing::Values(
        // The paper's direct-mapped configurations.
        PropertyCase{HierarchyKind::VirtualReal, 4096, 65536, 1, 1, 1,
                     false, "pops"},
        PropertyCase{HierarchyKind::VirtualReal, 16384, 262144, 1, 1, 1,
                     false, "thor"},
        PropertyCase{HierarchyKind::VirtualReal, 4096, 65536, 1, 1, 1,
                     false, "abaqus"},
        // Small level-1 caches (Table 7 territory).
        PropertyCase{HierarchyKind::VirtualReal, 512, 65536, 1, 1, 1,
                     false, "pops"},
        PropertyCase{HierarchyKind::VirtualReal, 1024, 65536, 1, 1, 1,
                     false, "abaqus"},
        // Associativity.
        PropertyCase{HierarchyKind::VirtualReal, 4096, 65536, 2, 2, 1,
                     false, "pops"},
        PropertyCase{HierarchyKind::VirtualReal, 8192, 65536, 4, 2, 1,
                     false, "abaqus"},
        // Larger level-2 blocks (subentries per line).
        PropertyCase{HierarchyKind::VirtualReal, 4096, 65536, 1, 2, 2,
                     false, "pops"},
        PropertyCase{HierarchyKind::VirtualReal, 4096, 131072, 2, 4, 4,
                     false, "thor"},
        // Split I/D.
        PropertyCase{HierarchyKind::VirtualReal, 8192, 65536, 1, 1, 1,
                     true, "pops"},
        PropertyCase{HierarchyKind::VirtualReal, 8192, 131072, 2, 2, 2,
                     true, "abaqus"},
        // R-R baselines.
        PropertyCase{HierarchyKind::RealRealIncl, 4096, 65536, 1, 1, 1,
                     false, "pops"},
        PropertyCase{HierarchyKind::RealRealIncl, 8192, 131072, 2, 2, 2,
                     false, "abaqus"},
        PropertyCase{HierarchyKind::RealRealIncl, 8192, 65536, 1, 1, 1,
                     true, "thor"},
        PropertyCase{HierarchyKind::RealRealNoIncl, 4096, 65536, 1, 1,
                     1, false, "pops"},
        PropertyCase{HierarchyKind::RealRealNoIncl, 8192, 131072, 2, 2,
                     2, false, "abaqus"},
        PropertyCase{HierarchyKind::RealRealNoIncl, 8192, 65536, 1, 1,
                     1, true, "thor"},
        // Reverse-lookup-table synonym directory.
        PropertyCase{HierarchyKind::VirtualRealRlt, 4096, 65536, 1, 1,
                     1, false, "pops"},
        PropertyCase{HierarchyKind::VirtualRealRlt, 4096, 131072, 2, 4,
                     4, false, "thor"},
        PropertyCase{HierarchyKind::VirtualRealRlt, 8192, 65536, 1, 1,
                     1, true, "abaqus"}),
    caseName);

/**
 * A deliberately tiny reverse-lookup table must evict links on set
 * conflicts, and every conflict must back-invalidate the level-1 child
 * (dirty data parked in the write buffer) without ever breaking the
 * hierarchy invariants or reference conservation.
 */
TEST(RltConflictTest, ConflictEvictionBackInvalidatesChildren)
{
    const TraceBundle &bundle = cachedBundle("pops");
    MachineConfig mc =
        makeMachineConfig(HierarchyKind::VirtualRealRlt, 4096, 65536,
                          bundle.profile.pageSize, false);
    // 8 sets x 2 ways over a 256-line level 1: constant conflicts.
    mc.hierarchy.rltEntries = 16;
    mc.hierarchy.rltAssoc = 2;
    mc.invariantPeriod = 500;

    MpSimulator sim(mc, bundle.profile);
    sim.run(bundle.records);
    sim.checkInvariants();

    EXPECT_GT(sim.totalCounter("rlt_conflict_invalidations"), 0u);

    std::uint64_t refs = sim.totalCounter("refs");
    EXPECT_EQ(refs, sim.totalCounter("l1_hits") +
                        sim.totalCounter("l2_hits") +
                        sim.totalCounter("synonym_hits") +
                        sim.totalCounter("misses"));

    // The bounded directory never outgrows its architected capacity,
    // and a conflict-riddled run still satisfies the linkage walk.
    MpSimulator fresh(mc, bundle.profile);
    fresh.checkInvariants();
}

} // namespace
} // namespace vrc
