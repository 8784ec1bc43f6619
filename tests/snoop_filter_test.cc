/**
 * @file
 * Tests for the bus snoop filter: the presence map may only skip
 * probes whose outcome (including every statistics side effect) is
 * already known, so a machine with the filter on must be
 * indistinguishable -- counter for counter -- from one with it off.
 */

#include <gtest/gtest.h>

#include "coherence/dma.hh"
#include "sim/experiment.hh"
#include "sim/json_stats.hh"

namespace vrc
{
namespace
{

/** Run one machine over @p bundle with the filter on or off. */
std::string
runWithFilter(const TraceBundle &bundle, HierarchyKind kind,
              bool filter_on, std::uint64_t *filtered = nullptr)
{
    MachineConfig mc = makeMachineConfig(kind, 8 * 1024, 64 * 1024,
                                         bundle.profile.pageSize);
    MpSimulator sim(mc, bundle.profile);
    sim.bus().setSnoopFilterEnabled(filter_on);
    sim.run(bundle.records);
    sim.checkInvariants();
    if (filtered)
        *filtered = sim.bus().snoopsFiltered();
    return toJson(sim);
}

class SnoopFilterEquivalence
    : public ::testing::TestWithParam<HierarchyKind>
{
};

TEST_P(SnoopFilterEquivalence, StatsIdenticalFilterOnAndOff)
{
    // pops: 4 CPUs sharing a segment, plenty of cross-CPU traffic.
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    TraceBundle bundle = generateTrace(p);

    std::uint64_t filtered = 0;
    std::string with = runWithFilter(bundle, GetParam(), true, &filtered);
    std::string without = runWithFilter(bundle, GetParam(), false);
    EXPECT_EQ(with, without);

    if (GetParam() != HierarchyKind::RealRealNoIncl) {
        // Inclusion hierarchies are filterable, and a multi-CPU run has
        // misses to lines nobody caches: the filter must actually fire.
        EXPECT_GT(filtered, 0u);
    } else {
        // Without inclusion the L2 cannot vouch for the L1, so no probe
        // may ever be skipped (the paper's disturbance baseline).
        EXPECT_EQ(filtered, 0u);
    }
}

TEST_P(SnoopFilterEquivalence, SwitchHeavyTraceIdentical)
{
    // abaqus: frequent context switches exercise eviction/invalidation
    // paths that must keep the presence map in sync.
    WorkloadProfile p = scaled(abaqusProfile(), 0.02);
    TraceBundle bundle = generateTrace(p);
    EXPECT_EQ(runWithFilter(bundle, GetParam(), true),
              runWithFilter(bundle, GetParam(), false));
}

TEST_P(SnoopFilterEquivalence, DmaTrafficIdentical)
{
    // DMA reads and writes snoop every agent from an unfilterable
    // device; interleaving them with CPU traffic must not desynchronize
    // the presence map, and the devices' own outcomes (blocks supplied
    // by caches) must not depend on the filter either.
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    TraceBundle bundle = generateTrace(p);

    auto run = [&](bool filter_on, std::uint64_t *supplied) {
        MachineConfig mc = makeMachineConfig(GetParam(), 8 * 1024,
                                             64 * 1024, p.pageSize);
        MpSimulator sim(mc, bundle.profile);
        sim.bus().setSnoopFilterEnabled(filter_on);
        DmaDevice dma(sim.bus(), mc.hierarchy.l2.blockBytes);

        std::size_t i = 0;
        for (const auto &r : bundle.records) {
            sim.step(r);
            if (++i % 400 == 0) {
                // Sweep DMA over the low frames the workload uses.
                std::uint32_t frame = (i / 400) % 48;
                if (i % 800 == 0)
                    dma.write(PhysAddr(frame * p.pageSize), 128);
                else
                    dma.read(PhysAddr(frame * p.pageSize), 128);
            }
        }
        sim.checkInvariants();
        *supplied = dma.suppliedByCache();
        return toJson(sim);
    };

    std::uint64_t supplied_on = 0, supplied_off = 0;
    std::string with = run(true, &supplied_on);
    std::string without = run(false, &supplied_off);
    EXPECT_EQ(with, without);
    EXPECT_EQ(supplied_on, supplied_off)
        << "the filter changed what the caches supplied to the device";
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, SnoopFilterEquivalence,
    ::testing::Values(HierarchyKind::VirtualReal,
                      HierarchyKind::RealRealIncl,
                      HierarchyKind::RealRealNoIncl),
    [](const auto &info) {
        return std::string(hierarchyKindName(info.param)) == "VR"
                   ? "VR"
                   : (info.param == HierarchyKind::RealRealIncl
                          ? "RRincl"
                          : "RRnoincl");
    });

TEST(SnoopFilterTest, EnabledByDefault)
{
    SharedBus bus;
    EXPECT_TRUE(bus.snoopFilterEnabled());
}

TEST(SnoopFilterTest, PresenceMapShrinksOnEviction)
{
    // A machine whose R-caches publish presence must also retract it:
    // after the run the map holds at most the lines still resident.
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    TraceBundle bundle = generateTrace(p);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         4 * 1024, 16 * 1024,
                                         p.pageSize);
    MpSimulator sim(mc, p);
    sim.run(bundle.records);
    // 16K L2 at 16B lines = 1K lines per CPU; 4 CPUs.
    std::size_t max_resident = 4u * (16 * 1024 / 16);
    EXPECT_LE(sim.bus().presenceEntries(), max_resident);
    EXPECT_GT(sim.bus().presenceEntries(), 0u);
}

} // namespace
} // namespace vrc
