/**
 * @file
 * Tests for the cross-agent coherence oracle.
 *
 * The oracle must stay silent on every correct machine -- all three
 * hierarchy organizations under both coherence protocols, with context
 * switches, DMA traffic, and page remaps in the mix -- and it must fire
 * when a known invariant update is deliberately dropped (the mutation
 * hook in core/mutation.hh).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "check/oracle.hh"
#include "coherence/dma.hh"
#include "sim/mp_sim.hh"
#include "trace/generator.hh"

namespace vrc
{
namespace
{

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p = thorProfile();
    p.totalRefs = 25'000;
    p.contextSwitches = 6;
    p.sharedFrac = 0.15; // plenty of cross-CPU traffic
    return p;
}

MachineConfig
smallConfig(HierarchyKind kind, CoherencePolicy protocol)
{
    MachineConfig mc;
    mc.kind = kind;
    mc.hierarchy.l1.sizeBytes = 4 * 1024;
    mc.hierarchy.l2.sizeBytes = 32 * 1024;
    mc.hierarchy.l2.assoc = 2;
    mc.hierarchy.protocol = protocol;
    return mc;
}

using OrgProtocol = std::tuple<HierarchyKind, CoherencePolicy>;

class OracleCleanTest : public ::testing::TestWithParam<OrgProtocol>
{
};

TEST_P(OracleCleanTest, StaysSilentOnCorrectMachine)
{
    auto [kind, protocol] = GetParam();
    auto bundle = generateTrace(tinyProfile());
    MpSimulator sim(smallConfig(kind, protocol), bundle.profile);

    CoherenceOracle oracle(128);
    std::vector<std::string> hits;
    oracle.setViolationHandler([&](const CoherenceOracle::Violation &v) {
        hits.push_back(v.message);
    });
    oracle.attach(sim);

    std::size_t i = 0;
    for (const auto &r : bundle.records) {
        sim.step(r);
        if (++i % 2000 == 0)
            oracle.sweep();
    }
    oracle.sweep();

    EXPECT_TRUE(hits.empty())
        << "false positive: " << (hits.empty() ? "" : hits.front());
    EXPECT_EQ(oracle.violations(), 0u);
    EXPECT_GT(oracle.transactionsChecked(), 0u)
        << "the workload must actually exercise the bus";
    sim.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, OracleCleanTest,
    ::testing::Combine(
        ::testing::Values(HierarchyKind::VirtualReal,
                          HierarchyKind::RealRealIncl,
                          HierarchyKind::RealRealNoIncl,
                          HierarchyKind::VirtualRealRlt),
        ::testing::Values(CoherencePolicy::WriteInvalidate,
                          CoherencePolicy::WriteUpdate)),
    [](const ::testing::TestParamInfo<OrgProtocol> &info) {
        std::string name =
            std::get<0>(info.param) == HierarchyKind::VirtualReal ? "Vr"
            : std::get<0>(info.param) == HierarchyKind::VirtualRealRlt
                ? "VrRlt"
            : std::get<0>(info.param) == HierarchyKind::RealRealIncl
                ? "RrIncl"
                : "RrNoIncl";
        name += std::get<1>(info.param) == CoherencePolicy::WriteInvalidate
            ? "Inval" : "Update";
        return name;
    });

TEST(OracleTest, SilentWithDmaAndRemapTraffic)
{
    auto bundle = generateTrace(tinyProfile());
    MachineConfig mc = smallConfig(HierarchyKind::VirtualReal,
                                   CoherencePolicy::WriteInvalidate);
    MpSimulator sim(mc, bundle.profile);
    DmaDevice dma(sim.bus(), mc.hierarchy.l2.blockBytes);

    CoherenceOracle oracle(128);
    std::vector<std::string> hits;
    oracle.setViolationHandler([&](const CoherenceOracle::Violation &v) {
        hits.push_back(v.message);
    });
    oracle.attach(sim);

    std::size_t i = 0;
    for (const auto &r : bundle.records) {
        sim.step(r);
        ++i;
        if (i % 700 == 0) {
            // Hammer frames the CPUs are actually using.
            std::uint32_t frame = (i / 700) % 32;
            if (i % 1400 == 0)
                dma.write(PhysAddr(frame * 4096), 64);
            else
                dma.read(PhysAddr(frame * 4096), 64);
        }
        if (i % 3000 == 0)
            sim.remapPage(0, 0x10 + (i / 3000) % 4, 0x200 + (i / 3000));
        if (i % 2500 == 0)
            oracle.sweep();
    }
    oracle.sweep();

    EXPECT_TRUE(hits.empty())
        << "false positive: " << (hits.empty() ? "" : hits.front());
    EXPECT_GT(dma.blocksRead(), 0u);
    sim.checkInvariants();
}

TEST(OracleTest, DetectsDroppedInclusionUpdate)
{
    auto bundle = generateTrace(tinyProfile());
    MachineConfig mc = smallConfig(HierarchyKind::VirtualReal,
                                   CoherencePolicy::WriteInvalidate);
    mc.hierarchy.mutations.dropInclusionUpdate = true;
    MpSimulator sim(mc, bundle.profile);

    CoherenceOracle oracle(64);
    std::vector<CoherenceOracle::Violation> hits;
    oracle.setViolationHandler([&](const CoherenceOracle::Violation &v) {
        hits.push_back(v);
    });
    oracle.attach(sim);

    for (const auto &r : bundle.records) {
        sim.step(r);
        oracle.sweep();
        if (!hits.empty())
            break;
    }

    ASSERT_FALSE(hits.empty())
        << "the oracle must catch the dropped inclusion-bit update";
    EXPECT_NE(hits.front().message.find("directory bits"), std::string::npos)
        << "unexpected violation class: " << hits.front().message;
    EXPECT_GT(oracle.violations(), 0u);
    EXPECT_GT(oracle.ring().size(), 0u)
        << "the event ring must retain the protocol history";
}

TEST(OracleTest, DetachStopsObserving)
{
    auto bundle = generateTrace(tinyProfile());
    MpSimulator sim(smallConfig(HierarchyKind::VirtualReal,
                                CoherencePolicy::WriteInvalidate),
                    bundle.profile);

    CoherenceOracle oracle;
    oracle.attach(sim);
    for (std::size_t i = 0; i < 2000 && i < bundle.records.size(); ++i)
        sim.step(bundle.records[i]);
    std::uint64_t checked = oracle.transactionsChecked();
    EXPECT_GT(checked, 0u);

    oracle.detach();
    for (std::size_t i = 2000; i < 4000 && i < bundle.records.size(); ++i)
        sim.step(bundle.records[i]);
    EXPECT_EQ(oracle.transactionsChecked(), checked)
        << "a detached oracle must see no further transactions";
}

} // namespace
} // namespace vrc
