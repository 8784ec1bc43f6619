/**
 * @file
 * Seed-robustness tests: the paper's qualitative conclusions must hold
 * for *any* seed of the synthetic workloads, not just the shipped one.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace vrc
{
namespace
{

class SeedRobustnessTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedRobustnessTest, RareSwitchTracesKeepVrRrParity)
{
    WorkloadProfile p = scaled(popsProfile(), 0.05);
    p.seed = GetParam();
    TraceBundle b = generateTrace(p);
    SimSummary vr = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024});
    SimSummary rr = runSimulationJob(
        b, SimJob{HierarchyKind::RealRealIncl, 8 * 1024, 128 * 1024});
    EXPECT_NEAR(vr.h1, rr.h1, 0.01)
        << "V-R and R-R must stay nearly identical without switches";
}

TEST_P(SeedRobustnessTest, SwitchHeavyTracesFavorRr)
{
    WorkloadProfile p = scaled(abaqusProfile(), 0.25);
    p.seed = GetParam();
    TraceBundle b = generateTrace(p);
    SimSummary vr = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024});
    SimSummary rr = runSimulationJob(
        b, SimJob{HierarchyKind::RealRealIncl, 16 * 1024, 256 * 1024});
    EXPECT_GT(rr.h1, vr.h1)
        << "frequent flushes must cost the virtual cache";
}

TEST_P(SeedRobustnessTest, ShieldingAlwaysWins)
{
    WorkloadProfile p = scaled(popsProfile(), 0.03);
    p.seed = GetParam();
    TraceBundle b = generateTrace(p);
    SimSummary vr = runSimulationJob(
        b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024});
    SimSummary ni = runSimulationJob(
        b, SimJob{HierarchyKind::RealRealNoIncl, 8 * 1024, 128 * 1024});
    std::uint64_t vr_msgs = 0, ni_msgs = 0;
    for (auto v : vr.l1MsgsPerCpu)
        vr_msgs += v;
    for (auto v : ni.l1MsgsPerCpu)
        ni_msgs += v;
    EXPECT_GT(ni_msgs, 2 * vr_msgs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedRobustnessTest,
                         ::testing::Values(0xfeedULL, 0xc0ffeeULL,
                                           12345ULL),
                         [](const auto &info) {
                             return "seed" +
                                 std::to_string(info.index);
                         });

} // namespace
} // namespace vrc
