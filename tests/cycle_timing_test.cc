/**
 * @file
 * Cross-checks between the two timing engines.
 *
 * The cycle engine is pure accounting layered on the functional model:
 * switching engines must leave every architectural counter bit-
 * identical, and in the zero-contention limit (one CPU, zero-cost bus
 * service) the per-reference cycle count must reproduce the Section-4
 * closed form the analytic engine uses.
 */

#include <gtest/gtest.h>

#include "core/timing.hh"
#include "sim/experiment.hh"

namespace vrc
{
namespace
{

/** Assert every architectural counter of two finished sims agrees. */
void
expectIdenticalCounters(const MpSimulator &a, const MpSimulator &b)
{
    ASSERT_EQ(a.cpuCount(), b.cpuCount());
    for (CpuId c = 0; c < a.cpuCount(); ++c) {
        const auto &sa = a.hierarchy(c).stats();
        const auto &sb = b.hierarchy(c).stats();
        ASSERT_EQ(sa.all().size(), sb.all().size()) << "cpu " << c;
        for (const auto &[key, n] : sa.all()) {
            EXPECT_EQ(n, sb.value(key))
                << "cpu " << c << " counter " << key;
        }
    }
    for (const auto &[key, n] : a.bus().stats().all())
        EXPECT_EQ(n, b.bus().stats().value(key))
            << "bus counter " << key;
    EXPECT_EQ(a.bus().transactions(), b.bus().transactions());
    EXPECT_EQ(a.refsProcessed(), b.refsProcessed());
}

TEST(CycleTimingTest, ArchitecturalCountersIdenticalAcrossModes)
{
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    TraceBundle bundle = generateTrace(p);
    for (auto kind :
         {HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
          HierarchyKind::RealRealNoIncl}) {
        SCOPED_TRACE(hierarchyKindName(kind));
        MachineConfig mc = makeMachineConfig(kind, 8 * 1024, 128 * 1024,
                                             p.pageSize);
        mc.timingMode = TimingMode::Analytic;
        MpSimulator analytic(mc, p);
        analytic.run(bundle.records);

        mc.timingMode = TimingMode::Cycle;
        MpSimulator cycle(mc, p);
        cycle.run(bundle.records);

        expectIdenticalCounters(analytic, cycle);
        EXPECT_DOUBLE_EQ(analytic.h1(), cycle.h1());
        EXPECT_DOUBLE_EQ(analytic.h2(), cycle.h2());
        // The counted per-reference cost is mode-independent too: the
        // engines differ only in what they *add* on top.
        EXPECT_DOUBLE_EQ(analytic.measuredAccessTime(),
                         cycle.measuredAccessTime());
    }
}

TEST(CycleTimingTest, ZeroContentionReproducesAnalyticExactly)
{
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    p.numCpus = 1;
    TraceBundle bundle = generateTrace(p);
    for (auto kind :
         {HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl}) {
        SCOPED_TRACE(hierarchyKindName(kind));
        MachineConfig mc = makeMachineConfig(kind, 8 * 1024, 128 * 1024,
                                             p.pageSize);
        mc.timingMode = TimingMode::Cycle;
        mc.busTiming = BusTimingParams::zero();
        MpSimulator sim(mc, p);
        sim.run(bundle.records);

        // One CPU, zero-cost service: no queueing, no occupancy; the
        // clock sums exactly the same per-reference costs as the
        // analytic accumulator, in the same order -- bit-identical.
        EXPECT_DOUBLE_EQ(sim.busWaitTime(), 0.0);
        EXPECT_DOUBLE_EQ(sim.busBusyTime(), 0.0);
        EXPECT_DOUBLE_EQ(sim.avgAccessCycles(),
                         sim.measuredAccessTime());
        // ... and the Section-4 closed form partitions those costs up
        // to double-rounding of the re-association.
        EXPECT_NEAR(sim.avgAccessCycles(),
                    avgAccessTime(sim.h1(), sim.h2(), mc.timing), 1e-9);
    }
}

TEST(CycleTimingTest, AvgBusWaitGrowsMonotonicallyWithCpuCount)
{
    double prev_wait = -1.0;
    for (std::uint32_t cpus : {2u, 4u, 8u, 16u}) {
        WorkloadProfile p = scaled(popsProfile(), 0.005);
        p.numCpus = cpus;
        TraceBundle bundle = generateTrace(p);
        MachineConfig mc =
            makeMachineConfig(HierarchyKind::VirtualReal, 8 * 1024,
                              128 * 1024, p.pageSize);
        mc.timingMode = TimingMode::Cycle;
        MpSimulator sim(mc, p);
        sim.run(bundle.records);
        EXPECT_GT(sim.avgBusWait(), prev_wait)
            << cpus << " CPUs sharing one bus must queue longer than "
            << cpus / 2;
        prev_wait = sim.avgBusWait();
    }
}

TEST(CycleTimingTest, SummariesBitIdenticalAcrossWorkerCounts)
{
    WorkloadProfile p = scaled(popsProfile(), 0.005);
    TraceBundle bundle = generateTrace(p);
    std::vector<SimJob> jobs;
    for (auto [l1, l2] : paperSizePairs()) {
        jobs.push_back({HierarchyKind::VirtualReal, l1, l2, false, 0,
                        TimingMode::Cycle});
        jobs.push_back({HierarchyKind::RealRealIncl, l1, l2, false, 0,
                        TimingMode::Analytic});
    }
    std::vector<SimSummary> serial = runSimulations(bundle, jobs, 1);
    std::vector<SimSummary> parallel = runSimulations(bundle, jobs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(serial[i].refs, parallel[i].refs);
        EXPECT_EQ(serial[i].busTransactions,
                  parallel[i].busTransactions);
        EXPECT_DOUBLE_EQ(serial[i].h1, parallel[i].h1);
        EXPECT_DOUBLE_EQ(serial[i].h2, parallel[i].h2);
        EXPECT_DOUBLE_EQ(serial[i].avgAccessTime,
                         parallel[i].avgAccessTime);
        EXPECT_DOUBLE_EQ(serial[i].avgAccessCycles,
                         parallel[i].avgAccessCycles);
        EXPECT_DOUBLE_EQ(serial[i].busUtilization,
                         parallel[i].busUtilization);
        EXPECT_DOUBLE_EQ(serial[i].avgBusWait, parallel[i].avgBusWait);
        EXPECT_EQ(serial[i].timingMode, parallel[i].timingMode);
    }
}

TEST(CycleTimingTest, CycleLatencyIncludesBusTime)
{
    WorkloadProfile p = scaled(popsProfile(), 0.005);
    TraceBundle bundle = generateTrace(p);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         4 * 1024, 64 * 1024,
                                         p.pageSize);
    mc.timingMode = TimingMode::Cycle;
    MpSimulator sim(mc, p);
    sim.run(bundle.records);
    // With a real service table and several CPUs, per-reference cycle
    // latency strictly exceeds the contention-free level costs.
    EXPECT_GT(sim.avgAccessCycles(), sim.measuredAccessTime());
    // The clock decomposition accounts for the difference exactly.
    double decomposed = 0.0;
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        const CpuClock &clk = sim.clock(c);
        EXPECT_DOUBLE_EQ(clk.now(), clk.accessTicks() +
                                        clk.busWaitTicks() +
                                        clk.busServiceTicks());
        decomposed += clk.now();
    }
    EXPECT_DOUBLE_EQ(sim.avgAccessCycles(),
                     decomposed / static_cast<double>(
                                      sim.refsProcessed()));
}

TEST(CycleTimingTest, WarmupResetZeroesTimingState)
{
    WorkloadProfile p = scaled(popsProfile(), 0.005);
    TraceBundle bundle = generateTrace(p);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         4 * 1024, 64 * 1024,
                                         p.pageSize);
    mc.timingMode = TimingMode::Cycle;
    MpSimulator sim(mc, p);
    sim.run(bundle.records);
    ASSERT_GT(sim.busBusyTime(), 0.0);
    sim.resetStats();
    EXPECT_DOUBLE_EQ(sim.busBusyTime(), 0.0);
    EXPECT_DOUBLE_EQ(sim.busWaitTime(), 0.0);
    EXPECT_DOUBLE_EQ(sim.cpuClock(0), 0.0);
    EXPECT_DOUBLE_EQ(sim.avgAccessCycles(), 0.0);
    // The engine keeps working after the reset.
    sim.run(bundle.records);
    EXPECT_GT(sim.busBusyTime(), 0.0);
}

} // namespace
} // namespace vrc
