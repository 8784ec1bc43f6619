/**
 * @file
 * Tests for the soft-error model: array protection policies, the
 * deterministic strike machinery, recovery through the hierarchy, bus
 * retry, and the model's central contract -- a run whose strikes are
 * all recoverable reports exactly the architectural statistics of an
 * unarmed run (recovery is state-preserving), and a disarmed build of
 * the same binary is bit-identical to the seed simulator.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "base/fault.hh"
#include "cache/protection.hh"
#include "cache/tag_store.hh"
#include "core/events.hh"
#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "sim/mp_sim.hh"

namespace vrc
{
namespace
{

/** Every test starts and ends disarmed (the config is process-wide). */
class SoftErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { disarmSoftErrors(); }
    void TearDown() override { disarmSoftErrors(); }

    static TraceBundle &
    bundle()
    {
        static TraceBundle b = generateTrace(scaled(popsProfile(), 0.02));
        return b;
    }

    static MpSimulator
    makeSim(HierarchyKind kind,
            ArrayProtection prot = ArrayProtection::Secded)
    {
        MachineConfig mc = makeMachineConfig(
            kind, 8 * 1024, 64 * 1024, bundle().profile.pageSize);
        mc.hierarchy.l1.protection = prot;
        mc.hierarchy.l2.protection = prot;
        return MpSimulator(mc, bundle().profile);
    }

    /** Architectural (non-soft) counters a recoverable run must keep. */
    static std::vector<std::uint64_t>
    architecturalStats(MpSimulator &sim)
    {
        std::vector<std::uint64_t> v;
        for (const char *name :
             {"refs", "l1_hits", "l2_hits", "misses", "writebacks",
              "writeback_cancels", "synonym_hits", "memory_writes",
              "inclusion_invalidations", "l1_coherence_msgs",
              "snoops", "snoop_hits", "wb_stalls"}) {
            v.push_back(sim.totalCounter(name));
        }
        return v;
    }
};

// --- protection policy semantics -------------------------------------

TEST(ArrayProtection, ClassificationFollowsCheckBitAlgebra)
{
    using P = ArrayProtection;
    using O = FaultOutcome;

    // No check bits: everything is silent corruption.
    EXPECT_EQ(classifyArrayFault(P::None, 1), O::Silent);
    EXPECT_EQ(classifyArrayFault(P::None, 2), O::Silent);

    // Parity detects odd flip counts, aliases on even ones.
    EXPECT_EQ(classifyArrayFault(P::Parity, 1), O::Detected);
    EXPECT_EQ(classifyArrayFault(P::Parity, 2), O::Silent);
    EXPECT_EQ(classifyArrayFault(P::Parity, 3), O::Detected);

    // SECDED corrects one flip, detects two, can alias past three.
    EXPECT_EQ(classifyArrayFault(P::Secded, 1), O::Corrected);
    EXPECT_EQ(classifyArrayFault(P::Secded, 2), O::Detected);
    EXPECT_EQ(classifyArrayFault(P::Secded, 3), O::Silent);
}

TEST(ArrayProtection, ParseAndPrintRoundTrip)
{
    EXPECT_EQ(parseArrayProtection("none"), ArrayProtection::None);
    EXPECT_EQ(parseArrayProtection("parity"), ArrayProtection::Parity);
    EXPECT_EQ(parseArrayProtection("secded"), ArrayProtection::Secded);
    EXPECT_EQ(parseArrayProtection("SECDED"), ArrayProtection::Secded);
    EXPECT_FALSE(parseArrayProtection("ecc").has_value());
    EXPECT_STREQ(arrayProtectionName(ArrayProtection::Parity), "parity");
}

TEST(ArrayProtection, TagStoreCountsAbsorbedFaults)
{
    struct Meta
    {
    };
    TagStore<Meta> tags(CacheGeometry(1024, 16, 1), ReplPolicy::LRU);

    tags.setProtection(ArrayProtection::Secded);
    EXPECT_EQ(tags.absorbFault(1), FaultOutcome::Corrected);
    EXPECT_EQ(tags.absorbFault(2), FaultOutcome::Detected);
    EXPECT_EQ(tags.absorbFault(3), FaultOutcome::Silent);
    tags.noteUncorrectable();

    const ArrayFaultStats &fs = tags.faultStats();
    EXPECT_EQ(fs.corrected, 1u);
    EXPECT_EQ(fs.detected, 1u);
    EXPECT_EQ(fs.silent, 1u);
    EXPECT_EQ(fs.uncorrectable, 1u);

    tags.setProtection(ArrayProtection::None);
    EXPECT_EQ(tags.absorbFault(1), FaultOutcome::Silent);
    EXPECT_EQ(tags.faultStats().silent, 2u);
}

// --- spec parsing ----------------------------------------------------

TEST_F(SoftErrorTest, SpecParsing)
{
    ASSERT_TRUE(configureSoftErrors("seed=9,tag=0.25,bus=0.5,retry=7"));
    EXPECT_TRUE(softErrorsArmed());
    EXPECT_EQ(softErrorConfig().seed, 9u);
    EXPECT_DOUBLE_EQ(softErrorConfig().tag, 0.25);
    EXPECT_DOUBLE_EQ(softErrorConfig().state, 0.0);
    EXPECT_DOUBLE_EQ(softErrorConfig().bus, 0.5);
    EXPECT_EQ(softErrorConfig().busRetryLimit, 7u);

    // Bare seed: default probabilities arm every site.
    ASSERT_TRUE(configureSoftErrors("1234"));
    EXPECT_EQ(softErrorConfig().seed, 1234u);
    EXPECT_GT(softErrorConfig().tag, 0.0);
    EXPECT_GT(softErrorConfig().bus, 0.0);

    EXPECT_FALSE(configureSoftErrors("seed=0,tag=0.5"));
    EXPECT_FALSE(configureSoftErrors("seed=4,unknown=1"));
    EXPECT_FALSE(configureSoftErrors("seed=4,tag=abc"));

    // Integers must be whole, unsigned and in range; probabilities must
    // be finite and within [0,1]. None of these may arm the model.
    disarmSoftErrors();
    for (const char *bad :
         {"seed=-1", "seed=1.9", "seed=1e3", "seed=+5",
          "seed=18446744073709551616", "-1", "seed=4,retry=-1",
          "seed=4,retry=4294967296", "seed=4,retry=2.5", "seed=4,tag=-5",
          "seed=4,tag=nan", "seed=4,tag=inf", "seed=4,state=1.5",
          "seed=4,ptr=", "seed=4,bus=0.1x"}) {
        EXPECT_FALSE(configureSoftErrors(bad)) << bad;
        EXPECT_FALSE(softErrorsArmed()) << bad;
    }
    ASSERT_TRUE(configureSoftErrors("seed=18446744073709551615,tag=1,"
                                    "retry=4294967295"));
    EXPECT_EQ(softErrorConfig().seed, 18446744073709551615u);
    EXPECT_EQ(softErrorConfig().busRetryLimit, 4294967295u);
    EXPECT_DOUBLE_EQ(softErrorConfig().tag, 1.0);

    disarmSoftErrors();
    EXPECT_FALSE(softErrorsArmed());
}

TEST_F(SoftErrorTest, DecisionIsAPureFunction)
{
    ASSERT_TRUE(configureSoftErrors("seed=77,tag=0.5"));
    bool first = softErrorDecision("l1-tag", 3, 1000, 0.5);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(softErrorDecision("l1-tag", 3, 1000, 0.5), first);
    // Different sites draw from independent streams.
    unsigned hits = 0;
    for (std::uint64_t r = 0; r < 64; ++r)
        hits += softErrorDecision("l1-tag", 0, r, 0.5) ? 1 : 0;
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, 64u);
}

// --- the disarmed contract -------------------------------------------

TEST_F(SoftErrorTest, DisarmedRunIsBitIdenticalAndExposesNoSoftKeys)
{
    MpSimulator a = makeSim(HierarchyKind::VirtualReal);
    a.run(bundle().records);
    std::string base = toJson(a);

    // Same machine with the model disarmed (the default): identical
    // output, and no soft-error statistic leaks into the dump.
    MpSimulator b = makeSim(HierarchyKind::VirtualReal);
    b.run(bundle().records);
    EXPECT_EQ(base, toJson(b));
    EXPECT_EQ(base.find("soft_"), std::string::npos);
    EXPECT_EQ(base.find("machine_checks"), std::string::npos);
}

// --- recoverable strikes preserve architectural state ----------------

class RecoverableStrikes
    : public SoftErrorTest,
      public ::testing::WithParamInterface<HierarchyKind>
{
};

TEST_P(RecoverableStrikes, ArchitecturalStatsMatchUnarmedRun)
{
    MpSimulator base = makeSim(GetParam());
    base.run(bundle().records);
    std::vector<std::uint64_t> want = architecturalStats(base);

    // Tag strikes under SECDED: mostly corrected in place, the rest
    // detected and recovered by refetch. The workload replays bit-for-
    // bit because recovery restores the struck line's exact content.
    ASSERT_TRUE(configureSoftErrors("seed=7,tag=2e-5"));
    MpSimulator armed = makeSim(GetParam());
    armed.run(bundle().records);
    armed.checkInvariants();

    EXPECT_EQ(architecturalStats(armed), want);
    EXPECT_GT(armed.totalCounter("soft_faults_tag"), 0u);
    EXPECT_EQ(armed.totalCounter("machine_checks"), 0u);
    EXPECT_GT(armed.totalCounter("soft_corrected") +
                  armed.totalCounter("soft_recovered") +
                  armed.totalCounter("soft_masked") +
                  armed.totalCounter("soft_silent"),
              0u);
}

/** Test-name suffix of an organization. */
std::string
orgTag(HierarchyKind kind)
{
    switch (kind) {
      case HierarchyKind::VirtualReal:
        return "Vr";
      case HierarchyKind::RealRealIncl:
        return "RrIncl";
      case HierarchyKind::RealRealNoIncl:
        return "RrNoIncl";
      case HierarchyKind::VirtualRealRlt:
        return "VrRlt";
    }
    return "?";
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, RecoverableStrikes,
                         ::testing::ValuesIn(kAllHierarchyKinds),
                         [](const ::testing::TestParamInfo<
                             HierarchyKind> &info) {
                             return orgTag(info.param);
                         });

TEST_F(SoftErrorTest, SameSeedReproducesTheSameRun)
{
    ASSERT_TRUE(configureSoftErrors("seed=11,tag=5e-5,state=1e-5"));
    MpSimulator a = makeSim(HierarchyKind::VirtualReal);
    a.run(bundle().records);
    std::string first = toJson(a);
    EXPECT_NE(first.find("soft_"), std::string::npos);

    MpSimulator b = makeSim(HierarchyKind::VirtualReal);
    b.run(bundle().records);
    EXPECT_EQ(first, toJson(b));
}

TEST_F(SoftErrorTest, SweepResultsIndependentOfWorkerThreads)
{
    ASSERT_TRUE(configureSoftErrors("seed=5,tag=2e-5"));
    std::vector<SimJob> jobs = {
        {HierarchyKind::VirtualReal, 8 * 1024, 64 * 1024, false, 0},
        {HierarchyKind::RealRealIncl, 8 * 1024, 64 * 1024, false, 0},
        {HierarchyKind::RealRealNoIncl, 8 * 1024, 64 * 1024, false, 0},
    };
    std::vector<SimSummary> serial =
        runSimulations(bundle(), jobs, 1);
    std::vector<SimSummary> parallel =
        runSimulations(bundle(), jobs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_DOUBLE_EQ(serial[i].h1, parallel[i].h1) << i;
        EXPECT_DOUBLE_EQ(serial[i].h2, parallel[i].h2) << i;
        EXPECT_EQ(serial[i].busTransactions,
                  parallel[i].busTransactions) << i;
        EXPECT_EQ(serial[i].memoryWrites, parallel[i].memoryWrites)
            << i;
    }
}

// --- recovery emits events -------------------------------------------

TEST_F(SoftErrorTest, RecoveryEmitsFaultEvents)
{
    ASSERT_TRUE(configureSoftErrors("seed=3,tag=5e-4"));
    MpSimulator sim = makeSim(HierarchyKind::VirtualReal);

    std::uint64_t corrected = 0, detected = 0;
    CallbackObserver obs([&](const HierarchyEvent &ev) {
        if (ev.kind == EventKind::FaultCorrected)
            ++corrected;
        else if (ev.kind == EventKind::FaultDetected)
            ++detected;
    });
    for (CpuId c = 0; c < sim.cpuCount(); ++c)
        sim.hierarchy(c).setObserver(&obs);

    try {
        sim.run(bundle().records);
    } catch (const FaultUnrecoverable &) {
        // A dirty line may take an uncorrectable hit at this rate;
        // the events recorded up to the halt are what we check.
    }
    EXPECT_GT(corrected, 0u);
    EXPECT_EQ(sim.totalCounter("soft_detected"), detected);
    // One FaultCorrected per in-place correction and per recovery.
    EXPECT_EQ(sim.totalCounter("soft_corrected") +
                  sim.totalCounter("soft_recovered"),
              corrected);
}

// --- machine checks --------------------------------------------------

/** (organization, struck cache level) pairs. */
class MachineCheckStrikes
    : public SoftErrorTest,
      public ::testing::WithParamInterface<
          std::tuple<HierarchyKind, unsigned>>
{
};

TEST_P(MachineCheckStrikes, UncorrectableDirtyLineRaisesMachineCheck)
{
    // Parity cannot correct, and a strike per reference guarantees a
    // detected fault lands on a line holding (level 1) or shielding
    // (level 2) dirty data almost immediately.
    auto [kind, level] = GetParam();
    ASSERT_TRUE(configureSoftErrors(level == 1 ? "seed=2,tag=1.0"
                                               : "seed=2,state=1.0"));
    MpSimulator sim = makeSim(kind, ArrayProtection::Parity);
    std::string halt;
    try {
        sim.run(bundle().records);
    } catch (const FaultUnrecoverable &e) {
        halt = e.what();
    }
    const std::string where = "level-" + std::to_string(level);
    EXPECT_NE(halt.find(where), std::string::npos)
        << "expected a " << where << " machine check, got '" << halt
        << "'";
    EXPECT_GE(sim.totalCounter("machine_checks"), 1u);

    // The machine check unlinked the poisoned line before halting:
    // the surviving state is still coherent.
    sim.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, MachineCheckStrikes,
    ::testing::Combine(::testing::ValuesIn(kAllHierarchyKinds),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<std::tuple<HierarchyKind, unsigned>>
           &info) {
        return orgTag(std::get<0>(info.param)) + "Level" +
            std::to_string(std::get<1>(info.param));
    });

TEST_F(SoftErrorTest, UnprotectedArraysNeverDetectAnything)
{
    ASSERT_TRUE(configureSoftErrors("seed=2,tag=0.01"));
    MpSimulator sim =
        makeSim(HierarchyKind::VirtualReal, ArrayProtection::None);
    sim.run(bundle().records);

    // Every strike is silent data corruption: nothing detected, no
    // recovery, no machine check -- the SDC window the bench reports.
    EXPECT_GT(sim.totalCounter("soft_silent"), 0u);
    EXPECT_EQ(sim.totalCounter("soft_detected"), 0u);
    EXPECT_EQ(sim.totalCounter("soft_corrected"), 0u);
    EXPECT_EQ(sim.totalCounter("machine_checks"), 0u);
}

// --- bus transaction loss and retry ----------------------------------

TEST_F(SoftErrorTest, LostBusTransactionsAreRetried)
{
    ASSERT_TRUE(configureSoftErrors("seed=13,bus=0.05"));
    MpSimulator sim = makeSim(HierarchyKind::VirtualReal);
    sim.run(bundle().records);
    sim.checkInvariants();

    const StatGroup &bs = sim.bus().stats();
    EXPECT_GT(bs.value("soft_timeouts"), 0u);
    EXPECT_EQ(bs.value("soft_timeouts"), bs.value("soft_retries"));

    // Each retried attempt is a real (visible) bus transaction.
    MpSimulator base = makeSim(HierarchyKind::VirtualReal);
    disarmSoftErrors();
    base.run(bundle().records);
    EXPECT_EQ(sim.bus().transactions(),
              base.bus().transactions() + bs.value("soft_retries"));
}

TEST_F(SoftErrorTest, RetryBudgetExhaustionIsAMachineCheck)
{
    // Every attempt is lost: the first broadcast burns the whole
    // retry budget and halts.
    ASSERT_TRUE(configureSoftErrors("seed=13,bus=1.0"));
    MpSimulator sim = makeSim(HierarchyKind::VirtualReal);
    EXPECT_THROW(sim.run(bundle().records), FaultUnrecoverable);
    EXPECT_EQ(sim.bus().stats().value("soft_retries"),
              softErrorConfig().busRetryLimit);
}

} // namespace
} // namespace vrc
