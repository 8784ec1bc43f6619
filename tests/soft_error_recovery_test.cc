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
#include "check/oracle.hh"
#include "core/events.hh"
#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "sim/mp_sim.hh"
#include "sim/parallel_runner.hh"

namespace vrc
{
namespace
{

/** Strikes from a valid spec. */
SoftErrorConfig
strikes(const std::string &spec)
{
    return parseSoftErrors(spec).take();
}

class SoftErrorTest : public ::testing::Test
{
  protected:
    static TraceBundle &
    bundle()
    {
        static TraceBundle b = generateTrace(scaled(popsProfile(), 0.02));
        return b;
    }

    static MpSimulator
    makeSim(HierarchyKind kind, const SoftErrorConfig &soft = {},
            ArrayProtection prot = ArrayProtection::Secded)
    {
        MachineConfig mc = makeMachineConfig(
            kind, 8 * 1024, 64 * 1024, bundle().profile.pageSize);
        mc.hierarchy.l1.protection = prot;
        mc.hierarchy.l2.protection = prot;
        mc.hierarchy.softErrors = soft;
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
    Result<SoftErrorConfig> c =
        parseSoftErrors("seed=9,tag=0.25,bus=0.5,retry=7");
    ASSERT_TRUE(c);
    EXPECT_TRUE(c.value().armed());
    EXPECT_EQ(c.value().seed, 9u);
    EXPECT_DOUBLE_EQ(c.value().tag, 0.25);
    EXPECT_DOUBLE_EQ(c.value().state, 0.0);
    EXPECT_DOUBLE_EQ(c.value().bus, 0.5);
    EXPECT_EQ(c.value().busRetryLimit, 7u);

    // Bare seed: default probabilities arm every site.
    c = parseSoftErrors("1234");
    ASSERT_TRUE(c);
    EXPECT_EQ(c.value().seed, 1234u);
    EXPECT_GT(c.value().tag, 0.0);
    EXPECT_GT(c.value().bus, 0.0);

    // Integers must be whole, unsigned and in range; probabilities must
    // be finite and within [0,1]; the seed must be nonzero.
    for (const char *bad :
         {"seed=0,tag=0.5", "seed=4,unknown=1", "seed=4,tag=abc",
          "seed=-1", "seed=1.9", "seed=1e3", "seed=+5",
          "seed=18446744073709551616", "-1", "seed=4,retry=-1",
          "seed=4,retry=4294967296", "seed=4,retry=2.5", "seed=4,tag=-5",
          "seed=4,tag=nan", "seed=4,tag=inf", "seed=4,state=1.5",
          "seed=4,ptr=", "seed=4,bus=0.1x"}) {
        EXPECT_FALSE(parseSoftErrors(bad)) << bad;
    }
    c = parseSoftErrors("seed=18446744073709551615,tag=1,"
                        "retry=4294967295");
    ASSERT_TRUE(c);
    EXPECT_EQ(c.value().seed, 18446744073709551615u);
    EXPECT_EQ(c.value().busRetryLimit, 4294967295u);
    EXPECT_DOUBLE_EQ(c.value().tag, 1.0);
}

TEST_F(SoftErrorTest, DecisionIsAPureFunction)
{
    const SoftErrorConfig sc = strikes("seed=77,tag=0.5");
    bool first = sc.strikes("l1-tag", 3, 1000, 0.5);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sc.strikes("l1-tag", 3, 1000, 0.5), first);
    // Different sites draw from independent streams.
    unsigned hits = 0;
    for (std::uint64_t r = 0; r < 64; ++r)
        hits += sc.strikes("l1-tag", 0, r, 0.5) ? 1 : 0;
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, 64u);
    EXPECT_FALSE(SoftErrorConfig{}.strikes("l1-tag", 3, 1000, 1.0));
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
    MpSimulator armed = makeSim(GetParam(), strikes("seed=7,tag=2e-5"));
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
    const SoftErrorConfig sc = strikes("seed=11,tag=5e-5,state=1e-5");
    MpSimulator a = makeSim(HierarchyKind::VirtualReal, sc);
    a.run(bundle().records);
    std::string first = toJson(a);
    EXPECT_NE(first.find("soft_"), std::string::npos);

    MpSimulator b = makeSim(HierarchyKind::VirtualReal, sc);
    b.run(bundle().records);
    EXPECT_EQ(first, toJson(b));
}

TEST_F(SoftErrorTest, SweepResultsIndependentOfWorkerThreads)
{
    const SoftErrorConfig sc = strikes("seed=5,tag=2e-5");
    auto run = [&](unsigned threads) {
        return ParallelRunner(threads).map(3, [&](std::size_t i) {
            MpSimulator sim = makeSim(kAllHierarchyKinds[i], sc);
            sim.run(bundle().records);
            return toJson(sim);
        });
    };
    EXPECT_EQ(run(1), run(4));
}

// --- recovery emits events -------------------------------------------

TEST_F(SoftErrorTest, RecoveryEmitsFaultEvents)
{
    MpSimulator sim =
        makeSim(HierarchyKind::VirtualReal, strikes("seed=3,tag=5e-4"));

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
    MpSimulator sim = makeSim(
        kind, strikes(level == 1 ? "seed=2,tag=1.0" : "seed=2,state=1.0"),
        ArrayProtection::Parity);
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
    MpSimulator sim = makeSim(HierarchyKind::VirtualReal,
                              strikes("seed=2,tag=0.01"),
                              ArrayProtection::None);
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
    MpSimulator sim =
        makeSim(HierarchyKind::VirtualReal, strikes("seed=13,bus=0.05"));
    sim.run(bundle().records);
    sim.checkInvariants();

    const auto &bs = sim.bus().stats();
    EXPECT_GT(bs.value("soft_timeouts"), 0u);
    EXPECT_EQ(bs.value("soft_timeouts"), bs.value("soft_retries"));

    // Each retried attempt is a real (visible) bus transaction.
    MpSimulator base = makeSim(HierarchyKind::VirtualReal);
    base.run(bundle().records);
    EXPECT_EQ(sim.bus().transactions(),
              base.bus().transactions() + bs.value("soft_retries"));
}

TEST_F(SoftErrorTest, RetryBudgetExhaustionIsAMachineCheck)
{
    // Every attempt is lost: the first broadcast burns the whole
    // retry budget and halts.
    const SoftErrorConfig sc = strikes("seed=13,bus=1.0");
    MpSimulator sim = makeSim(HierarchyKind::VirtualReal, sc);
    EXPECT_THROW(sim.run(bundle().records), FaultUnrecoverable);
    EXPECT_EQ(sim.bus().stats().value("soft_retries"), sc.busRetryLimit);
}

// --- machines share no settings -------------------------------------

TEST_F(SoftErrorTest, MachinesSideBySideKeepTheirOwnSettings)
{
    // Three machines of one trace: struck, plain, and with a planted
    // inclusion bug. Each runs beside the others as it runs alone.
    const TraceBundle &b = bundle();
    std::vector<MachineConfig> machines(
        3, makeMachineConfig(HierarchyKind::VirtualReal, 16 * 1024,
                             256 * 1024, b.profile.pageSize));
    machines[0].hierarchy.softErrors =
        strikes("seed=97,tag=5e-4,state=1e-4,ptr=1e-4,bus=2e-5");
    machines[2].hierarchy.mutations.dropInclusionUpdate = true;

    auto run = [&](std::size_t i) {
        MpSimulator sim(machines[i], b.profile);
        CoherenceOracle oracle(16);
        oracle.setViolationHandler([](const auto &) {});
        oracle.attach(sim);
        if (i == 2) {
            // Run on, the bug trips the hierarchy's own panics: sweep
            // after every reference and stop at the first violation.
            for (const TraceRecord &r : b.records) {
                sim.step(r);
                oracle.sweep();
                if (oracle.violations())
                    break;
            }
        } else {
            sim.run(b.records);
            oracle.sweep();
            sim.checkInvariants();
        }
        return std::pair(toJson(sim), oracle.violations());
    };
    auto side_by_side = ParallelRunner(3).map(3, run);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(side_by_side[i], run(i)) << "machine " << i;

    EXPECT_NE(side_by_side[0].first.find("soft_"), std::string::npos);
    EXPECT_EQ(side_by_side[1].first.find("soft_"), std::string::npos);
    EXPECT_EQ(side_by_side[0].second, 0u);
    EXPECT_EQ(side_by_side[1].second, 0u);
    EXPECT_GT(side_by_side[2].second, 0u);
}

} // namespace
} // namespace vrc
