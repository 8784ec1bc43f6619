/**
 * @file
 * Soft errors under the coherence oracle: randomized multiprocessor
 * workloads with the strike model armed must never produce a coherence
 * violation -- recovery either restores the exact pre-strike state or
 * halts the episode with a machine check. This is the fuzz half of the
 * acceptance criterion; soft_error_recovery_test.cc covers the
 * deterministic half.
 */

#include <gtest/gtest.h>

#include "base/fault.hh"
#include "check/fuzzer.hh"

namespace vrc
{
namespace
{

TEST(SoftErrorFuzz, RecoveryStatesPassTheOracle)
{
    // Rates high enough that nearly every seed takes strikes, across
    // all four organizations and both protocols (the "mix" mapping).
    const SoftErrorConfig soft =
        parseSoftErrors("seed=29,tag=1e-4,state=2e-5,ptr=2e-5").take();

    unsigned machine_checks = 0;
    std::uint64_t strikes = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        FuzzOptions opt;
        opt.seed = seed;
        opt.ops = 3000;
        opt.kind = kAllHierarchyKinds[seed % kHierarchyKindCount];
        opt.protocol = (seed / 3) % 2 == 0
            ? CoherencePolicy::WriteInvalidate
            : CoherencePolicy::WriteUpdate;
        opt.sweepPeriod = 128;
        opt.invariantPeriod = 512;
        opt.softErrors = soft;

        FuzzResult r = runFuzz(opt);
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation;
        machine_checks += r.machineCheck ? 1 : 0;
        strikes += r.refs;
    }
    // The campaign must have actually exercised the model (at these
    // rates a zero-strike dozen of episodes is implausible), and a
    // machine check, when it happens, halts without a violation.
    EXPECT_GT(strikes, 0u);
    (void)machine_checks;
}

TEST(SoftErrorFuzz, BusLossUnderFuzzKeepsCoherence)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        FuzzOptions opt;
        opt.seed = seed;
        opt.ops = 2000;
        opt.kind = HierarchyKind::VirtualReal;
        opt.sweepPeriod = 128;
        opt.softErrors = parseSoftErrors("seed=31,bus=0.02").take();
        FuzzResult r = runFuzz(opt);
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.violation;
    }
}

} // namespace
} // namespace vrc
