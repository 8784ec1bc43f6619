/**
 * @file
 * Fault injector tests: arming and disarming, spec parsing,
 * schedule determinism, input corruption, and cell faults -- plus the
 * end-to-end guarantee that an injected fault becomes a quarantined
 * cell, never an aborted campaign.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/fault.hh"
#include "sim/campaign.hh"

namespace vrc
{
namespace
{

/** Disarm around every test so arming never leaks between cases. */
class FaultInjectionTest : public ::testing::Test
{
  protected:
    void SetUp() override { disarmFaultInjection(); }
    void TearDown() override { disarmFaultInjection(); }
};

TEST_F(FaultInjectionTest, CompiledIn)
{
    // The hooks are always built: arming takes effect and disarming
    // undoes it.
    EXPECT_FALSE(faultsArmed());
    ASSERT_TRUE(configureFaultInjection("seed=1,throw=0.5").ok());
    EXPECT_TRUE(faultsArmed());
    disarmFaultInjection();
    EXPECT_FALSE(faultsArmed());
}

TEST_F(FaultInjectionTest, SpecParsing)
{
    EXPECT_TRUE(configureFaultInjection(
                    "seed=5,corrupt=0.5,truncate=0.1,throw=0.2,"
                    "stall=0.3,stall_ms=100")
                    .ok());
    EXPECT_TRUE(faultsArmed());
    EXPECT_EQ(faultConfig().seed, 5u);
    EXPECT_DOUBLE_EQ(faultConfig().corrupt, 0.5);
    EXPECT_DOUBLE_EQ(faultConfig().stallSeconds, 0.1);

    // Bare number: seed with the default probabilities.
    EXPECT_TRUE(configureFaultInjection("42").ok());
    EXPECT_EQ(faultConfig().seed, 42u);
    EXPECT_DOUBLE_EQ(faultConfig().throwProb, 0.25);

    disarmFaultInjection();
    EXPECT_FALSE(faultsArmed());
}

TEST_F(FaultInjectionTest, BadSpecsRejected)
{
    EXPECT_FALSE(configureFaultInjection("").ok());
    EXPECT_FALSE(configureFaultInjection("corrupt=0.5").ok()); // no seed
    EXPECT_FALSE(configureFaultInjection("seed=0").ok());
    EXPECT_FALSE(configureFaultInjection("seed=x").ok());
    EXPECT_FALSE(configureFaultInjection("seed=3,bogus=1").ok());
    EXPECT_FALSE(configureFaultInjection("seed=3,throw=").ok());

    // Integers must be whole, unsigned and in range; probabilities
    // finite and within [0,1]; stall_ms a finite non-negative number.
    for (const char *bad :
         {"seed=-1", "seed=1.9", "seed=1e3", "-7", "seed=3,corrupt=-5",
          "seed=3,throw=nan", "seed=3,stall=1.01", "seed=3,drop=inf",
          "seed=3,tear=2", "seed=3,stall_ms=-1",
          "seed=3,stall_ms=inf"}) {
        EXPECT_FALSE(configureFaultInjection(bad).ok()) << bad;
        EXPECT_FALSE(faultsArmed()) << bad;
    }
    EXPECT_TRUE(configureFaultInjection("seed=3,stall_ms=2500").ok());
    EXPECT_DOUBLE_EQ(faultConfig().stallSeconds, 2.5);
}

TEST_F(FaultInjectionTest, DecisionsArePureFunctionsOfSeed)
{
    ASSERT_TRUE(configureFaultInjection("seed=9,throw=0.5").ok());
    bool hit = false, miss = false;
    for (std::uint64_t cell = 0; cell < 64; ++cell) {
        bool first = faultDecision("cell-throw", cell, 0, 0.5);
        EXPECT_EQ(first, faultDecision("cell-throw", cell, 0, 0.5));
        (first ? hit : miss) = true;
    }
    // With 64 draws at p=0.5 both outcomes occur.
    EXPECT_TRUE(hit);
    EXPECT_TRUE(miss);
    EXPECT_FALSE(faultDecision("cell-throw", 0, 0, 0.0));
}

TEST_F(FaultInjectionTest, InputCorruptionIsDeterministic)
{
    ASSERT_TRUE(configureFaultInjection("seed=11,corrupt=1").ok());
    const std::string original(256, 'a');
    std::string once = original, twice = original;
    injectInputFaults("trace", "some/path.vrct", once);
    injectInputFaults("trace", "some/path.vrct", twice);
    EXPECT_NE(once, original); // bytes actually flipped
    EXPECT_EQ(once, twice);    // identically on every run
    EXPECT_EQ(once.size(), original.size());
}

TEST_F(FaultInjectionTest, InputTruncationShortensTheBytes)
{
    ASSERT_TRUE(configureFaultInjection("seed=11,truncate=1").ok());
    std::string bytes(256, 'a');
    injectInputFaults("trace", "some/path.vrct", bytes);
    EXPECT_LT(bytes.size(), 256u);
}

TEST_F(FaultInjectionTest, DisarmedHooksAreInert)
{
    std::string bytes(64, 'a');
    injectInputFaults("trace", "p", bytes);
    EXPECT_EQ(bytes, std::string(64, 'a'));
    CancelToken token;
    EXPECT_NO_THROW(maybeInjectCellFault(0, 0, token));
}

TEST_F(FaultInjectionTest, CellThrowRaisesInjectedFault)
{
    ASSERT_TRUE(configureFaultInjection("seed=2,throw=1").ok());
    CancelToken token;
    EXPECT_THROW(maybeInjectCellFault(3, 0, token), InjectedFault);
    try {
        maybeInjectCellFault(3, 0, token);
        FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &f) {
        EXPECT_EQ(f.err().kind, ErrorKind::Injected);
    }
}

TEST_F(FaultInjectionTest, CampaignSurvivesInjectedFaults)
{
    // With throw faults on every first attempt sooner or later, a
    // campaign with retries still completes every cell or quarantines
    // it -- it never aborts.
    ASSERT_TRUE(configureFaultInjection("seed=7,throw=0.6").ok());
    CampaignOptions opt;
    opt.maxRetries = 8; // p(9 straight injected throws) ~ 1%
    opt.backoffSeconds = 0.0;
    auto r = CampaignRunner{opt}.run(
        9, "k", [](std::size_t i, const CancelToken &) {
            SimSummary s;
            s.refs = i;
            return s;
        });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().completedCells() +
                  r.value().quarantined.size(),
              9u);
    for (const CellFailure &f : r.value().quarantined)
        EXPECT_EQ(f.kind, ErrorKind::Injected);
}

} // namespace
} // namespace vrc
