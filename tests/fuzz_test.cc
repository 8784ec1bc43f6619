/**
 * @file
 * Tests for the differential coherence fuzzer: clean runs across every
 * organization/protocol, determinism, the replay file round trip, the
 * RNG-stream discipline that makes mask minimization meaningful, and
 * the mutation smoke mode proving the oracle catches a planted bug.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>

#include "check/fuzzer.hh"

namespace vrc
{
namespace
{

FuzzOptions
smallOptions()
{
    FuzzOptions opt;
    opt.ops = 1500;
    opt.cpus = 2;
    opt.frames = 12;
    opt.vpnsPerProcess = 4;
    opt.sweepPeriod = 200;
    return opt;
}

using OrgProtocol = std::tuple<HierarchyKind, CoherencePolicy, bool>;

class FuzzCleanTest : public ::testing::TestWithParam<OrgProtocol>
{
};

TEST_P(FuzzCleanTest, RunsCleanOnCorrectSimulator)
{
    auto [kind, protocol, split] = GetParam();
    FuzzOptions opt = smallOptions();
    opt.kind = kind;
    opt.protocol = protocol;
    opt.splitL1 = split;
    opt.invariantPeriod = 500;

    FuzzResult r = runFuzz(opt);
    EXPECT_TRUE(r.ok) << "violation: " << r.violation;
    EXPECT_EQ(r.opsRun, opt.ops);
    EXPECT_GT(r.refs, 0u);
    EXPECT_GT(r.busTransactions, 0u)
        << "the fuzz pool must generate coherence traffic";
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, FuzzCleanTest,
    ::testing::Values(
        OrgProtocol{HierarchyKind::VirtualReal,
                    CoherencePolicy::WriteInvalidate, false},
        OrgProtocol{HierarchyKind::VirtualReal,
                    CoherencePolicy::WriteUpdate, true},
        OrgProtocol{HierarchyKind::RealRealIncl,
                    CoherencePolicy::WriteInvalidate, true},
        OrgProtocol{HierarchyKind::RealRealIncl,
                    CoherencePolicy::WriteUpdate, false},
        OrgProtocol{HierarchyKind::RealRealNoIncl,
                    CoherencePolicy::WriteInvalidate, false},
        OrgProtocol{HierarchyKind::RealRealNoIncl,
                    CoherencePolicy::WriteUpdate, true},
        OrgProtocol{HierarchyKind::VirtualRealRlt,
                    CoherencePolicy::WriteInvalidate, false},
        OrgProtocol{HierarchyKind::VirtualRealRlt,
                    CoherencePolicy::WriteUpdate, true}),
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
        name += std::get<2>(info.param) ? "Split" : "Unified";
        return name;
    });

TEST(FuzzTest, DeterministicForAGivenSeed)
{
    FuzzOptions opt = smallOptions();
    opt.seed = 7;
    FuzzResult a = runFuzz(opt);
    FuzzResult b = runFuzz(opt);
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
    EXPECT_EQ(a.busTransactions, b.busTransactions);
}

TEST(FuzzTest, SeedsDiverge)
{
    FuzzOptions opt = smallOptions();
    opt.seed = 1;
    FuzzResult a = runFuzz(opt);
    opt.seed = 2;
    FuzzResult b = runFuzz(opt);
    EXPECT_NE(a.busTransactions, b.busTransactions)
        << "different seeds should explore different traffic";
}

TEST(FuzzTest, MinTransactionsExtendsTheRun)
{
    FuzzOptions opt = smallOptions();
    opt.ops = 100;
    opt.minTransactions = 500;
    FuzzResult r = runFuzz(opt);
    EXPECT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.opsRun, opt.ops)
        << "the run keeps going until the bus saw enough transactions";
    EXPECT_GE(r.busTransactions, opt.minTransactions);
}

TEST(FuzzTest, MaskedOpsPreserveTheRngStream)
{
    // Disabling DMA must not perturb which memory references and
    // context switches the remaining ops perform -- that property is
    // what makes greedy mask minimization meaningful.
    FuzzOptions full = smallOptions();
    FuzzOptions no_dma = full;
    no_dma.opMask &=
        ~((1u << static_cast<unsigned>(FuzzOpKind::DmaRead)) |
          (1u << static_cast<unsigned>(FuzzOpKind::DmaWrite)));

    FuzzResult a = runFuzz(full);
    FuzzResult b = runFuzz(no_dma);
    EXPECT_TRUE(a.ok) << a.violation;
    EXPECT_TRUE(b.ok) << b.violation;
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

TEST(FuzzTest, ReplayRoundTripPreservesOptions)
{
    FuzzOptions opt = smallOptions();
    opt.seed = 42;
    opt.kind = HierarchyKind::RealRealNoIncl;
    opt.protocol = CoherencePolicy::WriteUpdate;
    opt.splitL1 = true;
    opt.minTransactions = 77;
    opt.opMask = 0x0b;
    opt.mutateInclusion = false;
    opt.softErrors = parseSoftErrors("seed=29,tag=1e-4,bus=0.05").take();

    FuzzOptions parsed;
    ASSERT_TRUE(replayFromJson(replayToJson(opt), parsed));
    EXPECT_EQ(parsed.seed, opt.seed);
    EXPECT_EQ(parsed.ops, opt.ops);
    EXPECT_EQ(parsed.minTransactions, opt.minTransactions);
    EXPECT_EQ(parsed.cpus, opt.cpus);
    EXPECT_EQ(parsed.kind, opt.kind);
    EXPECT_EQ(parsed.protocol, opt.protocol);
    EXPECT_EQ(parsed.splitL1, opt.splitL1);
    EXPECT_EQ(parsed.frames, opt.frames);
    EXPECT_EQ(parsed.vpnsPerProcess, opt.vpnsPerProcess);
    EXPECT_EQ(parsed.opMask, opt.opMask);
    EXPECT_EQ(parsed.sweepPeriod, opt.sweepPeriod);
    EXPECT_EQ(parsed.mutateInclusion, opt.mutateInclusion);
    EXPECT_EQ(parsed.softErrors, opt.softErrors);

    // A replayed configuration reproduces the original run exactly,
    // strikes included (lost bus attempts are extra transactions).
    opt.opMask = opMaskAll;
    ASSERT_TRUE(replayFromJson(replayToJson(opt), parsed));
    FuzzResult a = runFuzz(opt);
    FuzzResult b = runFuzz(parsed);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.busTransactions, b.busTransactions);
    EXPECT_EQ(a.machineCheck, b.machineCheck);
    opt.softErrors = {};
    EXPECT_LT(runFuzz(opt).busTransactions, a.busTransactions);

    // A file without the field (as before it existed) loads disarmed.
    ASSERT_TRUE(replayFromJson("{\"format\": 1}", parsed));
    EXPECT_FALSE(parsed.softErrors.armed());
}

TEST(FuzzTest, ReplayRejectsGarbage)
{
    FuzzOptions out;
    EXPECT_FALSE(replayFromJson("", out));
    EXPECT_FALSE(replayFromJson("{\"seed\": 3}", out));
    EXPECT_FALSE(replayFromJson("{\"format\": 2, \"seed\": 3}", out));
    EXPECT_FALSE(replayFromJson(
        "{\"format\": 1, \"soft_errors\": \"seed=0,tag=1\"}", out));
}

TEST(FuzzTest, TryLoadReplayReportsStructuredErrors)
{
    auto missing = tryLoadReplay("/nonexistent/replay.json");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().kind, ErrorKind::Io);

    std::string path =
        std::string(::testing::TempDir()) + "corrupt_replay.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "this is not a replay file\n";
    }
    auto corrupt = tryLoadReplay(path);
    ASSERT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.error().kind, ErrorKind::Parse);
    EXPECT_EQ(corrupt.error().context, path);

    // Well-formed but unbuildable: refused before a machine exists.
    for (const char *json : {"{\"format\": 1, \"cpus\": 0}",
                             "{\"format\": 1, \"l1_block\": 24}",
                             "{\"format\": 1, \"frames\": 0}",
                             "{\"format\": 1, \"rlt_assoc\": 0}"}) {
        SCOPED_TRACE(json);
        {
            std::ofstream out(path, std::ios::trunc);
            out << json << "\n";
        }
        auto bad = tryLoadReplay(path);
        ASSERT_FALSE(bad.ok());
        EXPECT_EQ(bad.error().kind, ErrorKind::Bounds);
        EXPECT_EQ(bad.error().context, path);
    }
    std::remove(path.c_str());
}

TEST(FuzzTest, MutationSmokeDetectsPlantedBug)
{
    FuzzOptions opt = smallOptions();
    opt.kind = HierarchyKind::VirtualReal;
    opt.mutateInclusion = true;
    opt.sweepPeriod = 1;

    FuzzResult r = runFuzz(opt);
    EXPECT_FALSE(r.ok)
        << "the oracle must detect the dropped inclusion-bit update";
    EXPECT_FALSE(r.violation.empty());
    EXPECT_FALSE(r.ringJson.empty())
        << "a failure must carry the protocol event history";
    EXPECT_NE(r.ringJson.find("VIOLATION"), std::string::npos);
    EXPECT_LT(r.failingOp, opt.ops);
}

TEST(FuzzTest, MinimizeKeepsTheFailureReproducible)
{
    FuzzOptions failing = smallOptions();
    failing.kind = HierarchyKind::VirtualReal;
    failing.mutateInclusion = true;
    failing.sweepPeriod = 1;

    FuzzOptions small = minimizeFailure(failing);
    EXPECT_LE(small.ops, failing.ops);
    EXPECT_NE(small.opMask, 0u);
    FuzzResult r = runFuzz(small);
    EXPECT_FALSE(r.ok) << "the minimized options must still fail";
}

TEST(FuzzTest, MinimizeReturnsInputWhenRunIsClean)
{
    FuzzOptions clean = smallOptions();
    FuzzOptions out = minimizeFailure(clean);
    EXPECT_EQ(out.ops, clean.ops);
    EXPECT_EQ(out.opMask, clean.opMask);
}

} // namespace
} // namespace vrc
