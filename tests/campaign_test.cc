/**
 * @file
 * CampaignRunner tests: journal round-trip, kill/resume equivalence,
 * key mismatch rejection, retry, quarantine (at once for a machine
 * check), and the watchdog over a real replay; and the CellLedger both
 * campaign drivers keep their books in.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.hh"
#include "base/fault.hh"
#include "sim/campaign.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace vrc
{
namespace
{

/** Deterministic, index-dependent summary for synthetic cells. */
SimSummary
cellSummary(std::size_t i)
{
    SimSummary s;
    s.kind = static_cast<HierarchyKind>(i % 3);
    s.l1Size = static_cast<std::uint32_t>(4096 << (i % 3));
    s.l2Size = s.l1Size * 16;
    s.split = (i % 2) != 0;
    s.h1 = 1.0 / static_cast<double>(i + 3); // not exactly
                                             // representable
    s.h2 = 2.0 / 7.0;
    s.h1Instr = 0.5;
    s.h1Read = 1.0 / 3.0;
    s.h1Write = 0.0;
    for (std::size_t c = 0; c < i % 4; ++c)
        s.l1MsgsPerCpu.push_back(1000 * i + c);
    s.inclusionInvalidations = i;
    s.synonymHits = 2 * i;
    s.busTransactions = 123456789 + i;
    s.refs = 1'000'000 + i;
    return s;
}

/** RAII temp file path. */
struct TempPath
{
    std::string path;

    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }

    ~TempPath() { std::remove(path.c_str()); }
};

TEST(CampaignJournalTest, SummaryLineRoundTripsExactly)
{
    for (std::size_t i = 0; i < 8; ++i) {
        SimSummary s = cellSummary(i);
        auto r = decodeSummaryLine(encodeSummaryLine(i, s));
        ASSERT_TRUE(r.ok()) << r.error().describe();
        auto [idx, back] = r.take();
        EXPECT_EQ(idx, i);
        EXPECT_EQ(back.kind, s.kind);
        EXPECT_EQ(back.l1Size, s.l1Size);
        EXPECT_EQ(back.l2Size, s.l2Size);
        EXPECT_EQ(back.split, s.split);
        // Bit-exact, not approximately equal: resume must reproduce
        // the uninterrupted table byte for byte.
        EXPECT_EQ(back.h1, s.h1);
        EXPECT_EQ(back.h2, s.h2);
        EXPECT_EQ(back.h1Read, s.h1Read);
        EXPECT_EQ(back.l1MsgsPerCpu, s.l1MsgsPerCpu);
        EXPECT_EQ(back.busTransactions, s.busTransactions);
        EXPECT_EQ(back.refs, s.refs);
    }
}

TEST(CampaignJournalTest, MalformedLinesRejected)
{
    EXPECT_FALSE(decodeSummaryLine("").ok());
    EXPECT_FALSE(decodeSummaryLine("cell 0").ok());
    EXPECT_FALSE(decodeSummaryLine("nonsense").ok());
    // A torn line: the terminator is missing.
    std::string line = encodeSummaryLine(3, cellSummary(3));
    EXPECT_FALSE(
        decodeSummaryLine(line.substr(0, line.size() - 4)).ok());
}

TEST(CampaignRunnerTest, RunsAllCellsWithoutCheckpoint)
{
    CampaignRunner runner{CampaignOptions{}};
    auto r = runner.run(5, "k", [](std::size_t i, const CancelToken &) {
        return cellSummary(i);
    });
    ASSERT_TRUE(r.ok());
    CampaignResult res = r.take();
    EXPECT_TRUE(res.allOk());
    EXPECT_EQ(res.completedCells(), 5u);
    EXPECT_EQ(res.restored, 0u);
    EXPECT_EQ(res.summaries[4].refs, cellSummary(4).refs);
}

TEST(CampaignRunnerTest, ResumeSkipsJournaledCellsAndMatches)
{
    TempPath ck("campaign_resume.ckpt");
    const std::size_t n = 6;

    CampaignOptions full_opt;
    full_opt.checkpoint = ck.path;
    full_opt.jobs = 2;
    auto full = CampaignRunner{full_opt}.run(
        n, "key1",
        [](std::size_t i, const CancelToken &) {
            return cellSummary(i);
        });
    ASSERT_TRUE(full.ok());
    std::string full_json = campaignResultToJson(full.value());

    // Simulate a SIGKILL after three completed cells plus a torn
    // partial line from a write in flight.
    std::ifstream in(ck.path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    in.close();
    ASSERT_EQ(lines.size(), 2 + n);
    std::ofstream out(ck.path, std::ios::trunc);
    for (std::size_t i = 0; i < 5; ++i)
        out << lines[i] << "\n";
    out << lines[5].substr(0, lines[5].size() / 2); // torn, no "\n"
    out.close();

    std::atomic<unsigned> ran{0};
    CampaignOptions res_opt;
    res_opt.checkpoint = ck.path;
    res_opt.resume = true;
    res_opt.jobs = 3; // different worker count on purpose
    auto resumed = CampaignRunner{res_opt}.run(
        n, "key1",
        [&](std::size_t i, const CancelToken &) {
            ++ran;
            return cellSummary(i);
        });
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.value().restored, 3u);
    EXPECT_EQ(ran.load(), n - 3);
    EXPECT_EQ(campaignResultToJson(resumed.value()), full_json);
}

TEST(CampaignRunnerTest, ResumeRejectsForeignCheckpoint)
{
    TempPath ck("campaign_foreign.ckpt");
    CampaignOptions opt;
    opt.checkpoint = ck.path;
    auto fn = [](std::size_t i, const CancelToken &) {
        return cellSummary(i);
    };
    ASSERT_TRUE(CampaignRunner{opt}.run(3, "keyA", fn).ok());

    opt.resume = true;
    auto other_key = CampaignRunner{opt}.run(3, "keyB", fn);
    ASSERT_FALSE(other_key.ok());
    EXPECT_EQ(other_key.error().kind, ErrorKind::Mismatch);

    auto other_n = CampaignRunner{opt}.run(4, "keyA", fn);
    ASSERT_FALSE(other_n.ok());
    EXPECT_EQ(other_n.error().kind, ErrorKind::Mismatch);
}

TEST(CampaignRunnerTest, ResumeWithMissingJournalStartsFresh)
{
    TempPath ck("campaign_fresh.ckpt");
    CampaignOptions opt;
    opt.checkpoint = ck.path;
    opt.resume = true;
    auto r = CampaignRunner{opt}.run(
        2, "k", [](std::size_t i, const CancelToken &) {
            return cellSummary(i);
        });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().restored, 0u);
    EXPECT_EQ(r.value().completedCells(), 2u);
}

TEST(CampaignRunnerTest, RetryRecoversTransientFailures)
{
    // Every cell fails on its first attempt only.
    std::vector<std::atomic<unsigned>> attempts(4);
    CampaignOptions opt;
    opt.maxRetries = 2;
    opt.backoffSeconds = 0.001;
    auto r = CampaignRunner{opt}.run(
        4, "k", [&](std::size_t i, const CancelToken &) {
            if (attempts[i]++ == 0)
                throw ErrorException(makeError(
                    ErrorKind::Worker, "transient failure"));
            return cellSummary(i);
        });
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().allOk());
    for (auto &a : attempts)
        EXPECT_EQ(a.load(), 2u);
}

TEST(CampaignRunnerTest, PersistentFailureIsQuarantined)
{
    TempPath mf("campaign_quarantine.manifest");
    CampaignOptions opt;
    opt.maxRetries = 1;
    opt.backoffSeconds = 0.001;
    opt.manifest = mf.path;
    auto r = CampaignRunner{opt}.run(
        5, "k", [](std::size_t i, const CancelToken &) {
            if (i == 2)
                throw ErrorException(
                    makeError(ErrorKind::Parse, "cell 2 is cursed"));
            return cellSummary(i);
        });
    ASSERT_TRUE(r.ok());
    CampaignResult res = r.take();
    EXPECT_FALSE(res.allOk());
    EXPECT_EQ(res.completedCells(), 4u); // healthy cells all finish
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].index, 2u);
    EXPECT_EQ(res.quarantined[0].attempts, 2u);
    EXPECT_EQ(res.quarantined[0].kind, ErrorKind::Parse);
    EXPECT_FALSE(res.quarantined[0].timedOut);

    std::ifstream in(mf.path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"cell\":2"), std::string::npos);
    EXPECT_NE(ss.str().find("cell 2 is cursed"), std::string::npos);
}

TEST(CampaignRunnerTest, WatchdogQuarantinesStalledCell)
{
    CampaignOptions opt;
    opt.deadlineSeconds = 0.1;
    auto r = CampaignRunner{opt}.run(
        3, "k", [](std::size_t i, const CancelToken &token) {
            if (i == 1) {
                // A stalled cell: sleeps forever unless cancelled,
                // then unwinds like the simulation loop does.
                while (token.sleepFor(5.0)) {
                }
                throw ErrorException(makeError(ErrorKind::Cancelled,
                                               "cancelled"));
            }
            return cellSummary(i);
        });
    ASSERT_TRUE(r.ok());
    CampaignResult res = r.take();
    EXPECT_EQ(res.completedCells(), 2u);
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].index, 1u);
    EXPECT_TRUE(res.quarantined[0].timedOut);
    EXPECT_EQ(res.quarantined[0].kind, ErrorKind::Timeout);
}

/** The manifest file's text. */
std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(CampaignRunnerTest, WatchdogStopsARealReplay)
{
    // A real replay of ~650k references, far longer than its 5 ms
    // deadline: the replay loop polls the token and unwinds.
    static const TraceBundle bundle =
        generateTrace(scaled(profileByName("pops"), 0.2));
    TempPath mf("campaign_watchdog.manifest");
    CampaignOptions opt;
    opt.deadlineSeconds = 0.005;
    opt.manifest = mf.path;
    auto r = CampaignRunner{opt}.run(
        3, "k", [](std::size_t i, const CancelToken &token) {
            if (i == 1)
                return runSimulationCancellable(
                    bundle, SimJob{HierarchyKind::VirtualReal, 4096, 65536},
                    token);
            return cellSummary(i);
        });
    ASSERT_TRUE(r.ok());
    CampaignResult res = r.take();
    EXPECT_EQ(res.completedCells(), 2u);
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].index, 1u);
    EXPECT_TRUE(res.quarantined[0].timedOut);
    EXPECT_EQ(res.quarantined[0].kind, ErrorKind::Timeout);
    EXPECT_EQ(res.quarantined[0].error,
              "watchdog: deadline of 0.005 s exceeded");
    std::string manifest = readAll(mf.path);
    EXPECT_NE(manifest.find("\"timed_out\":true,\"kind\":\"timeout\""),
              std::string::npos)
        << manifest;
}

TEST(CampaignRunnerTest, MachineCheckIsQuarantinedAtFirstFailure)
{
    // Every bus transaction is lost, so cell 1's first broadcast
    // exhausts the retry budget: a machine check that a retry of the
    // same machine would replay exactly.
    static const TraceBundle bundle =
        generateTrace(scaled(profileByName("pops"), 0.002));
    const SimJob job{HierarchyKind::VirtualReal, 4096, 65536};
    MachineConfig mc = jobMachineConfig(job, bundle.profile.pageSize);
    mc.hierarchy.softErrors = parseSoftErrors("seed=13,bus=1.0").take();
    TempPath mf("campaign_machine_check.manifest");
    CampaignOptions opt;
    opt.maxRetries = 2;
    opt.backoffSeconds = 0.001;
    opt.manifest = mf.path;
    auto r = CampaignRunner{opt}.run(
        3, "k", [&](std::size_t i, const CancelToken &token) {
            if (i != 1)
                return cellSummary(i);
            MpSimulator sim(mc, bundle.profile);
            replayCancellable(sim, bundle.records, token);
            return summarizeSimulation(sim, job);
        });
    ASSERT_TRUE(r.ok());
    CampaignResult res = r.take();
    EXPECT_EQ(res.completedCells(), 2u);
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].index, 1u);
    EXPECT_EQ(res.quarantined[0].attempts, 1u);
    EXPECT_EQ(res.quarantined[0].kind, ErrorKind::Unrecoverable);
    std::string manifest = readAll(mf.path);
    EXPECT_NE(manifest.find("\"attempts\":1,\"timed_out\":false,"
                            "\"kind\":\"unrecoverable\""),
              std::string::npos)
        << manifest;
}

TEST(CampaignRunnerTest, ResultJsonIndependentOfRestoredCount)
{
    CampaignResult a, b;
    a.summaries = {cellSummary(0)};
    a.completed = {true};
    b = a;
    b.restored = 1;
    EXPECT_EQ(campaignResultToJson(a), campaignResultToJson(b));
}

TEST(CampaignRunnerTest, CompletedJournalIsCanonicalIndexOrder)
{
    // A finished run must leave the journal in canonical form --
    // header plus cell lines in INDEX order -- regardless of the
    // completion order the worker pool happened to produce, so
    // distributed and single-process journals are byte-comparable.
    TempPath ck("campaign_canonical.ckpt");
    const std::size_t n = 6;
    CampaignOptions opt;
    opt.checkpoint = ck.path;
    opt.jobs = 3; // racy completion order on purpose
    auto run = CampaignRunner{opt}.run(
        n, "key1", [](std::size_t i, const CancelToken &) {
            return cellSummary(i);
        });
    ASSERT_TRUE(run.ok());

    std::string expect = "vrc-campaign-checkpoint v1\nkey key1 cells " +
                         std::to_string(n) + "\n";
    for (std::size_t i = 0; i < n; ++i)
        expect += encodeSummaryLine(i, cellSummary(i)) + "\n";
    std::ifstream in(ck.path, std::ios::binary);
    std::ostringstream got;
    got << in.rdbuf();
    EXPECT_EQ(got.str(), expect);
}

TEST(CampaignRunnerTest, ResumeRejectsDivergentDuplicateCellLines)
{
    // Two copies of one cell that DISAGREE mean somebody computed a
    // wrong answer; resume must refuse the journal outright (with
    // both line numbers), never silently keep the last writer.
    TempPath ck("campaign_dup.ckpt");
    const std::size_t n = 3;
    std::string good = encodeSummaryLine(0, cellSummary(0));
    // Flip a digit inside the last hexfloat, clear of the trailing
    // "end" sentinel (breaking that would make the line torn, not
    // divergent).
    std::string lied = good;
    std::size_t digit =
        lied.find_last_of("0123456789", lied.size() - 5);
    lied[digit] = lied[digit] == '5' ? '6' : '5';
    {
        std::ofstream out(ck.path, std::ios::trunc);
        out << "vrc-campaign-checkpoint v1\nkey key1 cells " << n
            << "\n"
            << good << "\n"
            << encodeSummaryLine(1, cellSummary(1)) << "\n"
            << lied << "\n";
    }
    CampaignOptions opt;
    opt.checkpoint = ck.path;
    opt.resume = true;
    auto run = CampaignRunner{opt}.run(
        n, "key1", [](std::size_t i, const CancelToken &) {
            return cellSummary(i);
        });
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().kind, ErrorKind::Mismatch);
    EXPECT_EQ(run.error().line, 5u);
    EXPECT_NE(run.error().message.find("conflicting summaries"),
              std::string::npos)
        << run.error().describe();
    EXPECT_NE(run.error().message.find("line 3"), std::string::npos);

    // Byte-identical duplicates stay benign: the same journal with
    // the honest line twice resumes fine.
    {
        std::ofstream out(ck.path, std::ios::trunc);
        out << "vrc-campaign-checkpoint v1\nkey key1 cells " << n
            << "\n"
            << good << "\n"
            << good << "\n";
    }
    auto ok = CampaignRunner{opt}.run(
        n, "key1", [](std::size_t i, const CancelToken &) {
            return cellSummary(i);
        });
    ASSERT_TRUE(ok.ok()) << ok.error().describe();
    EXPECT_EQ(ok.value().restored, 1u);
}

// ---- the cell ledger shared by the sweep and the coordinator --------

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(CampaignLedgerTest, BackoffDoublesFromBaseAndStopsAtCap)
{
    CellLedgerOptions opt;
    opt.maxRetries = 10;
    opt.backoffSeconds = 0.1;
    opt.backoffCapSeconds = 0.5;
    CellLedger ledger(opt, "k", 1);
    ASSERT_TRUE(ledger.open().ok());
    std::vector<double> waits;
    for (int i = 0; i < 5; ++i) {
        std::optional<double> w =
            ledger.fail(0, ErrorKind::Worker, "boom");
        ASSERT_TRUE(w.has_value());
        waits.push_back(*w);
    }
    EXPECT_EQ(waits, (std::vector<double>{0.1, 0.2, 0.4, 0.5, 0.5}));
}

TEST(CampaignLedgerTest, QuarantinedAfterMaxRetriesPlusOneFailures)
{
    CellLedgerOptions opt;
    opt.maxRetries = 2;
    CellLedger ledger(opt, "k", 2);
    ASSERT_TRUE(ledger.open().ok());
    for (int i = 1; i <= 2; ++i) {
        EXPECT_TRUE(ledger
                        .fail(0, ErrorKind::Worker,
                              "failure " + std::to_string(i))
                        .has_value());
        EXPECT_FALSE(ledger.quarantined(0)) << "after failure " << i;
    }
    EXPECT_FALSE(
        ledger.fail(0, ErrorKind::Timeout, "failure 3").has_value());
    EXPECT_TRUE(ledger.quarantined(0));
    EXPECT_TRUE(ledger.settled(0));
    // A settled cell's later failures are not counted.
    EXPECT_FALSE(
        ledger.fail(0, ErrorKind::Worker, "failure 4").has_value());

    CampaignResult res = ledger.finish(false);
    ASSERT_EQ(res.quarantined.size(), 1u);
    const CellFailure &f = res.quarantined[0];
    EXPECT_EQ(f.index, 0u);
    EXPECT_EQ(f.attempts, opt.maxRetries + 1);
    EXPECT_TRUE(f.timedOut);
    EXPECT_EQ(f.kind, ErrorKind::Timeout);
    EXPECT_EQ(f.error, "failure 3");
    EXPECT_FALSE(res.completed[0]);
    EXPECT_FALSE(res.completed[1]);
}

TEST(CampaignLedgerTest, LateResultCompletesAFailedCell)
{
    CellLedgerOptions opt;
    CellLedger ledger(opt, "k", 2);
    ASSERT_TRUE(ledger.open().ok());
    // maxRetries = 0: the first failure quarantines both cells.
    EXPECT_FALSE(
        ledger.fail(0, ErrorKind::Worker, "lost").has_value());
    EXPECT_FALSE(
        ledger.fail(1, ErrorKind::Worker, "lost").has_value());
    ASSERT_TRUE(ledger.quarantined(1));

    // The straggler's copy lands after all.
    std::string line = encodeSummaryLine(1, cellSummary(1));
    ledger.complete(1, cellSummary(1), line);
    EXPECT_TRUE(ledger.completed(1));
    EXPECT_FALSE(ledger.quarantined(1));
    EXPECT_EQ(ledger.line(1), line);

    CampaignResult res = ledger.finish(false);
    EXPECT_TRUE(res.completed[1]);
    EXPECT_EQ(res.summaries[1].refs, cellSummary(1).refs);
    ASSERT_EQ(res.quarantined.size(), 1u);
    EXPECT_EQ(res.quarantined[0].index, 0u);
}

TEST(CampaignLedgerTest, TornAppendOrderedJournalResumesToCanonicalBytes)
{
    TempPath ck("ledger_torn.ckpt");
    const std::size_t n = 4;
    std::string torn = encodeSummaryLine(1, cellSummary(1));
    {
        // Completion order 2, 0, then a kill halfway through cell 1.
        std::ofstream out(ck.path, std::ios::trunc);
        out << "vrc-campaign-checkpoint v1\nkey key1 cells " << n
            << "\n"
            << encodeSummaryLine(2, cellSummary(2)) << "\n"
            << encodeSummaryLine(0, cellSummary(0)) << "\n"
            << torn.substr(0, torn.size() / 2);
    }
    CellLedgerOptions opt;
    opt.checkpoint = ck.path;
    opt.resume = true;
    CellLedger ledger(opt, "key1", n);
    ASSERT_TRUE(ledger.open().ok());
    EXPECT_TRUE(ledger.completed(0));
    EXPECT_FALSE(ledger.completed(1));
    EXPECT_TRUE(ledger.completed(2));
    for (std::size_t i : {3u, 1u})
        ledger.complete(i, cellSummary(i),
                        encodeSummaryLine(i, cellSummary(i)));
    CampaignResult res = ledger.finish(false);
    EXPECT_EQ(res.restored, 2u);
    EXPECT_EQ(res.completedCells(), n);

    std::string expect = "vrc-campaign-checkpoint v1\nkey key1 cells " +
                         std::to_string(n) + "\n";
    for (std::size_t i = 0; i < n; ++i)
        expect += encodeSummaryLine(i, cellSummary(i)) + "\n";
    EXPECT_EQ(slurp(ck.path), expect);
}

} // namespace
} // namespace vrc
