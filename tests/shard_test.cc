/**
 * @file
 * Distributed sweep tests: stable cell ids, merge determinism and
 * conflict refusal, and an in-process coordinator driving in-process
 * --serve servers, proved byte-identical to the single-process
 * campaign -- including under an injected straggler -- plus a server
 * that fails every cell until the coordinator quarantines them all,
 * a server that sheds, servers that cannot be reached, and servers
 * that are all lost.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fault.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim/campaign.hh"
#include "sim/shard.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace vrc
{
namespace
{

TraceBundle
smallBundle()
{
    return generateTrace(scaled(profileByName("pops"), 0.002));
}

std::vector<SimJob>
smallGrid()
{
    // Distinct content per cell (the coordinator insists on it).
    return {
        {HierarchyKind::VirtualReal, 4096, 65536, false, 0,
         TimingMode::Analytic},
        {HierarchyKind::VirtualReal, 8192, 131072, false, 0,
         TimingMode::Analytic},
        {HierarchyKind::RealRealIncl, 4096, 65536, false, 0,
         TimingMode::Analytic},
        {HierarchyKind::RealRealIncl, 8192, 131072, true, 0,
         TimingMode::Analytic},
        {HierarchyKind::RealRealNoIncl, 4096, 65536, false, 0,
         TimingMode::Analytic},
        {HierarchyKind::RealRealNoIncl, 8192, 131072, false, 0,
         TimingMode::Cycle},
    };
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---- stable cell ids -------------------------------------------------

TEST(ShardCellIdTest, DerivedFromContentNotGridPosition)
{
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> grid = smallGrid();
    std::vector<std::uint64_t> ids;
    for (const SimJob &j : grid)
        ids.push_back(shardCellId(bundle, j));

    // Uniqueness over the grid.
    std::vector<std::uint64_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());

    // Growing or reordering the grid must not move existing ids:
    // the id depends only on the cell's own content.
    std::vector<SimJob> grown = grid;
    grown.insert(grown.begin(),
                 SimJob{HierarchyKind::VirtualReal, 16384, 262144,
                        false, 0, TimingMode::Analytic});
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(shardCellId(bundle, grown[i + 1]), ids[i]);

    // A different workload is a different id for the same job.
    TraceBundle other =
        generateTrace(scaled(profileByName("thor"), 0.002));
    EXPECT_NE(shardCellId(other, grid[0]), ids[0]);
}

// ---- merge determinism ------------------------------------------------

/** A complete journal for the small grid, plus its per-cell lines. */
struct BaselineJournal
{
    std::string header;
    std::vector<std::string> cellLines; ///< index order
    std::string canonical;              ///< full canonical bytes
};

BaselineJournal
makeBaseline()
{
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();
    CampaignOptions opt;
    opt.jobs = 2;
    Result<CampaignResult> run =
        runSimulationCampaign(bundle, jobs, opt);
    EXPECT_TRUE(run.ok());
    CampaignResult res = run.take();

    BaselineJournal b;
    std::ostringstream hdr;
    hdr << "vrc-campaign-checkpoint v1\nkey "
        << campaignKey(bundle, jobs) << " cells " << jobs.size()
        << "\n";
    b.header = hdr.str();
    b.canonical = b.header;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        b.cellLines.push_back(encodeSummaryLine(i, res.summaries[i]));
        b.canonical += b.cellLines[i] + "\n";
    }
    return b;
}

TEST(ShardMergeTest, ShuffledPartialsMergeByteIdentically)
{
    BaselineJournal base = makeBaseline();
    const std::size_t n = base.cellLines.size();

    // Three shards with interleaved (non-contiguous) cell ownership,
    // one byte-identical duplicate across shards, and a torn final
    // line on one partial (a worker killed mid-append).
    std::vector<std::string> parts(3, base.header);
    for (std::size_t i = 0; i < n; ++i)
        parts[i % 3] += base.cellLines[i] + "\n";
    parts[0] += base.cellLines[1] + "\n"; // duplicate of shard 1's cell
    parts[2] += base.cellLines[0].substr(
        0, base.cellLines[0].size() / 2); // torn tail, no newline

    // Every arrival order must merge to the same canonical bytes.
    std::vector<int> order = {0, 1, 2};
    std::mt19937 rng(7);
    for (int round = 0; round < 6; ++round) {
        std::shuffle(order.begin(), order.end(), rng);
        std::vector<std::pair<std::string, std::string>> inputs;
        for (int k : order)
            inputs.emplace_back("part" + std::to_string(k),
                                parts[k]);
        Result<ShardMerge> merged = mergeJournalTexts(inputs);
        ASSERT_TRUE(merged.ok()) << merged.error().describe();
        ShardMerge m = merged.take();
        EXPECT_EQ(canonicalJournalText(m.merged), base.canonical);
        EXPECT_TRUE(m.missing.empty());
        EXPECT_EQ(m.duplicates, 1u);
        EXPECT_EQ(m.torn, 1u);
    }
}

TEST(ShardMergeTest, ConflictingSummariesAreAHardErrorNamingBoth)
{
    BaselineJournal base = makeBaseline();
    std::string a = base.header + base.cellLines[0] + "\n";
    // Same cell, different bytes: flip a digit inside the last
    // hexfloat (staying clear of the trailing "end" sentinel, which
    // would make the line torn rather than divergent).
    std::string lied = base.cellLines[0];
    std::size_t digit =
        lied.find_last_of("0123456789", lied.size() - 5);
    lied[digit] = lied[digit] == '7' ? '8' : '7';
    std::string b = base.header + lied + "\n";

    Result<ShardMerge> merged =
        mergeJournalTexts({{"first.ckpt", a}, {"second.ckpt", b}});
    ASSERT_FALSE(merged.ok());
    EXPECT_TRUE(isConflictError(merged.error()));
    EXPECT_EQ(merged.error().context, "second.ckpt");
    EXPECT_EQ(merged.error().line, 3u);
    EXPECT_NE(merged.error().message.find("first.ckpt:3"),
              std::string::npos)
        << merged.error().describe();

    // Foreign campaign keys are refused outright.
    std::string foreign =
        "vrc-campaign-checkpoint v1\nkey ffff cells " +
        std::to_string(base.cellLines.size()) + "\n";
    Result<ShardMerge> crossed =
        mergeJournalTexts({{"a", a}, {"b", foreign}});
    ASSERT_FALSE(crossed.ok());
    EXPECT_EQ(crossed.error().kind, ErrorKind::Mismatch);
    EXPECT_FALSE(isConflictError(crossed.error()));
}

TEST(ShardMergeTest, IntraFileDivergentDuplicateRejectedAtLoad)
{
    BaselineJournal base = makeBaseline();
    std::string lied = base.cellLines[0];
    std::size_t digit =
        lied.find_last_of("0123456789", lied.size() - 5);
    lied[digit] = lied[digit] == '3' ? '4' : '3';
    std::string text = base.header + base.cellLines[0] + "\n" +
                       base.cellLines[1] + "\n" + lied + "\n";
    std::istringstream in(text);
    Result<JournalContents> loaded = tryLoadJournal(in, "dup.ckpt");
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(isConflictError(loaded.error()));
    EXPECT_EQ(loaded.error().line, 5u); // the disagreeing copy
    EXPECT_NE(loaded.error().message.find("line 3"),
              std::string::npos)
        << loaded.error().describe();
}

// ---- coordinator + servers end to end ---------------------------------

/** In-process --serve servers on ephemeral TCP ports. */
struct Servers
{
    std::vector<std::unique_ptr<ServeServer>> list;

    explicit Servers(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            ServeOptions so;
            so.tcpPort = 0;
            so.workers = 1;
            list.push_back(std::make_unique<ServeServer>(so));
            EXPECT_TRUE(list.back()->start().ok());
        }
    }

    std::vector<ServerAddress>
    addresses() const
    {
        std::vector<ServerAddress> out;
        for (const auto &s : list)
            out.push_back({"", s->tcpPort()});
        return out;
    }
};

struct E2eResult
{
    std::string json;
    std::string journal;
    ShardStats stats;
    int restored = 0;
};

E2eResult
runCoordinated(const ShardCoordinatorOptions &optIn, unsigned servers)
{
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();

    ShardCoordinatorOptions opt = optIn;
    opt.profileScale = 0.002;
    Servers pool(servers);
    ShardCoordinator coordinator(opt);
    Status connected = coordinator.connect(pool.addresses());
    EXPECT_TRUE(connected.ok()) << connected.error().describe();
    Result<CampaignResult> run = coordinator.run(bundle, jobs);

    E2eResult out;
    out.stats = coordinator.stats();
    EXPECT_TRUE(run.ok()) << run.error().describe();
    if (run.ok()) {
        CampaignResult res = run.take();
        out.restored = static_cast<int>(res.restored);
        EXPECT_FALSE(res.interrupted);
        EXPECT_TRUE(res.allOk());
        out.json = campaignResultToJson(res);
    }
    if (!opt.checkpoint.empty())
        out.journal = slurp(opt.checkpoint);
    return out;
}

TEST(ShardCoordinatorTest, TwoWorkersMatchSingleProcessByteForByte)
{
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();

    const std::string baseCkpt = "shard_e2e_base.ckpt";
    const std::string distCkpt = "shard_e2e_dist.ckpt";
    std::remove(baseCkpt.c_str());
    std::remove(distCkpt.c_str());

    CampaignOptions copt;
    copt.jobs = 2;
    copt.checkpoint = baseCkpt;
    Result<CampaignResult> baseline =
        runSimulationCampaign(bundle, jobs, copt);
    ASSERT_TRUE(baseline.ok());
    std::string baseJson = campaignResultToJson(baseline.value());

    ShardCoordinatorOptions so;
    so.checkpoint = distCkpt;
    so.maxRetries = 2;
    E2eResult dist = runCoordinated(so, 2);

    EXPECT_EQ(dist.json, baseJson);
    EXPECT_EQ(dist.journal, slurp(baseCkpt));
    EXPECT_EQ(dist.stats.serversConnected, 2u);
    EXPECT_EQ(dist.stats.cellResults, jobs.size());
    EXPECT_EQ(dist.stats.cellsDispatched, jobs.size());
}

TEST(ShardCoordinatorTest, ResumeRedispatchesOnlyMissingCells)
{
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();
    const std::string ckpt = "shard_resume.ckpt";
    std::remove(ckpt.c_str());

    // Full run to learn the finished journal, then truncate it to the
    // header + two cells -- exactly what a killed coordinator leaves.
    ShardCoordinatorOptions so;
    so.checkpoint = ckpt;
    so.maxRetries = 2;
    E2eResult full = runCoordinated(so, 2);
    std::string finished = full.journal;

    std::istringstream in(finished);
    std::string line, partial;
    for (int i = 0; i < 4 && std::getline(in, line); ++i)
        partial += line + "\n";
    {
        std::ofstream out(ckpt, std::ios::trunc);
        out << partial;
    }

    ShardCoordinatorOptions ro = so;
    ro.resume = true;
    E2eResult resumed = runCoordinated(ro, 2);
    EXPECT_EQ(resumed.restored, 2);
    EXPECT_EQ(resumed.stats.cellResults, jobs.size() - 2);
    EXPECT_EQ(resumed.journal, finished);
    EXPECT_EQ(resumed.json, full.json);

    // A journal from someone else's campaign must be refused.
    {
        std::ofstream out(ckpt, std::ios::trunc);
        out << "vrc-campaign-checkpoint v1\nkey f00d cells "
            << jobs.size() << "\n";
    }
    ShardCoordinator coordinator(ro);
    Result<CampaignResult> run = coordinator.run(bundle, jobs);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.error().kind, ErrorKind::Mismatch);
    EXPECT_FALSE(isConflictError(run.error()));
    std::remove(ckpt.c_str());
}

TEST(ShardCoordinatorTest, StragglerIsSpeculativelyRedispatched)
{
    // Arm a deterministic stall in the (in-process) servers: some
    // cell's first dispatch sleeps for longer than the coordinator's
    // deadline, so the watchdog must speculate that cell onto the
    // other server, where its second dispatch does not stall. First
    // make sure the seed does exactly that -- otherwise the test would
    // pass vacuously.
    ASSERT_TRUE(
        configureFaultInjection("seed=26,stall=0.35,stall_ms=1500").ok());
    bool rescued = false;
    for (std::size_t i = 0; i < smallGrid().size(); ++i)
        rescued = rescued ||
                  (faultDecision("cell-stall", cellSegmentId(i, 0), 0,
                                 0.35) &&
                   !faultDecision("cell-stall", cellSegmentId(i, 1), 0,
                                  0.35));
    ASSERT_TRUE(rescued) << "seed stalls no first dispatch alone; "
                            "pick another";

    const std::string ckpt = "shard_straggler.ckpt";
    std::remove(ckpt.c_str());
    ShardCoordinatorOptions so;
    so.checkpoint = ckpt;
    so.deadlineSeconds = 0.3; // well under the 1.5 s stall
    so.maxRetries = 10;
    E2eResult dist = runCoordinated(so, 2);
    disarmFaultInjection();

    EXPECT_GE(dist.stats.speculativeDispatches, 1u);
    EXPECT_EQ(dist.stats.cellResults, smallGrid().size());

    // And the answer is still exactly the single-process answer.
    TraceBundle bundle = smallBundle();
    CampaignOptions copt;
    copt.jobs = 2;
    Result<CampaignResult> baseline =
        runSimulationCampaign(bundle, smallGrid(), copt);
    ASSERT_TRUE(baseline.ok());
    EXPECT_EQ(dist.json, campaignResultToJson(baseline.value()));
    std::remove(ckpt.c_str());
}

TEST(ShardCoordinatorTest, CellQuarantinedAfterRetriesExhausted)
{
    // A server that fails every cell it is given (each simulator build
    // throws): each cell must be re-dispatched maxRetries times and
    // then quarantined with the same attempt count the in-process
    // sweep would report.
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();
    const std::string manifest = "shard_quarantine.manifest";
    std::remove(manifest.c_str());

    simulatorBuildHookForTest() = [] {
        throw std::runtime_error("no luck");
    };
    ShardCoordinatorOptions so;
    so.profileScale = 0.002;
    so.maxRetries = 2;
    so.backoffSeconds = 0.001;
    so.manifest = manifest;
    Result<CampaignResult> run = makeError(ErrorKind::Io, "not run");
    {
        Servers pool(1);
        ShardCoordinator coordinator(so);
        ASSERT_TRUE(coordinator.connect(pool.addresses()).ok());
        run = coordinator.run(bundle, jobs);
    }
    simulatorBuildHookForTest() = nullptr;

    ASSERT_TRUE(run.ok()) << run.error().describe();
    const CampaignResult &res = run.value();
    EXPECT_EQ(res.completedCells(), 0u);
    ASSERT_EQ(res.quarantined.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(res.quarantined[i].index, i);
        EXPECT_EQ(res.quarantined[i].attempts, so.maxRetries + 1);
        EXPECT_EQ(res.quarantined[i].error, "no luck");
    }
    std::string m = slurp(manifest);
    EXPECT_EQ(m, failureManifestToJson(res) + "\n");
    std::size_t entries = 0;
    for (std::size_t at = m.find("\"attempts\":3");
         at != std::string::npos; at = m.find("\"attempts\":3", at + 1))
        ++entries;
    EXPECT_EQ(entries, jobs.size());
    std::remove(manifest.c_str());
}

TEST(ShardCoordinatorTest, ShedCellsReturnToTheQueueAtNoCost)
{
    // The server's one worker is held in a simulator build and its one
    // queue slot is taken, so the coordinator's cells are SHED until
    // the hold is released. With no retries and a strike limit of one,
    // a SHED that cost a retry or a strike would quarantine a cell or
    // the server.
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();
    std::atomic<bool> held{false}, release{false};
    simulatorBuildHookForTest() = [&] {
        held = true;
        for (int i = 0; i < 60000 && !release.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    Result<CampaignResult> run = makeError(ErrorKind::Io, "not run");
    ServiceStats served;
    {
        ServeOptions so;
        so.tcpPort = 0;
        so.workers = 1;
        so.queueCap = 1;
        ServeServer server(so);
        ASSERT_TRUE(server.start().ok());

        // A second client fills the worker and the queue; its third
        // cell is shed, so the queue is full before the coordinator
        // dials.
        ServeClient hog;
        ASSERT_TRUE(hog.connectTcp(server.tcpPort()).ok());
        ASSERT_TRUE(hog.hello("hog").ok());
        SubmitRequest req;
        req.job = jobs[0];
        req.profileName = "pops";
        req.scale = 0.002;
        req.cell = true;
        req.segmentId = 1;
        ASSERT_TRUE(hog.submit(req).ok());
        for (int i = 0; i < 10000 && !held.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_TRUE(held.load());
        for (std::uint64_t seg : {2, 3}) {
            req.segmentId = seg;
            ASSERT_TRUE(hog.submit(req).ok());
        }
        Result<Frame> shed = hog.readFrame(10.0);
        ASSERT_TRUE(shed.ok()) << shed.error().describe();
        ASSERT_EQ(shed.value().type, FrameType::Shed);

        ShardCoordinatorOptions co;
        co.profileScale = 0.002;
        co.maxRetries = 0;
        co.workerStrikeLimit = 1;
        co.backoffSeconds = 0.01;
        ShardCoordinator coordinator(co);
        ASSERT_TRUE(
            coordinator.connect({{"", server.tcpPort()}}).ok());
        std::thread releaser([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            release = true;
        });
        run = coordinator.run(bundle, jobs);
        releaser.join();
        served = server.stats();
    }
    simulatorBuildHookForTest() = nullptr;

    ASSERT_TRUE(run.ok()) << run.error().describe();
    EXPECT_TRUE(run.value().allOk());
    EXPECT_EQ(run.value().completedCells(), jobs.size());
    EXPECT_GE(served.segmentsShed, 2u); // the hog's and the coordinator's
}

TEST(ShardCoordinatorTest, NoReachableServerIsAnErrorNamingEachAddress)
{
    ShardCoordinator coordinator(ShardCoordinatorOptions{});
    Status connected = coordinator.connect(
        {{"shard_no_such_server.sock"}, {"shard_nor_this.sock"}});
    ASSERT_FALSE(connected.ok());
    EXPECT_EQ(connected.error().kind, ErrorKind::Io);
    EXPECT_NE(connected.error().message.find(
                  "unix:shard_no_such_server.sock"),
              std::string::npos)
        << connected.error().message;
    EXPECT_NE(connected.error().message.find("unix:shard_nor_this.sock"),
              std::string::npos)
        << connected.error().message;
}

TEST(ShardCoordinatorTest, EveryServerLostQuarantinesTheUnsettledCells)
{
    // The one server tears every reply and closes the session: once it
    // is lost, no live server is left, so every unsettled cell is
    // quarantined instead of waiting forever.
    TraceBundle bundle = smallBundle();
    std::vector<SimJob> jobs = smallGrid();
    ASSERT_TRUE(configureFaultInjection("seed=3,tear=1.0").ok());
    ShardCoordinatorOptions so;
    so.profileScale = 0.002;
    so.maxRetries = 10;
    Result<CampaignResult> run = makeError(ErrorKind::Io, "not run");
    ShardStats stats;
    {
        Servers pool(1);
        ShardCoordinator coordinator(so);
        ASSERT_TRUE(coordinator.connect(pool.addresses()).ok());
        run = coordinator.run(bundle, jobs);
        stats = coordinator.stats();
    }
    disarmFaultInjection();

    ASSERT_TRUE(run.ok()) << run.error().describe();
    const CampaignResult &res = run.value();
    EXPECT_EQ(stats.serversLost, 1u);
    EXPECT_EQ(res.completedCells(), 0u);
    ASSERT_EQ(res.quarantined.size(), jobs.size());
    for (const CellFailure &f : res.quarantined)
        EXPECT_EQ(f.error, "no live server");
}

} // namespace
} // namespace vrc
