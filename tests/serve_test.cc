/**
 * @file
 * ServeServer tests: an in-process server on a unix socket in the
 * test temp dir, driven through the real ServeClient. Covers batch
 * byte-equality, session poisoning isolation, backpressure shedding,
 * per-segment deadlines, a client gone mid-segment, the workers' spare
 * simulators, graceful drain, and client quarantine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <new>
#include <string>
#include <thread>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

namespace vrc
{
namespace
{

/** RAII socket path in the test temp dir. */
struct TempSock
{
    std::string path;

    explicit TempSock(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }

    ~TempSock() { std::remove(path.c_str()); }
};

/** Small shared workload for every test in this file. */
const TraceBundle &
bundle()
{
    static TraceBundle b =
        generateTrace(scaled(profileByName("pops"), 0.002));
    return b;
}

SimJob
job()
{
    return SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024,
                  false, 0, TimingMode::Analytic};
}

SubmitRequest
submitFor(std::uint64_t seg, std::size_t lo, std::size_t hi)
{
    SubmitRequest req;
    req.segmentId = seg;
    req.job = job();
    req.profileName = "pops";
    req.scale = 0.002;
    req.records.assign(bundle().records.begin() + lo,
                       bundle().records.begin() + hi);
    return req;
}

/** Forty copies of the trace: replays for milliseconds, not µs. */
SubmitRequest
longSubmit(std::uint64_t seg)
{
    SubmitRequest req = submitFor(seg, 0, 0);
    for (int i = 0; i < 40; ++i)
        req.records.insert(req.records.end(), bundle().records.begin(),
                           bundle().records.end());
    return req;
}

/** Connect + HELLO or fail the test. */
void
attach(ServeClient &c, const std::string &sock,
       const std::string &name)
{
    Status conn = c.connectUnix(sock);
    ASSERT_TRUE(conn.ok()) << conn.error().describe();
    Status hi = c.hello(name);
    ASSERT_TRUE(hi.ok()) << hi.error().describe();
}

/**
 * Installs a simulator build hook for one test. Declare it before the
 * server, so it is cleared only after every worker has been joined.
 */
struct ConstructHook
{
    explicit ConstructHook(std::function<void()> hook)
    {
        simulatorBuildHookForTest() = std::move(hook);
    }

    ~ConstructHook() { simulatorBuildHookForTest() = nullptr; }
};

TEST(ServeTest, ResultIsByteIdenticalToBatchMode)
{
    TempSock sock("serve_eq.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 2;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "eq-client");
    std::size_t n = bundle().records.size();
    ASSERT_TRUE(c.submit(submitFor(7, 0, n / 2)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Result);
    auto r = decodeResult(fr.value().payload);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().segmentId, 7u);

    // Ground truth: the batch code path on the same records.
    TraceBundle seg;
    seg.profile = bundle().profile;
    seg.records.assign(bundle().records.begin(),
                       bundle().records.begin() + n / 2);
    std::string expected =
        encodeSummaryLine(0, runSimulationJob(seg, job()));
    EXPECT_EQ(r.value().summaryLine, expected);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.segmentsCompleted, 1u);
    EXPECT_EQ(st.segmentsFailed, 0u);
}

TEST(ServeTest, MalformedFramePoisonsOnlyThatSession)
{
    TempSock sock("serve_poison.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient good, evil;
    attach(good, sock.path, "good");
    attach(evil, sock.path, "evil");

    // The hostile session gets an error frame and the boot.
    ASSERT_TRUE(evil.send("not a frame at all............").ok());
    auto err = evil.readFrame(10.0);
    ASSERT_TRUE(err.ok()) << err.error().describe();
    EXPECT_EQ(err.value().type, FrameType::Error);
    auto eof = evil.readFrame(10.0);
    EXPECT_FALSE(eof.ok()); // connection cut

    // The healthy session keeps working, completely unaffected.
    ASSERT_TRUE(good.submit(submitFor(1, 0, 512)).ok());
    auto fr = good.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 1u);
}

TEST(ServeTest, WellFormedBadContentKeepsSessionAlive)
{
    TempSock sock("serve_badreq.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "picky");
    SubmitRequest bad = submitFor(5, 0, 64);
    bad.profileName = "nosuchprofile";
    ASSERT_TRUE(c.submit(bad).ok());
    auto err = c.readFrame(10.0);
    ASSERT_TRUE(err.ok()) << err.error().describe();
    ASSERT_EQ(err.value().type, FrameType::Error);
    auto e = decodeErrorReply(err.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().segmentId, 5u);
    EXPECT_EQ(e.value().kind, ErrorKind::Bounds);

    // Same connection, valid request: still served.
    ASSERT_TRUE(c.submit(submitFor(6, 0, 256)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 0u);
}

TEST(ServeTest, BadCacheSizeIsRefusedAndSessionSurvives)
{
    TempSock sock("serve_badsize.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "oversized");
    // Not a power of two, zero, smaller than a page, and a power of
    // two over the cap: the first three would have reached a panic in
    // the hierarchy's constructors and taken the server down.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> bad = {
        {3000, 256 * 1024}, {16 * 1024, 0}, {256, 1024},
        {16 * 1024, kMaxCacheBytes * 2}};
    std::uint64_t seg = 1;
    for (auto [l1, l2] : bad) {
        SubmitRequest req = submitFor(seg, 0, 64);
        req.job.l1Size = l1;
        req.job.l2Size = l2;
        ASSERT_TRUE(c.submit(req).ok());
        auto err = c.readFrame(10.0);
        ASSERT_TRUE(err.ok()) << err.error().describe();
        ASSERT_EQ(err.value().type, FrameType::Error);
        auto e = decodeErrorReply(err.value().payload);
        ASSERT_TRUE(e.ok());
        EXPECT_EQ(e.value().segmentId, seg);
        EXPECT_EQ(e.value().kind, ErrorKind::Bounds);
        ++seg;
    }

    // Same connection, valid request: still served.
    ASSERT_TRUE(c.submit(submitFor(seg, 0, 256)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 0u);
}

TEST(ServeTest, PerClientCapShedsExcessSubmits)
{
    // Segment 1 is held in its simulator build until the client has
    // read the SHED for segment 2, so segment 1 is still in flight when
    // segment 2 is admitted, however fast the replay would have been.
    std::atomic<bool> shed_read{false};
    ConstructHook hook([&shed_read] {
        for (int i = 0; i < 60000 && !shed_read.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });

    TempSock sock("serve_shed.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    opt.perClientCap = 1;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "greedy");
    // Two submits back to back: the first is admitted; the second
    // arrives while the first still runs and must be SHED.
    ASSERT_TRUE(c.submit(longSubmit(1)).ok());
    ASSERT_TRUE(c.submit(submitFor(2, 0, 64)).ok());

    bool saw_shed = false, saw_result = false;
    for (int i = 0; i < 2; ++i) {
        auto fr = c.readFrame(60.0);
        ASSERT_TRUE(fr.ok()) << fr.error().describe();
        if (fr.value().type == FrameType::Shed) {
            saw_shed = true;
            shed_read = true;
        } else if (fr.value().type == FrameType::Result) {
            saw_result = true;
        }
    }
    EXPECT_TRUE(saw_shed);
    EXPECT_TRUE(saw_result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().segmentsShed, 1u);
}

TEST(ServeTest, SegmentDeadlineTimesOut)
{
    TempSock sock("serve_deadline.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.segmentDeadline = 1e-9; // everything is too slow
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "slow-segment");
    ASSERT_TRUE(c.submit(submitFor(1, 0, 4096)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Error);
    auto e = decodeErrorReply(fr.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().kind, ErrorKind::Timeout);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().segmentsTimedOut, 1u);
}

TEST(ServeTest, ClientGoneMidSegmentIsAbandoned)
{
    TempSock sock("serve_abandon.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    // ~1.3M records replay for far longer than the server takes to
    // see the EOF, so the segment is cut short, never answered.
    SubmitRequest req = submitFor(1, 0, 0);
    for (int i = 0; i < 200; ++i)
        req.records.insert(req.records.end(), bundle().records.begin(),
                           bundle().records.end());
    ServeClient c;
    attach(c, sock.path, "gone-client");
    ASSERT_TRUE(c.submit(req).ok());
    c.close();

    // The worker abandons the segment, whether it sees the close
    // before or during the replay. Drain only once it has settled: a
    // drain that beat the admission would refuse the segment instead.
    auto settled = [&server] {
        ServiceStats st = server.stats();
        return st.segmentsAbandoned + st.segmentsCompleted +
               st.segmentsFailed;
    };
    for (int i = 0; i < 6000 && settled() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.segmentsAbandoned, 1u);
    EXPECT_EQ(st.segmentsCompleted, 0u);
    EXPECT_EQ(st.segmentsFailed, 0u);
}

TEST(ServeTest, FailedSegmentsKeepThePoolStocked)
{
    TempSock sock("serve_pool.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    opt.segmentDeadline = 0.002;
    opt.maxRetries = 0;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "pool-client");
    // The long segments replay for far longer than 2 ms.
    for (std::uint64_t seg = 1; seg <= 9; ++seg) {
        SubmitRequest req =
            seg <= 3 ? longSubmit(seg) : submitFor(seg, 0, 64);
        ASSERT_TRUE(c.submit(req).ok());
        auto fr = c.readFrame(60.0);
        ASSERT_TRUE(fr.ok()) << fr.error().describe();
        if (seg <= 3) {
            ASSERT_EQ(fr.value().type, FrameType::Error);
            auto e = decodeErrorReply(fr.value().payload);
            ASSERT_TRUE(e.ok());
            EXPECT_EQ(e.value().kind, ErrorKind::Timeout);
        }
    }

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    // One worker builds its spare after every segment, timed out or
    // not, so only the very first segment constructs inline.
    ServiceStats st = server.stats();
    EXPECT_EQ(st.poolMisses, 1u);
    EXPECT_EQ(st.poolHits, 8u);
    EXPECT_GE(st.segmentsTimedOut, 3u);
    EXPECT_EQ(st.segmentsTimedOut + st.segmentsCompleted, 9u);
}

TEST(ServeTest, ClosedLoopClientAtCapIsNeverShed)
{
    TempSock sock("serve_closed_loop.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    opt.perClientCap = 1;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "closed-loop");
    // The slot is free before the reply is written, so a resubmit
    // right after each RESULT is always admitted.
    for (std::uint64_t seg = 1; seg <= 20; ++seg) {
        ASSERT_TRUE(c.submit(submitFor(seg, 0, 512)).ok());
        auto fr = c.readFrame(60.0);
        ASSERT_TRUE(fr.ok()) << fr.error().describe();
        ASSERT_EQ(fr.value().type, FrameType::Result) << "round " << seg;
    }

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.segmentsCompleted, 20u);
    EXPECT_EQ(st.segmentsShed, 0u);
}

TEST(ServeTest, FailedSimulatorBuildsDoNotStopTheServer)
{
    // Builds 1 and 3 throw as an out-of-memory construction would.
    // Build 1 is segment 1's inline build, build 3 the spare after
    // segment 2's reply.
    unsigned builds = 0;
    ConstructHook hook([&builds] {
        ++builds;
        if (builds == 1 || builds == 3)
            throw std::bad_alloc();
    });

    TempSock sock("serve_build_fail.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    opt.maxRetries = 0;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "build-fail");
    for (std::uint64_t seg = 1; seg <= 4; ++seg) {
        ASSERT_TRUE(c.submit(submitFor(seg, 0, 256)).ok());
        auto fr = c.readFrame(60.0);
        ASSERT_TRUE(fr.ok()) << fr.error().describe();
        if (seg == 1) {
            ASSERT_EQ(fr.value().type, FrameType::Error);
            auto e = decodeErrorReply(fr.value().payload);
            ASSERT_TRUE(e.ok());
            EXPECT_EQ(e.value().kind, ErrorKind::Worker);
        } else {
            ASSERT_EQ(fr.value().type, FrameType::Result)
                << "segment " << seg;
        }
    }

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    // Segment 1 took no simulator, so no spare was built for it;
    // segment 2's spare failed, so segment 3 built inline; its spare
    // served segment 4.
    ServiceStats st = server.stats();
    EXPECT_EQ(st.poolMisses, 3u);
    EXPECT_EQ(st.poolHits, 1u);
    EXPECT_EQ(st.segmentsFailed, 1u);
    EXPECT_EQ(st.segmentsCompleted, 3u);
}

TEST(ServeTest, KeySwitchBuildsInlineAndReplacesTheSpare)
{
    TempSock sock("serve_key_switch.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.workers = 1;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "key-switch");
    // Machines A, B, A: each segment finds the spare built for the
    // other machine, so each builds inline and leaves a spare of its
    // own machine behind.
    for (std::uint64_t seg = 1; seg <= 3; ++seg) {
        SubmitRequest req = submitFor(seg, 0, 256);
        if (seg == 2)
            req.job.l2Size = 512 * 1024;
        ASSERT_TRUE(c.submit(req).ok());
        auto fr = c.readFrame(60.0);
        ASSERT_TRUE(fr.ok()) << fr.error().describe();
        ASSERT_EQ(fr.value().type, FrameType::Result) << "segment " << seg;
    }

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.poolMisses, 3u);
    EXPECT_EQ(st.poolHits, 0u);
    EXPECT_EQ(st.segmentsCompleted, 3u);
    EXPECT_EQ(st.segmentsFailed, 0u);
}

TEST(ServeTest, DrainRefusesNewWorkAndFinishesInFlight)
{
    TempSock sock("serve_drain.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "drain-client");
    // A full round trip first: the session is accepted and Ready
    // before the drain starts, so the rest is deterministic.
    ASSERT_TRUE(c.submit(submitFor(1, 0, 2048)).ok());
    auto first = c.readFrame(60.0);
    ASSERT_TRUE(first.ok()) << first.error().describe();
    ASSERT_EQ(first.value().type, FrameType::Result);

    server.requestDrain();
    // Submitted after the drain: must be refused, not queued.
    ASSERT_TRUE(c.submit(submitFor(2, 0, 2048)).ok());
    auto fr = c.readFrame(60.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Draining);
    auto e = decodeErrorReply(fr.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().segmentId, 2u);

    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    EXPECT_EQ(st.segmentsCompleted, 1u);
    EXPECT_EQ(st.segmentsDrained, 1u);
}

TEST(ServeTest, RepeatOffendersAreQuarantinedByName)
{
    TempSock sock("serve_quarantine.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.quarantineThreshold = 2;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    for (int round = 0; round < 2; ++round) {
        ServeClient evil;
        attach(evil, sock.path, "repeat-offender");
        ASSERT_TRUE(evil.send("garbage garbage garbage").ok());
        while (evil.readFrame(10.0).ok()) {
        }
    }
    // Third connection: refused at HELLO.
    ServeClient evil;
    attach(evil, sock.path, "repeat-offender");
    auto fr = evil.readFrame(10.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    EXPECT_EQ(fr.value().type, FrameType::Quarantined);

    // A different name is still welcome.
    ServeClient good;
    attach(good, sock.path, "honest");
    ASSERT_TRUE(good.submit(submitFor(1, 0, 256)).ok());
    auto ok = good.readFrame(60.0);
    ASSERT_TRUE(ok.ok()) << ok.error().describe();
    EXPECT_EQ(ok.value().type, FrameType::Result);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    ServiceStats st = server.stats();
    ASSERT_EQ(st.quarantinedClients.size(), 1u);
    EXPECT_EQ(st.quarantinedClients[0], "repeat-offender");
    EXPECT_GE(st.hellosRejected, 1u);
}

TEST(ServeTest, SlowlorisSessionIsCutOff)
{
    TempSock sock("serve_slow.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    opt.readTimeoutSeconds = 0.3;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());

    ServeClient c;
    attach(c, sock.path, "dribbler");
    // Give the reader a beat to consume the HELLO, then stall a
    // frame: three header bytes and silence.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::string frame = encodeSubmit(submitFor(1, 0, 64));
    ASSERT_TRUE(c.send(frame.substr(0, 3)).ok());
    // Expect the Timeout error frame, then EOF, well within 5 s.
    auto fr = c.readFrame(5.0);
    ASSERT_TRUE(fr.ok()) << fr.error().describe();
    ASSERT_EQ(fr.value().type, FrameType::Error);
    auto e = decodeErrorReply(fr.value().payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().kind, ErrorKind::Timeout);

    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);
    EXPECT_EQ(server.stats().sessionsPoisoned, 1u);
}

TEST(ServeTest, ManifestJsonCarriesTheCounters)
{
    TempSock sock("serve_manifest.sock");
    ServeOptions opt;
    opt.unixPath = sock.path;
    ServeServer server(opt);
    ASSERT_TRUE(server.start().ok());
    ServeClient c;
    attach(c, sock.path, "m");
    ASSERT_TRUE(c.submit(submitFor(1, 0, 128)).ok());
    ASSERT_TRUE(c.readFrame(60.0).ok());
    server.requestDrain();
    EXPECT_EQ(server.waitUntilDrained(), 0);

    std::string m = server.manifestJson(true, 0);
    EXPECT_NE(m.find("\"drained\":true"), std::string::npos);
    EXPECT_NE(m.find("\"completed\":1"), std::string::npos);
    EXPECT_NE(m.find("\"quarantined_clients\":[]"),
              std::string::npos);
}

} // namespace
} // namespace vrc
