/**
 * @file
 * Wire-protocol tests: frame encode/decode round trips, validating
 * decode of hostile payloads, the incremental FrameReader
 * (byte-at-a-time feeding, torn payloads, sticky breakage), and
 * FrameConn on a socket pair (split frames, timeouts, broken streams,
 * EOF, concurrent senders, signals mid-frame).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/wire.hh"
#include "trace/record.hh"

namespace vrc
{
namespace
{

TraceRecord
ref(CpuId cpu, RefType t, ProcessId pid, std::uint32_t va)
{
    return makeRef(cpu, t, pid, VirtAddr(va));
}

SubmitRequest
sampleSubmit()
{
    SubmitRequest s;
    s.segmentId = 42;
    s.job = SimJob{HierarchyKind::RealRealIncl, 8192, 131072, true, 0,
                   TimingMode::Cycle};
    s.profileName = "pops";
    s.scale = 0.125; // exactly representable on purpose
    s.records = {ref(0, RefType::Instr, 1, 0x1000),
                 ref(1, RefType::Read, 2, 0x2004),
                 ref(0, RefType::Write, 1, 0x3008)};
    return s;
}

/** Feed a byte string through a FrameReader and pop every frame. */
std::vector<Frame>
pump(FrameReader &rd, const std::string &bytes, std::size_t step)
{
    std::vector<Frame> out;
    for (std::size_t i = 0; i < bytes.size(); i += step) {
        rd.feed(bytes.data() + i,
                std::min(step, bytes.size() - i));
        while (rd.poll() == FrameReader::State::Frame)
            out.push_back(rd.take());
    }
    return out;
}

TEST(WireTest, HelloRoundTrip)
{
    std::string f = encodeHello(HelloRequest{wireVersion, "client-7"});
    FrameReader rd;
    rd.feed(f.data(), f.size());
    ASSERT_EQ(rd.poll(), FrameReader::State::Frame);
    Frame fr = rd.take();
    EXPECT_EQ(fr.type, FrameType::Hello);
    auto h = decodeHello(fr.payload);
    ASSERT_TRUE(h.ok()) << h.error().describe();
    EXPECT_EQ(h.value().version, wireVersion);
    EXPECT_EQ(h.value().client, "client-7");
}

TEST(WireTest, SubmitRoundTripPreservesEverything)
{
    SubmitRequest s = sampleSubmit();
    std::string f = encodeSubmit(s);
    FrameReader rd;
    rd.feed(f.data(), f.size());
    ASSERT_EQ(rd.poll(), FrameReader::State::Frame);
    Frame fr = rd.take();
    ASSERT_EQ(fr.type, FrameType::Submit);
    auto back = decodeSubmit(fr.payload);
    ASSERT_TRUE(back.ok()) << back.error().describe();
    const SubmitRequest &b = back.value();
    EXPECT_EQ(b.segmentId, 42u);
    EXPECT_EQ(b.job.kind, HierarchyKind::RealRealIncl);
    EXPECT_EQ(b.job.l1Size, 8192u);
    EXPECT_EQ(b.job.l2Size, 131072u);
    EXPECT_TRUE(b.job.split);
    EXPECT_EQ(b.job.timingMode, TimingMode::Cycle);
    EXPECT_EQ(b.profileName, "pops");
    EXPECT_EQ(b.scale, 0.125); // exact double bits
    ASSERT_EQ(b.records.size(), 3u);
    EXPECT_EQ(b.records[1].cpu, 1);
    EXPECT_EQ(b.records[1].type, RefType::Read);
    EXPECT_EQ(b.records[1].pid, 2);
    EXPECT_EQ(b.records[1].vaddr, 0x2004u);
}

TEST(WireTest, ResultAndErrorRoundTrip)
{
    std::string line = "cell 0 0 0x1.8p+0 ... end";
    std::string rf = encodeResult(ResultReply{9, line});
    FrameReader rd;
    rd.feed(rf.data(), rf.size());
    ASSERT_EQ(rd.poll(), FrameReader::State::Frame);
    auto r = decodeResult(rd.take().payload);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().segmentId, 9u);
    EXPECT_EQ(r.value().summaryLine, line);

    std::string ef = encodeErrorReply(
        FrameType::Shed,
        ErrorReply{3, ErrorKind::Bounds, "queue full"});
    rd.feed(ef.data(), ef.size());
    ASSERT_EQ(rd.poll(), FrameReader::State::Frame);
    Frame fr = rd.take();
    EXPECT_EQ(fr.type, FrameType::Shed);
    auto e = decodeErrorReply(fr.payload);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.value().segmentId, 3u);
    EXPECT_EQ(e.value().kind, ErrorKind::Bounds);
    EXPECT_EQ(e.value().message, "queue full");
}

TEST(WireTest, ByteAtATimeFeedingYieldsEveryFrame)
{
    std::string bytes = encodeHello(HelloRequest{wireVersion, "a"}) +
                        encodeSubmit(sampleSubmit()) + encodeBye();
    FrameReader rd;
    std::vector<Frame> frames = pump(rd, bytes, 1);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, FrameType::Hello);
    EXPECT_EQ(frames[1].type, FrameType::Submit);
    EXPECT_EQ(frames[2].type, FrameType::Bye);
    EXPECT_EQ(rd.pendingBytes(), 0u);
}

TEST(WireTest, TornPayloadIsNeedMoreNotError)
{
    std::string f = encodeSubmit(sampleSubmit());
    FrameReader rd;
    rd.feed(f.data(), f.size() - 5);
    EXPECT_EQ(rd.poll(), FrameReader::State::NeedMore);
    rd.feed(f.data() + f.size() - 5, 5);
    EXPECT_EQ(rd.poll(), FrameReader::State::Frame);
}

TEST(WireTest, BadMagicIsStickyBroken)
{
    FrameReader rd;
    std::string junk = "GARBAGEGARBAGE";
    rd.feed(junk.data(), junk.size());
    EXPECT_EQ(rd.poll(), FrameReader::State::Broken);
    EXPECT_EQ(rd.error().kind, ErrorKind::Parse);
    // A valid frame after the garbage must NOT resynchronize: the
    // stream is poisoned for good.
    std::string ok = encodeBye();
    rd.feed(ok.data(), ok.size());
    EXPECT_EQ(rd.poll(), FrameReader::State::Broken);
}

TEST(WireTest, UnknownFrameTypeIsBroken)
{
    std::string f = encodeBye();
    f[4] = static_cast<char>(0x7F); // type byte out of range
    FrameReader rd;
    rd.feed(f.data(), f.size());
    EXPECT_EQ(rd.poll(), FrameReader::State::Broken);
    EXPECT_EQ(rd.error().kind, ErrorKind::Format);
}

TEST(WireTest, OversizedPayloadRejectedUpFront)
{
    // Header claims 1 MiB payload against a 1 KiB cap: rejected from
    // the header alone, long before that much data arrives.
    std::string f = encodeFrame(FrameType::Submit,
                                std::string(16, 'x'));
    f[5] = 0;
    f[6] = 0;
    f[7] = 0x10; // 1 MiB little-endian
    f[8] = 0;
    FrameReader rd(1024);
    rd.feed(f.data(), f.size());
    EXPECT_EQ(rd.poll(), FrameReader::State::Broken);
    EXPECT_EQ(rd.error().kind, ErrorKind::Bounds);
}

TEST(WireTest, DecodeHelloRejectsHostileValues)
{
    EXPECT_FALSE(decodeHello("").ok());
    // Wrong protocol version.
    std::string f = encodeHello(HelloRequest{99, "x"});
    FrameReader rd;
    rd.feed(f.data(), f.size());
    auto h = decodeHello(rd.take().payload);
    ASSERT_FALSE(h.ok());
    EXPECT_EQ(h.error().kind, ErrorKind::Format);
    // Empty client name.
    std::string f2 = encodeHello(HelloRequest{wireVersion, ""});
    FrameReader rd2;
    rd2.feed(f2.data(), f2.size());
    EXPECT_FALSE(decodeHello(rd2.take().payload).ok());
}

TEST(WireTest, DecodeSubmitRejectsHostileValues)
{
    SubmitRequest s = sampleSubmit();
    std::string good = encodeSubmit(s);
    std::string payload = good.substr(wireHeaderBytes);

    // Truncations at every length must fail cleanly, never crash.
    for (std::size_t cut = 0; cut < payload.size();
         cut += std::max<std::size_t>(1, payload.size() / 37))
        EXPECT_FALSE(decodeSubmit(payload.substr(0, cut)).ok())
            << "cut=" << cut;

    // Bad organization code.
    std::string bad = payload;
    bad[8] = 7;
    auto r = decodeSubmit(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, ErrorKind::Bounds);

    // NaN scale.
    SubmitRequest nan_scale = s;
    nan_scale.scale = std::numeric_limits<double>::quiet_NaN();
    std::string nf =
        encodeSubmit(nan_scale).substr(wireHeaderBytes);
    EXPECT_FALSE(decodeSubmit(nf).ok());

    // Corrupt embedded trace container magic.
    std::string bad_trace = payload;
    std::size_t trace_at = 8 + 1 + 4 + 4 + 1 + 1 + 8 + 2 +
                           s.profileName.size();
    bad_trace[trace_at] = 'X';
    auto t = decodeSubmit(bad_trace);
    ASSERT_FALSE(t.ok());
    EXPECT_EQ(t.error().kind, ErrorKind::Format);
}

TEST(WireTest, DecodeErrorReplyRejectsBadKind)
{
    std::string f = encodeErrorReply(
        FrameType::Error, ErrorReply{1, ErrorKind::Io, "m"});
    std::string payload = f.substr(wireHeaderBytes);
    payload[8] = 120; // kind byte out of the taxonomy
    EXPECT_FALSE(decodeErrorReply(payload).ok());
}

TEST(WireTest, LargeFeedCompactsConsumedPrefix)
{
    // Many frames through one reader: the consumed prefix must be
    // dropped (pendingBytes stays bounded), and every frame must
    // still come out intact.
    FrameReader rd;
    std::string chunk;
    for (int i = 0; i < 64; ++i)
        chunk += encodeSubmit(sampleSubmit());
    std::vector<Frame> frames = pump(rd, chunk, 4096);
    EXPECT_EQ(frames.size(), 64u);
    EXPECT_EQ(rd.pendingBytes(), 0u);
    for (const Frame &f : frames)
        EXPECT_TRUE(decodeSubmit(f.payload).ok());
}

// ---- shard frames ----------------------------------------------------

ShardAssignment
sampleAssign()
{
    ShardAssignment a;
    a.assignId = 7;
    a.campaignKey = "deadbeefcafef00d";
    a.profileName = "thor";
    a.scale = 0.25; // exactly representable on purpose
    a.cells.push_back(
        {3, 0,
         SimJob{HierarchyKind::VirtualReal, 4096, 65536, false, 0,
                TimingMode::Analytic}});
    a.cells.push_back(
        {8, 2,
         SimJob{HierarchyKind::RealRealNoIncl, 16384, 262144, true,
                10'000, TimingMode::Cycle}});
    return a;
}

TEST(WireTest, ShardAssignRoundTripPreservesEverything)
{
    ShardAssignment a = sampleAssign();
    std::string f = encodeShardAssign(a);
    FrameReader rd;
    rd.feed(f.data(), f.size());
    ASSERT_EQ(rd.poll(), FrameReader::State::Frame);
    Frame fr = rd.take();
    EXPECT_EQ(fr.type, FrameType::ShardAssign);
    Result<ShardAssignment> d = decodeShardAssign(fr.payload);
    ASSERT_TRUE(d.ok());
    const ShardAssignment &b = d.value();
    EXPECT_EQ(b.assignId, a.assignId);
    EXPECT_EQ(b.campaignKey, a.campaignKey);
    EXPECT_EQ(b.profileName, a.profileName);
    EXPECT_EQ(b.scale, a.scale); // exact double bits
    ASSERT_EQ(b.cells.size(), a.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(b.cells[i].index, a.cells[i].index);
        EXPECT_EQ(b.cells[i].attempt, a.cells[i].attempt);
        EXPECT_EQ(b.cells[i].job.kind, a.cells[i].job.kind);
        EXPECT_EQ(b.cells[i].job.l1Size, a.cells[i].job.l1Size);
        EXPECT_EQ(b.cells[i].job.l2Size, a.cells[i].job.l2Size);
        EXPECT_EQ(b.cells[i].job.split, a.cells[i].job.split);
        EXPECT_EQ(b.cells[i].job.invariantPeriod,
                  a.cells[i].job.invariantPeriod);
        EXPECT_EQ(b.cells[i].job.timingMode,
                  a.cells[i].job.timingMode);
    }
}

TEST(WireTest, CellResultShardDoneHeartbeatRoundTrip)
{
    CellResultReply r{9, 4, "cell 4 vr 4096 65536 0 ..."};
    Result<CellResultReply> dr =
        decodeCellResult(encodeCellResult(r).substr(wireHeaderBytes));
    ASSERT_TRUE(dr.ok());
    EXPECT_EQ(dr.value().assignId, 9u);
    EXPECT_EQ(dr.value().index, 4u);
    EXPECT_EQ(dr.value().summaryLine, r.summaryLine);

    ShardDoneReply d;
    d.assignId = 9;
    d.completed = 3;
    d.failures.push_back({5, ErrorKind::Timeout, "watchdog"});
    d.failures.push_back({6, ErrorKind::Worker, "threw"});
    Result<ShardDoneReply> dd =
        decodeShardDone(encodeShardDone(d).substr(wireHeaderBytes));
    ASSERT_TRUE(dd.ok());
    EXPECT_EQ(dd.value().assignId, 9u);
    EXPECT_EQ(dd.value().completed, 3u);
    ASSERT_EQ(dd.value().failures.size(), 2u);
    EXPECT_EQ(dd.value().failures[0].index, 5u);
    EXPECT_EQ(dd.value().failures[0].kind, ErrorKind::Timeout);
    EXPECT_EQ(dd.value().failures[1].message, "threw");

    HeartbeatMsg h{12, 34};
    Result<HeartbeatMsg> dh =
        decodeHeartbeat(encodeHeartbeat(h).substr(wireHeaderBytes));
    ASSERT_TRUE(dh.ok());
    EXPECT_EQ(dh.value().assignId, 12u);
    EXPECT_EQ(dh.value().cellsDone, 34u);
}

TEST(WireTest, DecodeShardFramesRejectHostileValues)
{
    // Truncated assign header.
    EXPECT_FALSE(decodeShardAssign(std::string(7, 'x')).ok());
    // Zero cells.
    ShardAssignment a = sampleAssign();
    a.cells.clear();
    std::string p = encodeShardAssign(a).substr(wireHeaderBytes);
    EXPECT_FALSE(decodeShardAssign(p).ok());
    // Bad organization code inside a cell.
    a = sampleAssign();
    p = encodeShardAssign(a).substr(wireHeaderBytes);
    std::string broken = p;
    bool flipped = false;
    // Corrupt the first cell's kind byte wherever it encodes to: walk
    // the payload and force an out-of-range org value at the known
    // offset (after id + scale + key + name + count + index + attempt).
    std::size_t off = 8 + 8 + 2 + a.campaignKey.size() + 2 +
                      a.profileName.size() + 4 + 4 + 4;
    if (off < broken.size()) {
        broken[off] = 99;
        flipped = true;
    }
    ASSERT_TRUE(flipped);
    EXPECT_FALSE(decodeShardAssign(broken).ok());
    // Trailing garbage.
    EXPECT_FALSE(decodeShardAssign(p + "x").ok());

    // Empty summary line.
    EXPECT_FALSE(
        decodeCellResult(
            encodeCellResult(CellResultReply{1, 2, "x"})
                .substr(wireHeaderBytes, 12))
            .ok());
    // Heartbeat with the wrong exact length.
    EXPECT_FALSE(decodeHeartbeat(std::string(11, 'x')).ok());
    EXPECT_FALSE(decodeHeartbeat(std::string(13, 'x')).ok());
    // ShardDone failure kind out of the taxonomy.
    ShardDoneReply d;
    d.assignId = 1;
    d.failures.push_back({0, ErrorKind::Worker, "m"});
    p = encodeShardDone(d).substr(wireHeaderBytes);
    p[8 + 4 + 4 + 4] = 120; // the failure's kind byte
    EXPECT_FALSE(decodeShardDone(p).ok());
}

// ---- FrameConn ------------------------------------------------------

/** A FrameConn on one end of a socket pair; the test writes the other. */
struct ConnPair
{
    FrameConn conn;
    int peer = -1;

    explicit ConnPair(std::size_t maxPayload = wireMaxPayloadDefault)
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            conn.reset(fds[0], maxPayload);
            peer = fds[1];
        }
    }

    ~ConnPair()
    {
        if (peer >= 0)
            ::close(peer);
    }

    bool
    write(const std::string &bytes) const
    {
        return ::write(peer, bytes.data(), bytes.size()) ==
               static_cast<ssize_t>(bytes.size());
    }
};

TEST(WireTest, FrameConnJoinsAFrameSplitAcrossTwoWrites)
{
    ConnPair p;
    ASSERT_GE(p.peer, 0);
    std::string frame = encodeHeartbeat(HeartbeatMsg{7, 3});
    ASSERT_TRUE(p.write(frame.substr(0, 5)));
    std::thread late([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        EXPECT_TRUE(p.write(frame.substr(5)));
    });
    Result<Frame> f = p.conn.readFrame(10.0);
    late.join();
    ASSERT_TRUE(f.ok()) << f.error().describe();
    EXPECT_EQ(f.value().type, FrameType::Heartbeat);
    Result<HeartbeatMsg> hb = decodeHeartbeat(f.value().payload);
    ASSERT_TRUE(hb.ok());
    EXPECT_EQ(hb.value().assignId, 7u);
    EXPECT_EQ(hb.value().cellsDone, 3u);
    EXPECT_EQ(p.conn.pendingBytes(), 0u);
}

TEST(WireTest, FrameConnTimesOutWithThePartialFramePending)
{
    ConnPair p;
    ASSERT_GE(p.peer, 0);
    // Idle: a timeout with nothing buffered.
    Result<Frame> idle = p.conn.readFrame(0.02);
    ASSERT_FALSE(idle.ok());
    EXPECT_EQ(idle.error().kind, ErrorKind::Timeout);
    EXPECT_EQ(p.conn.pendingBytes(), 0u);
    // Stalled: three header bytes and silence.
    ASSERT_TRUE(p.write(encodeBye().substr(0, 3)));
    Result<Frame> stalled = p.conn.readFrame(0.05);
    ASSERT_FALSE(stalled.ok());
    EXPECT_EQ(stalled.error().kind, ErrorKind::Timeout);
    EXPECT_EQ(p.conn.pendingBytes(), 3u);
}

TEST(WireTest, FrameConnReturnsTheReadersErrorForABrokenStream)
{
    ConnPair p;
    ASSERT_GE(p.peer, 0);
    ASSERT_TRUE(p.write("definitely not a VRCW frame"));
    Result<Frame> bad = p.conn.readFrame(10.0);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().kind, ErrorKind::Parse);
    // Sticky: the same error again, not Io or Timeout.
    Result<Frame> again = p.conn.readFrame(0.02);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error().kind, ErrorKind::Parse);

    // An oversized claim is refused from the header alone.
    ConnPair small(16);
    ASSERT_GE(small.peer, 0);
    ASSERT_TRUE(small.write(encodeHello(HelloRequest{1, "a-long-name"})));
    Result<Frame> big = small.conn.readFrame(10.0);
    ASSERT_FALSE(big.ok());
    EXPECT_EQ(big.error().kind, ErrorKind::Bounds);
}

TEST(WireTest, FrameConnReportsPeerEofAsIo)
{
    ConnPair p;
    ASSERT_GE(p.peer, 0);
    // Frames written before the close still arrive first.
    ASSERT_TRUE(p.write(encodeBye()));
    ::close(p.peer);
    p.peer = -1;
    Result<Frame> bye = p.conn.readFrame(10.0);
    ASSERT_TRUE(bye.ok()) << bye.error().describe();
    EXPECT_EQ(bye.value().type, FrameType::Bye);
    Result<Frame> eof = p.conn.readFrame(10.0);
    ASSERT_FALSE(eof.ok());
    EXPECT_EQ(eof.error().kind, ErrorKind::Io);
    // A closed connection reads and sends nothing.
    p.conn.close();
    EXPECT_EQ(p.conn.readFrame(0.01).error().kind, ErrorKind::Io);
    EXPECT_FALSE(p.conn.send(encodeBye()));
}

TEST(WireTest, FrameConnSendThenShutEndsTheStream)
{
    ConnPair p;
    ASSERT_GE(p.peer, 0);
    FrameConn peer(p.peer);
    p.peer = -1; // owned by `peer` now
    EXPECT_TRUE(p.conn.send(encodeBye(), true));
    EXPECT_FALSE(p.conn.send(encodeBye())); // shut: nothing more goes out
    Result<Frame> bye = peer.readFrame(10.0);
    ASSERT_TRUE(bye.ok()) << bye.error().describe();
    EXPECT_EQ(bye.value().type, FrameType::Bye);
    EXPECT_EQ(peer.readFrame(10.0).error().kind, ErrorKind::Io);
}

TEST(WireTest, FrameConnConcurrentSendsStayWholeAndOrdered)
{
    // The shard worker's heartbeat pump and its cell sender share one
    // connection; so do the service's workers answering one session.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int small = 16 * 1024; // force short writes mid-frame
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    FrameConn out(fds[0]), in(fds[1]);

    constexpr std::uint32_t perThread = 200;
    std::vector<std::thread> senders;
    for (std::uint64_t t = 0; t < 2; ++t)
        senders.emplace_back([&out, t] {
            for (std::uint32_t i = 0; i < perThread; ++i)
                EXPECT_TRUE(out.send(encodeCellResult(CellResultReply{
                    t, i, std::string(20000, char('a' + t))})));
        });

    std::uint32_t next[2] = {0, 0};
    auto readAll = [&] {
        for (std::uint32_t n = 0; n < 2 * perThread; ++n) {
            Result<Frame> f = in.readFrame(30.0);
            ASSERT_TRUE(f.ok()) << f.error().describe();
            ASSERT_EQ(f.value().type, FrameType::CellResult);
            Result<CellResultReply> r =
                decodeCellResult(f.value().payload);
            ASSERT_TRUE(r.ok()) << r.error().describe();
            std::uint64_t t = r.value().assignId;
            ASSERT_LT(t, 2u);
            EXPECT_EQ(r.value().index, next[t]++);
            EXPECT_EQ(r.value().summaryLine,
                      std::string(20000, char('a' + t)));
        }
    };
    readAll();
    in.shut(); // a failed check above leaves senders blocked; free them
    for (std::thread &th : senders)
        th.join();
    EXPECT_EQ(next[0], perThread);
    EXPECT_EQ(next[1], perThread);
    EXPECT_EQ(in.pendingBytes(), 0u);
}

// ---- EINTR / short-write regression ----------------------------------

namespace
{
volatile sig_atomic_t gSigCount = 0;
void
countSignal(int)
{
    gSigCount = gSigCount + 1;
}
} // namespace

TEST(WireTest, SignalsMidFrameDoNotTearTheStream)
{
    // A profiler/supervisor signal landing mid write() or mid read()
    // must not tear a frame: FrameConn retries EINTR and short writes
    // on send and EINTR on read. Regression for the serve and shard
    // layers' syscall loops.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    int small = 16 * 1024; // force many short writes
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                 sizeof(small));

    struct sigaction sa = {};
    sa.sa_handler = countSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // deliberately NOT SA_RESTART
    struct sigaction old;
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
    gSigCount = 0;

    // One large CELL_RESULT frame: a multi-megabyte payload cannot
    // fit the send buffer, so the writer parks in write() where the
    // signals land.
    CellResultReply big{1, 2, std::string(4u << 20, 's')};
    std::string frame = encodeCellResult(big);

    FrameConn out(fds[0]), in(fds[1]);
    std::atomic<bool> writeOk{false};
    std::atomic<bool> writerDone{false};
    std::thread writer([&] {
        writeOk = out.send(frame);
        writerDone = true;
        ::shutdown(fds[0], SHUT_WR);
    });

    // Bombard the writer while draining the other end in short turns.
    Result<Frame> got = makeError(ErrorKind::Timeout, "not yet");
    int salvos = 0;
    for (;;) {
        if (!writerDone && salvos++ < 100000)
            pthread_kill(writer.native_handle(), SIGUSR1);
        got = in.readFrame(0.001);
        if (got)
            break;
        ASSERT_EQ(got.error().kind, ErrorKind::Timeout)
            << got.error().describe();
    }
    writer.join();
    sigaction(SIGUSR1, &old, nullptr);

    EXPECT_TRUE(writeOk);
    ASSERT_TRUE(got.ok());
    Frame f = got.take();
    EXPECT_EQ(f.type, FrameType::CellResult);
    Result<CellResultReply> d = decodeCellResult(f.payload);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().summaryLine, big.summaryLine);
    // The test only proves something if signals actually landed.
    EXPECT_GT(gSigCount, 0);
}

} // namespace
} // namespace vrc
