#include "serve/server.hh"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/json_escape.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/mp_sim.hh"
#include "trace/workload.hh"

namespace vrc
{

const char *
sessionStateName(SessionState s)
{
    switch (s) {
      case SessionState::AwaitHello:
        return "await-hello";
      case SessionState::Ready:
        return "ready";
      case SessionState::Poisoned:
        return "poisoned";
      case SessionState::Closed:
        return "closed";
    }
    return "unknown";
}

std::function<void()> &
simulatorBuildHookForTest()
{
    static std::function<void()> hook;
    return hook;
}

/** One connected client. */
struct Session
{
    Session(int fd, std::size_t maxFrameBytes) : conn(fd, maxFrameBytes)
    {
    }

    std::uint64_t id = 0;
    FrameConn conn;
    std::atomic<SessionState> state{SessionState::AwaitHello};
    std::string client; ///< HELLO name; reader thread writes it once
                        ///< before flipping state to Ready

    std::atomic<std::size_t> inflight{0};
    std::atomic<std::uint64_t> txSeq{0};
    std::atomic<bool> readerDone{false};
    std::thread reader;

    /** Cancelled on close: the parent of every segment attempt. */
    CancelToken gone;

    bool
    alive() const
    {
        SessionState s = state.load(std::memory_order_acquire);
        return s == SessionState::AwaitHello ||
               s == SessionState::Ready;
    }

    /** Leave the live states, cancelling any segment in replay. */
    void
    end(SessionState st)
    {
        state.store(st, std::memory_order_release);
        gone.cancel();
    }
};

/** One admitted segment waiting for (or on) a worker. */
struct Work
{
    std::shared_ptr<Session> session;
    SubmitRequest submit;
    WorkloadProfile profile; ///< resolved and scaled at admission
};

namespace
{

/** What a simulator's construction depends on. */
struct MachineKey
{
    std::string profile;
    std::uint32_t numCpus = 0;
    std::uint32_t pageSize = 0;
    SimJob job;

    bool operator==(const MachineKey &) const = default;
};

MachineKey
machineKey(const Work &w)
{
    return {w.profile.name, w.profile.numCpus, w.profile.pageSize,
            w.submit.job};
}

/**
 * A worker's one never-used simulator, built after a reply for the
 * key that segment had, so the next segment of that key starts at
 * replay. A simulator that has replayed anything is never reused.
 */
struct Spare
{
    MachineKey key;
    std::unique_ptr<MpSimulator> sim;
};

std::unique_ptr<MpSimulator>
buildSimulator(const Work &w)
{
    if (const std::function<void()> &hook = simulatorBuildHookForTest())
        hook();
    return std::make_unique<MpSimulator>(
        jobMachineConfig(w.submit.job, w.profile.pageSize), w.profile);
}

} // namespace

struct ServeServer::Impl
{
    ServeOptions opt;

    Listeners listeners;
    int drainPipe[2] = {-1, -1};
    int signalWakeFd = -1;

    std::thread acceptThread;
    std::vector<std::thread> workers;

    // Admission queue. `draining` flips under qMu so an admission
    // that saw it false has its push ordered before the workers'
    // final drain of the queue.
    std::mutex qMu;
    std::condition_variable qCv;
    std::deque<Work> queue;
    bool draining = false;

    std::mutex sessMu;
    std::vector<std::shared_ptr<Session>> sessions;
    std::uint64_t nextSessionId = 1;

    // Counters + quarantine registry.
    mutable std::mutex statsMu;
    ServiceStats st;
    std::map<std::string, unsigned> poisonCounts;
    std::uint64_t sessionsReaped = 0;

    std::atomic<std::uint64_t> spareHits{0};
    std::atomic<std::uint64_t> spareMisses{0};

    std::atomic<bool> started{false};

    // ---- session write side ----------------------------------------

    /**
     * Send one frame, applying an injected service fault when armed.
     * A write that fails, and either fault, closes the session.
     */
    void
    sendFrame(Session &s, const std::string &frame,
              ServeFault fault = ServeFault::None)
    {
        if (fault == ServeFault::Tear) {
            warn("serve: fault injection tearing a frame on session ",
                 s.id);
            if (s.conn.send(std::string_view(frame).substr(
                                0, frame.size() / 2),
                            true))
                bumpStat(&ServiceStats::responsesTorn);
        } else if (fault == ServeFault::Drop) {
            if (s.conn.send(frame, true)) {
                warn("serve: fault injection dropping session ", s.id);
                bumpStat(&ServiceStats::responsesDropped);
            }
        } else if (s.conn.send(frame)) {
            return;
        }
        closeSession(s);
    }

    void
    bumpStat(std::uint64_t ServiceStats::*field)
    {
        std::lock_guard<std::mutex> g(statsMu);
        ++(st.*field);
    }

    /**
     * Poison a session: count the offense toward its client's
     * quarantine budget, then best-effort error frame and cut the
     * socket. The strike must land before the shutdown: a client that
     * observes EOF and reconnects immediately has to see its updated
     * count at the next HELLO.
     */
    void
    poison(Session &s, const Error &err)
    {
        warn("serve: poisoning session ", s.id,
             s.client.empty() ? "" : (" (" + s.client + ")"), ": ",
             err.describe());
        {
            std::lock_guard<std::mutex> g(statsMu);
            ++st.sessionsPoisoned;
            if (!s.client.empty()) {
                unsigned n = ++poisonCounts[s.client];
                if (n == opt.quarantineThreshold)
                    st.quarantinedClients.push_back(s.client);
            }
        }
        s.conn.send(encodeErrorReply(FrameType::Error,
                                     ErrorReply{0, err.kind, err.message}),
                    true);
        s.end(SessionState::Poisoned);
    }

    /** Close a session cleanly (BYE handled, EOF, drain teardown). */
    void
    closeSession(Session &s)
    {
        s.conn.shut();
        if (s.alive())
            s.end(SessionState::Closed);
    }

    // ---- session read side (one thread per connection) -------------

    void
    readerLoop(std::shared_ptr<Session> sp)
    {
        Session &s = *sp;
        // Slowloris guillotine: once a frame has begun it must complete
        // within readTimeoutSeconds. An idle connection (no partial
        // frame) may wait indefinitely, in short turns that re-check
        // whether the session is still alive.
        constexpr double idleTurnSeconds = 0.1;
        while (s.alive()) {
            bool partial = s.conn.pendingBytes() > 0;
            Result<Frame> f = s.conn.readFrame(
                partial ? opt.readTimeoutSeconds : idleTurnSeconds);
            if (f) {
                handleFrame(sp, f.take());
                continue;
            }
            const Error &err = f.error();
            if (err.kind == ErrorKind::Io)
                closeSession(s);
            else if (err.kind != ErrorKind::Timeout)
                poison(s, err);
            else if (partial)
                poison(s, makeError(ErrorKind::Timeout,
                                    "frame stalled for more than ",
                                    opt.readTimeoutSeconds,
                                    " s (slowloris?)"));
        }
        s.readerDone.store(true, std::memory_order_release);
    }

    void
    handleFrame(const std::shared_ptr<Session> &sp, Frame f)
    {
        Session &s = *sp;
        switch (s.state.load(std::memory_order_acquire)) {
          case SessionState::AwaitHello:
            if (f.type == FrameType::Bye) {
                closeSession(s);
                return;
            }
            if (f.type != FrameType::Hello) {
                poison(s, makeError(ErrorKind::Format,
                                    frameTypeName(f.type),
                                    " frame before hello"));
                return;
            }
            handleHello(s, f.payload);
            return;
          case SessionState::Ready:
            if (f.type == FrameType::Bye) {
                closeSession(s);
                return;
            }
            if (f.type == FrameType::Submit) {
                handleSubmit(sp, f.payload);
                return;
            }
            poison(s, makeError(ErrorKind::Format,
                                "unexpected ", frameTypeName(f.type),
                                " frame from a client"));
            return;
          case SessionState::Poisoned:
          case SessionState::Closed:
            return;
        }
    }

    void
    handleHello(Session &s, const std::string &payload)
    {
        Result<HelloRequest> h = decodeHello(payload);
        if (!h) {
            poison(s, h.error());
            return;
        }
        HelloRequest req = h.take();
        bool banned = false;
        {
            std::lock_guard<std::mutex> g(statsMu);
            auto it = poisonCounts.find(req.client);
            banned = it != poisonCounts.end() &&
                     it->second >= opt.quarantineThreshold;
            if (banned)
                ++st.hellosRejected;
        }
        if (banned) {
            sendFrame(s, encodeErrorReply(
                FrameType::Quarantined,
                ErrorReply{0, ErrorKind::Worker,
                           "client '" + req.client +
                               "' is quarantined"}));
            closeSession(s);
            return;
        }
        s.client = req.client;
        s.state.store(SessionState::Ready,
                      std::memory_order_release);
    }

    void
    handleSubmit(const std::shared_ptr<Session> &sp,
                 const std::string &payload)
    {
        Session &s = *sp;
        Result<SubmitRequest> sub = decodeSubmit(payload);
        if (!sub) {
            // A frame whose body does not parse is hostile or
            // corrupt either way -- the stream cannot be trusted.
            poison(s, sub.error());
            return;
        }
        SubmitRequest req = sub.take();
        auto refuse = [&](FrameType t, ErrorKind kind,
                          const std::string &msg) {
            sendFrame(s, encodeErrorReply(
                t, ErrorReply{req.segmentId, kind, msg}));
        };

        // Well-formed but wrong content: reject the segment, keep
        // the session (an honest client with a bad request).
        if (!knownProfileName(req.profileName)) {
            refuse(FrameType::Error, ErrorKind::Bounds,
                   "unknown workload profile '" + req.profileName +
                       "'");
            return;
        }
        WorkloadProfile profile =
            scaled(profileByName(req.profileName), req.scale);
        Status sizes =
            checkMachineConfig(jobMachineConfig(req.job, profile.pageSize));
        if (!sizes) {
            refuse(FrameType::Error, ErrorKind::Bounds,
                   sizes.error().message);
            return;
        }
        for (const TraceRecord &r : req.records) {
            if (r.cpu >= profile.numCpus) {
                refuse(FrameType::Error, ErrorKind::Bounds,
                       "record cpu out of range for profile");
                return;
            }
        }

        // Admission control, under the queue lock so a drain or a
        // full queue cannot race past the bound.
        {
            std::unique_lock<std::mutex> lk(qMu);
            if (draining) {
                lk.unlock();
                refuse(FrameType::Draining, ErrorKind::Cancelled,
                       "server is draining; no new segments");
                bumpStat(&ServiceStats::segmentsDrained);
                return;
            }
            if (s.inflight.load(std::memory_order_relaxed) >=
                opt.perClientCap) {
                lk.unlock();
                refuse(FrameType::Shed, ErrorKind::Bounds,
                       "per-client in-flight cap reached; resubmit "
                       "later");
                bumpStat(&ServiceStats::segmentsShed);
                return;
            }
            if (queue.size() >= opt.queueCap) {
                lk.unlock();
                refuse(FrameType::Shed, ErrorKind::Bounds,
                       "server admission queue full; resubmit later");
                bumpStat(&ServiceStats::segmentsShed);
                return;
            }
            s.inflight.fetch_add(1, std::memory_order_relaxed);
            queue.push_back(
                Work{sp, std::move(req), std::move(profile)});
        }
        qCv.notify_one();
    }

    // ---- workers ---------------------------------------------------

    void
    workerLoop()
    {
        Spare spare;
        for (;;) {
            Work w;
            {
                std::unique_lock<std::mutex> lk(qMu);
                qCv.wait(lk, [&] {
                    return !queue.empty() || draining;
                });
                if (queue.empty())
                    return; // draining and nothing left
                w = std::move(queue.front());
                queue.pop_front();
            }
            // The reply is out, so the spare's construction lands
            // between this worker's segments instead of inside a round
            // trip. A build that throws (say, no memory for a huge L2)
            // costs a later segment an inline construction, not the
            // worker.
            if (runSegment(w, spare) && !drainFlagged()) {
                try {
                    spare.sim = buildSimulator(w);
                    spare.key = machineKey(w);
                } catch (const std::exception &e) {
                    warn("serve: spare simulator build failed: ",
                         e.what());
                }
            }
        }
    }

    /**
     * A never-used simulator for @p w: the spare when it was built for
     * the same machine, else a new one (the mismatched spare is
     * dropped first, so a worker never holds two unused simulators).
     */
    std::unique_ptr<MpSimulator>
    takeSimulator(Spare &spare, const Work &w)
    {
        std::unique_ptr<MpSimulator> sim = std::move(spare.sim);
        if (sim && spare.key == machineKey(w)) {
            ++spareHits;
            return sim;
        }
        sim.reset();
        ++spareMisses;
        return buildSimulator(w);
    }

    /**
     * Run and answer one segment. True when an attempt took a
     * simulator, so the worker's spare is gone.
     */
    bool
    runSegment(Work &w, Spare &spare)
    {
        Session &s = *w.session;
        const SubmitRequest &req = w.submit;
        const std::string timeout =
            makeError(ErrorKind::Timeout, "segment deadline of ",
                      opt.segmentDeadline, " s exceeded")
                .message;

        bool took = false;
        Result<SimSummary> out =
            makeError(ErrorKind::Cancelled, "client went away");
        for (unsigned attempt = 0; !s.gone.cancelled(); ++attempt) {
            CancelToken token(&s.gone);
            out = invokeGuarded(
                [&](const CancelToken &) {
                    maybeInjectCellFault(
                        static_cast<std::size_t>(req.segmentId),
                        attempt, token);
                    std::unique_ptr<MpSimulator> sim =
                        takeSimulator(spare, w);
                    took = true;
                    // The deadline starts with the replay: an injected
                    // stall or an inline construction does not count.
                    token.expireAfter(opt.segmentDeadline);
                    replayCancellable(*sim, req.records, token);
                    return summarizeSimulation(*sim, req.job);
                },
                token, timeout);
            // A machine check would strike again and a timeout would
            // run out again.
            if (out || attempt >= opt.maxRetries ||
                out.error().kind == ErrorKind::Unrecoverable ||
                out.error().kind == ErrorKind::Timeout)
                break;
        }

        // Free the client's slot before the reply goes out: a
        // closed-loop client resubmits the moment it reads the frame.
        s.inflight.fetch_sub(1, std::memory_order_relaxed);
        if (out) {
            // Index 0 keeps the line byte-comparable with batch
            // vrc-sim --summary output; the frame carries the id.
            ResultReply r{req.segmentId,
                          encodeSummaryLine(0, out.value())};
            ServeFault fault = maybeInjectServeFault(
                s.id,
                s.txSeq.fetch_add(1, std::memory_order_relaxed) + 1);
            sendFrame(s, encodeResult(r), fault);
            bumpStat(&ServiceStats::segmentsCompleted);
            return took;
        }
        if (s.gone.cancelled()) { // the client went away mid-segment
            bumpStat(&ServiceStats::segmentsAbandoned);
            return took;
        }
        const Error &err = out.error();
        sendFrame(s, encodeErrorReply(
            FrameType::Error,
            ErrorReply{req.segmentId, err.kind, err.message}));
        bumpStat(&ServiceStats::segmentsFailed);
        if (err.kind == ErrorKind::Timeout)
            bumpStat(&ServiceStats::segmentsTimedOut);
        return took;
    }

    // ---- accept / drain --------------------------------------------

    void
    acceptLoop()
    {
        auto stop = [this] {
            return shutdownRequested() > 0 || drainFlagged();
        };
        while (listeners.acceptTurn(200, {drainPipe[0], signalWakeFd},
                                    stop, [this](int fd) { adopt(fd); }))
            reapDeadSessions();
        beginDrain();
    }

    bool
    drainFlagged()
    {
        std::lock_guard<std::mutex> g(qMu);
        return draining;
    }

    /** Start a session on an accepted socket. */
    void
    adopt(int fd)
    {
        auto s = std::make_shared<Session>(fd, opt.maxFrameBytes);
        {
            std::lock_guard<std::mutex> g(sessMu);
            s->id = nextSessionId++;
            sessions.push_back(s);
        }
        bumpStat(&ServiceStats::sessionsAccepted);
        s->reader = std::thread([this, s] { readerLoop(s); });
    }

    /**
     * Join and forget sessions whose reader has exited and whose
     * segments have all completed: a long-running server must not
     * grow a thread/fd per client that ever connected.
     */
    void
    reapDeadSessions()
    {
        std::vector<std::shared_ptr<Session>> dead;
        {
            std::lock_guard<std::mutex> g(sessMu);
            for (auto it = sessions.begin();
                 it != sessions.end();) {
                Session &s = **it;
                if (!s.alive() &&
                    s.readerDone.load(std::memory_order_acquire) &&
                    s.inflight.load(std::memory_order_relaxed) ==
                        0) {
                    dead.push_back(std::move(*it));
                    it = sessions.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (auto &s : dead) {
            if (s->reader.joinable())
                s->reader.join();
            s->conn.close();
            std::lock_guard<std::mutex> g(statsMu);
            ++sessionsReaped;
        }
    }

    void
    beginDrain()
    {
        {
            std::lock_guard<std::mutex> g(qMu);
            draining = true;
        }
        qCv.notify_all();
        listeners.close();
    }
};

ServeServer::ServeServer(ServeOptions opt)
    : _impl(std::make_unique<Impl>())
{
    _impl->opt = std::move(opt);
}

ServeServer::~ServeServer()
{
    if (_impl->started.load()) {
        requestDrain();
        waitUntilDrained();
    }
    if (_impl->drainPipe[0] >= 0)
        ::close(_impl->drainPipe[0]);
    if (_impl->drainPipe[1] >= 0)
        ::close(_impl->drainPipe[1]);
}

Status
ServeServer::start()
{
    Impl &im = *_impl;
    if (im.started.load())
        return makeError(ErrorKind::Io, "server already started");
    if (::pipe(im.drainPipe) != 0)
        return makeError(ErrorKind::Io, "pipe: ",
                         std::strerror(errno));
    im.signalWakeFd = installShutdownHandlers();
    Status bound =
        im.listeners.open(im.opt.unixPath, im.opt.tcpPort, "serve");
    if (!bound)
        return bound;
    unsigned workers = im.opt.workers ? im.opt.workers : 2;
    for (unsigned i = 0; i < workers; ++i)
        im.workers.emplace_back([&im] { im.workerLoop(); });
    im.acceptThread = std::thread([&im] { im.acceptLoop(); });
    im.started.store(true);
    return okStatus();
}

int
ServeServer::waitUntilDrained()
{
    Impl &im = *_impl;
    if (!im.started.load())
        return 2;
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    // Workers exit once the queue is empty under drain; everything
    // admitted before the drain completes first.
    im.qCv.notify_all();
    for (std::thread &w : im.workers)
        if (w.joinable())
            w.join();
    im.workers.clear();

    // Say goodbye, cut the sockets, and join every reader.
    std::vector<std::shared_ptr<Session>> all;
    {
        std::lock_guard<std::mutex> g(im.sessMu);
        all = im.sessions;
        im.sessions.clear();
    }
    std::string bye = encodeBye();
    for (auto &s : all) {
        im.sendFrame(*s, bye);
        im.closeSession(*s);
    }
    for (auto &s : all)
        if (s->reader.joinable())
            s->reader.join();
    im.started.store(false);

    int sig = shutdownSignal();
    if (!im.opt.manifest.empty()) {
        Status wrote = writeFileAtomic(
            im.opt.manifest,
            manifestJson(true, sig) + "\n");
        if (!wrote)
            warn("serve: ", wrote.error().describe());
    }
    return shutdownRequested() > 0 ? kExitInterrupted : 0;
}

void
ServeServer::requestDrain()
{
    Impl &im = *_impl;
    {
        std::lock_guard<std::mutex> g(im.qMu);
        im.draining = true;
    }
    im.qCv.notify_all();
    if (im.drainPipe[1] >= 0) {
        // Best-effort wake, but don't let a signal eat it: a dropped
        // byte would stall the drain until the next poll timeout.
        char b = 1;
        ssize_t r;
        do {
            r = ::write(im.drainPipe[1], &b, 1);
        } while (r < 0 && errno == EINTR);
    }
}

int
ServeServer::tcpPort() const
{
    return _impl->listeners.tcpPort();
}

ServiceStats
ServeServer::stats() const
{
    Impl &im = *_impl;
    std::lock_guard<std::mutex> g(im.statsMu);
    ServiceStats s = im.st;
    s.poolHits = im.spareHits;
    s.poolMisses = im.spareMisses;
    return s;
}

std::string
ServeServer::manifestJson(bool drained, int signal) const
{
    Impl &im = *_impl;
    std::size_t open_sessions;
    {
        std::lock_guard<std::mutex> g(im.sessMu);
        open_sessions = im.sessions.size();
    }
    ServiceStats s = stats();
    std::uint64_t reaped;
    {
        std::lock_guard<std::mutex> g(im.statsMu);
        reaped = im.sessionsReaped;
    }
    std::ostringstream os;
    os << "{\"service\":\"vrc-sim --serve\",\"drained\":"
       << (drained ? "true" : "false")
       << ",\"interrupted_signal\":" << signal << ",\"sessions\":{"
       << "\"accepted\":" << s.sessionsAccepted
       << ",\"poisoned\":" << s.sessionsPoisoned
       << ",\"hellos_rejected\":" << s.hellosRejected
       << ",\"reaped\":" << reaped
       << ",\"open_at_drain\":" << open_sessions
       << "},\"segments\":{"
       << "\"completed\":" << s.segmentsCompleted
       << ",\"failed\":" << s.segmentsFailed
       << ",\"shed\":" << s.segmentsShed
       << ",\"drained\":" << s.segmentsDrained
       << ",\"timed_out\":" << s.segmentsTimedOut
       << ",\"abandoned\":" << s.segmentsAbandoned
       << "},\"faults\":{"
       << "\"responses_dropped\":" << s.responsesDropped
       << ",\"responses_torn\":" << s.responsesTorn
       << "},\"pool\":{\"hits\":" << s.poolHits
       << ",\"misses\":" << s.poolMisses
       << "},\"quarantined_clients\":[";
    for (std::size_t i = 0; i < s.quarantinedClients.size(); ++i)
        os << (i ? "," : "") << '"'
           << jsonEscape(s.quarantinedClients[i]) << '"';
    os << "]}";
    return os.str();
}

} // namespace vrc
