#include "sim/shard.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "serve/client.hh"
#include "serve/wire.hh"
#include "trace/workload.hh"

namespace vrc
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h = (h ^ (v & 0xFF)) * 0x100000001b3ull;
        v >>= 8;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (char c : s)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return h;
}

constexpr const char *conflictPrefix = "conflicting summaries";

} // namespace

std::uint64_t
shardCellId(const TraceBundle &bundle, const SimJob &job)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, bundle.profile.name);
    h = fnv1a(h, bundle.profile.seed);
    h = fnv1a(h, bundle.records.size());
    h = fnv1a(h, static_cast<std::uint64_t>(job.kind));
    h = fnv1a(h, job.l1Size);
    h = fnv1a(h, job.l2Size);
    h = fnv1a(h, job.split ? 1 : 0);
    h = fnv1a(h, job.invariantPeriod);
    h = fnv1a(h, static_cast<std::uint64_t>(job.timingMode));
    return h;
}

bool
isConflictError(const Error &e)
{
    return e.kind == ErrorKind::Mismatch &&
           e.message.rfind(conflictPrefix, 0) == 0;
}

// ---- journal merge --------------------------------------------------

Result<ShardMerge>
mergeJournalTexts(
    const std::vector<std::pair<std::string, std::string>> &inputs)
{
    if (inputs.empty())
        return makeError(ErrorKind::Bounds, "no journals to merge");

    ShardMerge m;
    std::vector<std::string> srcCtx;
    std::vector<std::uint64_t> srcLine;
    std::string firstCtx;
    for (const auto &[ctx, text] : inputs) {
        std::istringstream is(text);
        Result<JournalContents> loaded = tryLoadJournal(is, ctx);
        if (!loaded)
            return loaded.error();
        JournalContents j = loaded.take();
        m.torn += j.torn;
        m.duplicates += j.duplicates;
        if (m.inputs == 0) {
            firstCtx = ctx;
            m.merged.key = j.key;
            m.merged.cells = j.cells;
            m.merged.present.assign(j.cells, false);
            m.merged.summaries.resize(j.cells);
            m.merged.lines.resize(j.cells);
            m.merged.firstLine.assign(j.cells, 0);
            srcCtx.resize(j.cells);
            srcLine.assign(j.cells, 0);
        } else {
            if (j.key != m.merged.key)
                return makeErrorAt(
                    ErrorKind::Mismatch, ctx, 2,
                    "journal belongs to campaign ", j.key,
                    " but ", firstCtx, " is campaign ", m.merged.key);
            if (j.cells != m.merged.cells)
                return makeErrorAt(
                    ErrorKind::Mismatch, ctx, 2,
                    "journal has ", j.cells, " cells but ", firstCtx,
                    " has ", m.merged.cells);
        }
        for (std::size_t i = 0; i < j.cells; ++i) {
            if (!j.present[i])
                continue;
            if (!m.merged.present[i]) {
                m.merged.present[i] = true;
                m.merged.summaries[i] = j.summaries[i];
                m.merged.lines[i] = j.lines[i];
                m.merged.firstLine[i] = j.firstLine[i];
                srcCtx[i] = ctx;
                srcLine[i] = j.firstLine[i];
                continue;
            }
            if (m.merged.lines[i] == j.lines[i]) {
                ++m.duplicates;
                continue;
            }
            return makeErrorAt(ErrorKind::Mismatch, ctx,
                               j.firstLine[i], conflictPrefix,
                               " for cell ", i, " (disagrees with ",
                               srcCtx[i], ":", srcLine[i], ")");
        }
        ++m.inputs;
    }
    for (std::size_t i = 0; i < m.merged.cells; ++i)
        if (!m.merged.present[i])
            m.missing.push_back(i);
    return m;
}

Result<ShardMerge>
mergeJournalFiles(const std::vector<std::string> &paths)
{
    std::vector<std::pair<std::string, std::string>> inputs;
    inputs.reserve(paths.size());
    for (const std::string &path : paths) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return makeError(ErrorKind::Io,
                             "cannot open journal: ", path);
        std::ostringstream text;
        text << in.rdbuf();
        inputs.emplace_back(path, text.str());
    }
    return mergeJournalTexts(inputs);
}

std::string
mergeManifestJson(const ShardMerge &m)
{
    std::ostringstream os;
    os << "{\"inputs\":" << m.inputs
       << ",\"cells\":" << m.merged.cells
       << ",\"completed\":" << m.merged.completedCells()
       << ",\"duplicates\":" << m.duplicates
       << ",\"torn\":" << m.torn << ",\"missing\":[";
    for (std::size_t i = 0; i < m.missing.size(); ++i)
        os << (i ? "," : "") << m.missing[i];
    os << "]}";
    return os.str();
}

// ---- coordinator ----------------------------------------------------

namespace
{

/** One connected worker. */
struct WorkerConn
{
    std::uint64_t id = 0;
    int fd = -1;
    std::string name;       ///< from HELLO; empty until then
    bool ready = false;     ///< HELLO accepted
    bool gone = false;      ///< connection dead (no more dispatch)
    bool writeShut = false;
    std::int64_t assignment = -1; ///< active assignment id, -1 = idle
    std::mutex writeMu;
    std::thread reader;
};

/** One dispatched shard. */
struct Assignment
{
    std::uint64_t id = 0;
    std::uint64_t workerId = 0;
    std::string workerName;
    std::vector<std::size_t> cells;
    Clock::time_point lastProgress;
    bool active = false;
    bool speculated = false; ///< watchdog already rescued this one
};

} // namespace

struct ShardCoordinator::Impl
{
    ShardCoordinatorOptions opt;

    int unixFd = -1;
    int tcpFd = -1;
    int boundTcpPort = -1;

    // All coordinator state below is guarded by mu; cv wakes the
    // scheduler loop on every event (result, done, hello, loss).
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> stopping{false};

    const TraceBundle *bundle = nullptr;
    const std::vector<SimJob> *jobs = nullptr;
    std::string key;
    std::size_t n = 0;
    std::vector<std::uint64_t> cellIds;
    std::unordered_map<std::uint64_t, std::size_t> idToIndex;

    CampaignResult res;
    std::vector<std::string> lines;       ///< accepted journal lines
    std::vector<bool> cellQuarantined;
    std::vector<CellFailure> lastFail;
    std::vector<unsigned> failCount;
    std::vector<unsigned> dispatchCount; ///< wire `attempt` source
    std::vector<Clock::time_point> earliest; ///< backoff gate
    std::deque<std::size_t> pending;

    std::ofstream journal;

    std::vector<std::shared_ptr<WorkerConn>> workers;
    std::uint64_t nextWorkerId = 1;
    std::map<std::uint64_t, Assignment> assignments;
    std::uint64_t nextAssignId = 1;
    std::map<std::string, unsigned> strikes;
    std::set<std::string> quarantinedNames;

    ShardStats stats;
    bool conflict = false;
    Error conflictError;
    bool draining = false;

    std::thread acceptThread;

    // ---- socket plumbing -------------------------------------------

    Status
    bindListeners()
    {
        if (opt.listenUnix.empty() && opt.listenTcp < 0)
            return makeError(ErrorKind::Io,
                             "coordinate: no listener configured "
                             "(need a unix path and/or a TCP port)");
        if (!opt.listenUnix.empty()) {
            sockaddr_un sa = {};
            if (opt.listenUnix.size() >= sizeof(sa.sun_path))
                return makeError(ErrorKind::Bounds,
                                 "unix socket path too long: ",
                                 opt.listenUnix);
            unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (unixFd < 0)
                return makeError(ErrorKind::Io, "socket(AF_UNIX): ",
                                 std::strerror(errno));
            sa.sun_family = AF_UNIX;
            std::strncpy(sa.sun_path, opt.listenUnix.c_str(),
                         sizeof(sa.sun_path) - 1);
            ::unlink(opt.listenUnix.c_str());
            if (::bind(unixFd, reinterpret_cast<sockaddr *>(&sa),
                       sizeof(sa)) != 0 ||
                ::listen(unixFd, 64) != 0)
                return makeError(ErrorKind::Io, "cannot listen on ",
                                 opt.listenUnix, ": ",
                                 std::strerror(errno));
        }
        if (opt.listenTcp >= 0) {
            tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (tcpFd < 0)
                return makeError(ErrorKind::Io, "socket(AF_INET): ",
                                 std::strerror(errno));
            int one = 1;
            ::setsockopt(tcpFd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            sockaddr_in sa = {};
            sa.sin_family = AF_INET;
            sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            sa.sin_port =
                htons(static_cast<std::uint16_t>(opt.listenTcp));
            if (::bind(tcpFd, reinterpret_cast<sockaddr *>(&sa),
                       sizeof(sa)) != 0 ||
                ::listen(tcpFd, 64) != 0)
                return makeError(ErrorKind::Io,
                                 "cannot listen on 127.0.0.1:",
                                 opt.listenTcp, ": ",
                                 std::strerror(errno));
            socklen_t len = sizeof(sa);
            ::getsockname(tcpFd, reinterpret_cast<sockaddr *>(&sa),
                          &len);
            boundTcpPort = ntohs(sa.sin_port);
        }
        return okStatus();
    }

    void
    closeListeners()
    {
        if (unixFd >= 0) {
            ::close(unixFd);
            unixFd = -1;
            ::unlink(opt.listenUnix.c_str());
        }
        if (tcpFd >= 0) {
            ::close(tcpFd);
            tcpFd = -1;
        }
    }

    /** Send one frame to a worker; false cuts the connection. */
    bool
    sendToWorker(WorkerConn &w, const std::string &frame)
    {
        std::lock_guard<std::mutex> g(w.writeMu);
        if (w.writeShut)
            return false;
        if (!writeAllFd(w.fd, frame.data(), frame.size())) {
            w.writeShut = true;
            ::shutdown(w.fd, SHUT_RDWR);
            return false;
        }
        return true;
    }

    // ---- accept + reader threads -----------------------------------

    void
    acceptLoop()
    {
        while (!stopping.load(std::memory_order_acquire)) {
            pollfd fds[2];
            nfds_t nf = 0;
            int unix_at = -1, tcp_at = -1;
            if (unixFd >= 0) {
                unix_at = static_cast<int>(nf);
                fds[nf++] = {unixFd, POLLIN, 0};
            }
            if (tcpFd >= 0) {
                tcp_at = static_cast<int>(nf);
                fds[nf++] = {tcpFd, POLLIN, 0};
            }
            int pr = ::poll(fds, nf, 100);
            if (pr < 0 && errno != EINTR)
                break;
            if (pr <= 0)
                continue;
            if (unix_at >= 0 && (fds[unix_at].revents & POLLIN))
                acceptOne(unixFd);
            if (tcp_at >= 0 && (fds[tcp_at].revents & POLLIN))
                acceptOne(tcpFd);
        }
    }

    void
    acceptOne(int listener)
    {
        int fd = acceptRetryFd(listener);
        if (fd < 0)
            return;
        auto w = std::make_shared<WorkerConn>();
        w->fd = fd;
        {
            std::lock_guard<std::mutex> g(mu);
            w->id = nextWorkerId++;
            workers.push_back(w);
        }
        w->reader = std::thread([this, w] { readerLoop(*w); });
    }

    void
    readerLoop(WorkerConn &w)
    {
        FrameReader frames;
        char buf[64 * 1024];
        bool alive = true;
        while (alive && !stopping.load(std::memory_order_acquire)) {
            pollfd p = {w.fd, POLLIN, 0};
            int pr = ::poll(&p, 1, 100);
            if (pr < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (pr == 0)
                continue;
            if (!(p.revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            long rn = readSomeFd(w.fd, buf, sizeof(buf));
            if (rn == 0)
                break;
            if (rn < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    continue;
                break;
            }
            frames.feed(buf, static_cast<std::size_t>(rn));
            for (;;) {
                FrameReader::State fs = frames.poll();
                if (fs == FrameReader::State::NeedMore)
                    break;
                if (fs == FrameReader::State::Broken) {
                    std::lock_guard<std::mutex> g(mu);
                    warn("coordinate: torn frame stream from worker '",
                         w.name, "': ", frames.error().message);
                    strikeLocked(w.name);
                    alive = false;
                    break;
                }
                if (!handleFrame(w, frames.take())) {
                    alive = false;
                    break;
                }
            }
        }
        std::lock_guard<std::mutex> g(mu);
        markGoneLocked(w);
        cv.notify_all();
    }

    /** Dispatch one frame from @p w. False ends the connection. */
    bool
    handleFrame(WorkerConn &w, Frame f)
    {
        std::lock_guard<std::mutex> g(mu);
        if (!w.ready) {
            if (f.type != FrameType::Hello) {
                warn("coordinate: worker sent ", frameTypeName(f.type),
                     " before hello");
                return false;
            }
            Result<HelloRequest> hello = decodeHello(f.payload);
            if (!hello) {
                warn("coordinate: bad hello: ",
                     hello.error().message);
                return false;
            }
            w.name = hello.value().client;
            if (quarantinedNames.count(w.name)) {
                sendToWorker(
                    w, encodeErrorReply(
                           FrameType::Quarantined,
                           ErrorReply{0, ErrorKind::Worker,
                                      "worker is quarantined"}));
                return false;
            }
            w.ready = true;
            ++stats.workersSeen;
            cv.notify_all();
            return true;
        }
        switch (f.type) {
          case FrameType::CellResult:
            return handleCellResultLocked(w, f.payload);
          case FrameType::ShardDone:
            return handleShardDoneLocked(w, f.payload);
          case FrameType::Heartbeat:
            return handleHeartbeatLocked(w, f.payload);
          case FrameType::Bye:
            return false;
          default:
            warn("coordinate: unexpected ", frameTypeName(f.type),
                 " frame from worker '", w.name, "'");
            strikeLocked(w.name);
            return false;
        }
    }

    bool
    handleCellResultLocked(WorkerConn &w, const std::string &payload)
    {
        Result<CellResultReply> r = decodeCellResult(payload);
        if (!r)
            return poisonLocked(w, r.error().message);
        const CellResultReply &cr = r.value();
        if (cr.index >= n)
            return poisonLocked(w, "cell index out of range");
        Result<std::pair<std::size_t, SimSummary>> decoded =
            decodeSummaryLine(cr.summaryLine);
        if (!decoded)
            return poisonLocked(w, decoded.error().message);
        const auto &[idx, s] = decoded.value();
        if (idx != cr.index)
            return poisonLocked(w, "summary line names another cell");
        const SimJob &job = (*jobs)[idx];
        if (s.kind != job.kind || s.l1Size != job.l1Size ||
            s.l2Size != job.l2Size || s.split != job.split ||
            s.timingMode != job.timingMode)
            return poisonLocked(w,
                                "summary geometry does not match the "
                                "assigned cell");

        // Dedup by stable cell id: the first valid result wins; a
        // straggler's late copy must be byte-identical to be dropped
        // silently, otherwise somebody computed a wrong answer and
        // the run must not paper over it.
        if (res.completed[idx]) {
            if (lines[idx] == cr.summaryLine) {
                ++stats.duplicateResults;
            } else if (!conflict) {
                conflict = true;
                conflictError = makeError(
                    ErrorKind::Mismatch, conflictPrefix,
                    " for cell ", idx, " (id ", std::hex,
                    cellIds[idx], std::dec, "): worker '", w.name,
                    "' disagrees with the journaled line");
                cv.notify_all();
            }
            noteProgressLocked(w, cr.assignId);
            return !conflict;
        }
        res.completed[idx] = true;
        res.summaries[idx] = s;
        lines[idx] = cr.summaryLine;
        ++stats.cellResults;
        if (journal.is_open()) {
            journal << cr.summaryLine << "\n";
            journal.flush();
        }
        noteProgressLocked(w, cr.assignId);
        cv.notify_all();
        return true;
    }

    void
    noteProgressLocked(WorkerConn &w, std::uint64_t assignId)
    {
        auto it = assignments.find(assignId);
        if (it != assignments.end() && it->second.workerId == w.id)
            it->second.lastProgress = Clock::now();
    }

    bool
    handleShardDoneLocked(WorkerConn &w, const std::string &payload)
    {
        Result<ShardDoneReply> r = decodeShardDone(payload);
        if (!r)
            return poisonLocked(w, r.error().message);
        const ShardDoneReply &d = r.value();
        for (const ShardFailureInfo &f : d.failures) {
            if (f.index >= n)
                return poisonLocked(w, "failure index out of range");
            warn("coordinate: worker '", w.name, "' failed cell ",
                 f.index, ": ", f.message);
            recordCellFailureLocked(f.index, f.kind, f.message,
                                    f.kind == ErrorKind::Timeout);
        }
        auto it = assignments.find(d.assignId);
        if (it != assignments.end() && it->second.workerId == w.id) {
            it->second.active = false;
            if (w.assignment ==
                static_cast<std::int64_t>(it->second.id))
                w.assignment = -1;
        }
        cv.notify_all();
        return true;
    }

    bool
    handleHeartbeatLocked(WorkerConn &w, const std::string &payload)
    {
        Result<HeartbeatMsg> r = decodeHeartbeat(payload);
        if (!r)
            return poisonLocked(w, r.error().message);
        ++stats.heartbeats;
        noteProgressLocked(w, r.value().assignId);
        return true;
    }

    /** A worker sent garbage: strike it and cut the connection. */
    bool
    poisonLocked(WorkerConn &w, const std::string &why)
    {
        warn("coordinate: poisoning worker '", w.name, "': ", why);
        strikeLocked(w.name);
        return false;
    }

    void
    strikeLocked(const std::string &name)
    {
        if (name.empty())
            return;
        unsigned s = ++strikes[name];
        if (s >= opt.workerStrikeLimit &&
            !quarantinedNames.count(name)) {
            quarantinedNames.insert(name);
            ++stats.workersQuarantined;
            warn("coordinate: quarantining worker '", name, "' after ",
                 s, " strikes");
            for (auto &w : workers) {
                if (w->name != name || w->gone)
                    continue;
                sendToWorker(
                    *w, encodeErrorReply(
                            FrameType::Quarantined,
                            ErrorReply{0, ErrorKind::Worker,
                                       "worker is quarantined"}));
                std::lock_guard<std::mutex> g(w->writeMu);
                w->writeShut = true;
                ::shutdown(w->fd, SHUT_RDWR);
            }
        }
    }

    /** The connection died: return its unfinished cells to the pool. */
    void
    markGoneLocked(WorkerConn &w)
    {
        if (w.gone)
            return;
        w.gone = true;
        {
            std::lock_guard<std::mutex> g(w.writeMu);
            w.writeShut = true;
            ::shutdown(w.fd, SHUT_RDWR);
        }
        if (w.ready && !stopping.load(std::memory_order_acquire))
            ++stats.workersLost;
        if (w.assignment >= 0) {
            auto it = assignments.find(
                static_cast<std::uint64_t>(w.assignment));
            if (it != assignments.end() && it->second.active) {
                Assignment &a = it->second;
                a.active = false;
                if (!stopping.load(std::memory_order_acquire)) {
                    std::ostringstream os;
                    os << "lost worker '" << w.name
                       << "' mid-shard";
                    for (std::size_t idx : a.cells)
                        if (!res.completed[idx])
                            recordCellFailureLocked(
                                idx, ErrorKind::Worker, os.str(),
                                false);
                }
            }
            w.assignment = -1;
        }
    }

    /**
     * One definite failure for @p idx: bounded retry with backoff,
     * then quarantine. Results that arrive later anyway (a straggler
     * finishing after its loss was declared) still count -- the
     * quarantine list is filtered against completions at the end.
     */
    void
    recordCellFailureLocked(std::size_t idx, ErrorKind kind,
                            const std::string &message, bool timedOut)
    {
        if (res.completed[idx] || cellQuarantined[idx])
            return;
        unsigned fails = ++failCount[idx];
        CellFailure f;
        f.index = idx;
        f.attempts = fails;
        f.timedOut = timedOut;
        f.kind = kind;
        f.error = message;
        lastFail[idx] = f;
        if (fails > opt.maxRetries) {
            cellQuarantined[idx] = true;
            warn("coordinate: cell ", idx, " quarantined after ",
                 fails, " failed dispatch", fails == 1 ? "" : "es",
                 ": ", message);
            return;
        }
        double backoff =
            opt.backoffSeconds *
            static_cast<double>(std::uint64_t{1}
                                << std::min(fails - 1, 20u));
        backoff = std::min(backoff, opt.backoffCapSeconds);
        earliest[idx] =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(backoff));
        pending.push_back(idx);
    }

    // ---- scheduler -------------------------------------------------

    /** Straggler watchdog: one pass over the active assignments. */
    void
    watchdogLocked(Clock::time_point now)
    {
        if (opt.deadlineSeconds <= 0.0)
            return;
        for (auto &[id, a] : assignments) {
            if (!a.active)
                continue;
            double quiet =
                std::chrono::duration<double>(now - a.lastProgress)
                    .count();
            if (quiet < opt.deadlineSeconds)
                continue;
            std::vector<std::size_t> missing;
            for (std::size_t idx : a.cells)
                if (!res.completed[idx] && !cellQuarantined[idx])
                    missing.push_back(idx);
            if (missing.empty() || draining) {
                // Nothing left to rescue (or we are draining and
                // must not start new work): abandon the assignment.
                a.active = false;
                for (auto &w : workers)
                    if (w->id == a.workerId &&
                        w->assignment ==
                            static_cast<std::int64_t>(a.id))
                        w->assignment = -1;
                continue;
            }
            // One rescue per assignment: a stalled shard earns its
            // worker one strike and one speculative copy, not a new
            // strike every deadline period while it sleeps.
            if (a.speculated)
                continue;
            a.speculated = true;
            warn("coordinate: worker '", a.workerName,
                 "' is a straggler on assignment ", a.id, " (",
                 missing.size(), " cells quiet for ", quiet,
                 " s); re-dispatching speculatively");
            ++stats.speculativeDispatches;
            strikeLocked(a.workerName);
            // Speculate: the lagging range goes back in the queue
            // while the original assignment stays live -- whichever
            // copy lands first wins, the other is a dedup discard.
            for (std::size_t idx : missing)
                pending.push_front(idx);
        }
    }

    /** Hand pending cells to idle workers. */
    void
    dispatchLocked()
    {
        if (draining || conflict)
            return;
        Clock::time_point now = Clock::now();
        for (auto &w : workers) {
            if (pending.empty())
                return;
            if (!w->ready || w->gone || w->assignment >= 0 ||
                quarantinedNames.count(w->name))
                continue;
            std::size_t shard_size =
                opt.cellsPerShard
                    ? opt.cellsPerShard
                    : std::max<std::size_t>(1, n / 4);
            std::vector<std::size_t> cells;
            std::deque<std::size_t> deferred;
            while (!pending.empty() && cells.size() < shard_size) {
                std::size_t idx = pending.front();
                pending.pop_front();
                if (res.completed[idx] || cellQuarantined[idx])
                    continue;
                if (earliest[idx] > now) {
                    deferred.push_back(idx);
                    continue;
                }
                cells.push_back(idx);
            }
            for (std::size_t idx : deferred)
                pending.push_back(idx);
            if (cells.empty())
                return;

            ShardAssignment assign;
            assign.assignId = nextAssignId++;
            assign.campaignKey = key;
            assign.profileName = bundle->profile.name;
            assign.scale = opt.profileScale;
            assign.cells.reserve(cells.size());
            for (std::size_t idx : cells) {
                ShardCell c;
                c.index = static_cast<std::uint32_t>(idx);
                // The attempt counts every dispatch (including
                // speculative copies), so deterministic fault
                // injection keyed on (cell, attempt) fires once and
                // the rescue completes.
                c.attempt = dispatchCount[idx]++;
                c.job = (*jobs)[idx];
                assign.cells.push_back(c);
            }
            Assignment a;
            a.id = assign.assignId;
            a.workerId = w->id;
            a.workerName = w->name;
            a.cells = cells;
            a.lastProgress = now;
            a.active = true;
            if (!sendToWorker(*w, encodeShardAssign(assign))) {
                // The write failed: the reader will notice EOF and
                // recycle the cells; just put them straight back.
                for (std::size_t idx : cells)
                    pending.push_front(idx);
                continue;
            }
            ++stats.assignmentsDispatched;
            w->assignment = static_cast<std::int64_t>(a.id);
            assignments[a.id] = std::move(a);
        }
    }

    bool
    allSettledLocked() const
    {
        for (std::size_t i = 0; i < n; ++i)
            if (!res.completed[i] && !cellQuarantined[i])
                return false;
        return true;
    }

    bool
    anyActiveLocked() const
    {
        for (const auto &[id, a] : assignments)
            if (a.active)
                return true;
        return false;
    }
};

ShardCoordinator::ShardCoordinator(ShardCoordinatorOptions opt)
    : _impl(std::make_unique<Impl>())
{
    _impl->opt = std::move(opt);
}

ShardCoordinator::~ShardCoordinator()
{
    _impl->stopping.store(true, std::memory_order_release);
    if (_impl->acceptThread.joinable())
        _impl->acceptThread.join();
    for (auto &w : _impl->workers) {
        if (w->fd >= 0) {
            std::lock_guard<std::mutex> g(w->writeMu);
            w->writeShut = true;
            ::shutdown(w->fd, SHUT_RDWR);
        }
        if (w->reader.joinable())
            w->reader.join();
        if (w->fd >= 0)
            ::close(w->fd);
    }
    _impl->closeListeners();
}

Status
ShardCoordinator::bind()
{
    return _impl->bindListeners();
}

int
ShardCoordinator::tcpPort() const
{
    return _impl->boundTcpPort;
}

ShardStats
ShardCoordinator::stats() const
{
    std::lock_guard<std::mutex> g(_impl->mu);
    return _impl->stats;
}

bool
ShardCoordinator::conflictDetected() const
{
    std::lock_guard<std::mutex> g(_impl->mu);
    return _impl->conflict;
}

Result<CampaignResult>
ShardCoordinator::run(const TraceBundle &bundle,
                      const std::vector<SimJob> &jobs)
{
    Impl &im = *_impl;
    if (im.unixFd < 0 && im.tcpFd < 0) {
        Status bound = im.bindListeners();
        if (!bound)
            return bound.error();
    }

    im.bundle = &bundle;
    im.jobs = &jobs;
    im.key = campaignKey(bundle, jobs);
    im.n = jobs.size();
    im.res.summaries.resize(im.n);
    im.res.completed.assign(im.n, false);
    im.lines.resize(im.n);
    im.cellQuarantined.assign(im.n, false);
    im.lastFail.resize(im.n);
    im.failCount.assign(im.n, 0);
    im.dispatchCount.assign(im.n, 0);
    im.earliest.assign(im.n, Clock::time_point{});

    im.cellIds.resize(im.n);
    for (std::size_t i = 0; i < im.n; ++i) {
        im.cellIds[i] = shardCellId(bundle, jobs[i]);
        auto [it, fresh] = im.idToIndex.emplace(im.cellIds[i], i);
        if (!fresh)
            return makeError(ErrorKind::Bounds, "cells ", it->second,
                             " and ", i,
                             " have identical content (the grid has "
                             "duplicate jobs)");
    }

    // Resume: the journal IS the recovery state. Replay it, then
    // dispatch only what is missing.
    if (!im.opt.checkpoint.empty()) {
        bool append = false;
        if (im.opt.resume) {
            std::ifstream in(im.opt.checkpoint);
            if (in) {
                Result<JournalContents> loaded =
                    tryLoadJournal(in, im.opt.checkpoint);
                if (!loaded)
                    return loaded.error();
                const JournalContents &j = loaded.value();
                if (j.key != im.key)
                    return makeErrorAt(
                        ErrorKind::Mismatch, im.opt.checkpoint, 2,
                        "checkpoint belongs to a different campaign "
                        "(key ",
                        j.key, ", this campaign is ", im.key, ")");
                if (j.cells != im.n)
                    return makeErrorAt(
                        ErrorKind::Mismatch, im.opt.checkpoint, 2,
                        "checkpoint cell count ", j.cells,
                        " does not match this campaign (", im.n,
                        " cells)");
                for (std::size_t i = 0; i < im.n; ++i) {
                    if (!j.present[i])
                        continue;
                    im.res.completed[i] = true;
                    im.res.summaries[i] = j.summaries[i];
                    im.lines[i] = j.lines[i];
                    ++im.res.restored;
                }
                append = true;
            }
        }
        im.journal.open(im.opt.checkpoint,
                        append ? std::ios::app : std::ios::trunc);
        if (!im.journal)
            return makeError(ErrorKind::Io,
                             "cannot open checkpoint journal for "
                             "writing: ",
                             im.opt.checkpoint);
        if (!append) {
            im.journal << "vrc-campaign-checkpoint v1\nkey " << im.key
                       << " cells " << im.n << "\n";
            im.journal.flush();
        }
    }

    for (std::size_t i = 0; i < im.n; ++i)
        if (!im.res.completed[i])
            im.pending.push_back(i);

    im.acceptThread = std::thread([&im] { im.acceptLoop(); });

    {
        std::unique_lock<std::mutex> lk(im.mu);
        for (;;) {
            if (im.conflict)
                break;
            im.draining = shutdownRequested() > 0;
            if (im.allSettledLocked())
                break;
            if (im.draining && !im.anyActiveLocked())
                break;
            im.watchdogLocked(Clock::now());
            im.dispatchLocked();
            im.cv.wait_for(lk, std::chrono::milliseconds(50));
        }
    }

    // Teardown: stop accepting, wave goodbye, join the readers.
    im.stopping.store(true, std::memory_order_release);
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    for (auto &w : im.workers) {
        im.sendToWorker(*w, encodeBye());
        {
            std::lock_guard<std::mutex> g(w->writeMu);
            w->writeShut = true;
            ::shutdown(w->fd, SHUT_RDWR);
        }
        if (w->reader.joinable())
            w->reader.join();
        ::close(w->fd);
        w->fd = -1;
    }
    im.closeListeners();

    std::lock_guard<std::mutex> g(im.mu);
    if (im.conflict) {
        if (im.journal.is_open())
            im.journal.close();
        return im.conflictError;
    }

    im.res.interrupted = shutdownRequested() > 0;
    for (std::size_t i = 0; i < im.n; ++i)
        if (im.cellQuarantined[i] && !im.res.completed[i])
            im.res.quarantined.push_back(im.lastFail[i]);
    std::sort(im.res.quarantined.begin(), im.res.quarantined.end(),
              [](const CellFailure &a, const CellFailure &b) {
                  return a.index < b.index;
              });

    // Same canonicalization contract as CampaignRunner::run(): a
    // finished run's journal depends only on what completed.
    if (im.journal.is_open()) {
        im.journal.close();
        if (!im.res.interrupted) {
            JournalContents canon;
            canon.key = im.key;
            canon.cells = im.n;
            canon.present = im.res.completed;
            canon.lines = im.lines;
            Status rewrote = writeFileAtomic(
                im.opt.checkpoint, canonicalJournalText(canon));
            if (!rewrote)
                warn("cannot canonicalize checkpoint journal ",
                     im.opt.checkpoint, ": ",
                     rewrote.error().message);
        }
    }

    if (!im.opt.manifest.empty()) {
        Status wrote = writeFileAtomic(
            im.opt.manifest, failureManifestToJson(im.res) + "\n");
        if (!wrote)
            warn("cannot write failure manifest ", im.opt.manifest,
                 ": ", wrote.error().message);
    }
    return im.res;
}

// ---- worker ---------------------------------------------------------

namespace
{

/** Per-assignment heartbeat pump. */
struct HeartbeatPump
{
    ServeClient &client;
    std::mutex &sendMu;
    std::uint64_t assignId;
    double period;
    std::atomic<bool> stop{false};
    std::atomic<bool> pause{false};
    std::atomic<std::uint32_t> cellsDone{0};
    std::thread th;

    HeartbeatPump(ServeClient &c, std::mutex &m, std::uint64_t id,
                  double p)
        : client(c), sendMu(m), assignId(id), period(p)
    {
        th = std::thread([this] { pump(); });
    }

    ~HeartbeatPump()
    {
        stop.store(true, std::memory_order_release);
        th.join();
    }

    void
    pump()
    {
        double slept = period; // heartbeat immediately on start
        while (!stop.load(std::memory_order_acquire)) {
            if (slept >= period) {
                slept = 0.0;
                if (!pause.load(std::memory_order_acquire)) {
                    std::lock_guard<std::mutex> g(sendMu);
                    Status sent = client.send(encodeHeartbeat(
                        HeartbeatMsg{assignId,
                                     cellsDone.load()}));
                    if (!sent)
                        return; // coordinator is gone; cell send
                                // will notice too
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            slept += 0.02;
        }
    }
};

} // namespace

Result<ShardWorkerStats>
runShardWorker(const ShardWorkerOptions &opt)
{
    ServeClient client;
    if (!opt.connectUnix.empty()) {
        Status c = client.connectUnix(opt.connectUnix);
        if (!c)
            return c.error();
    } else if (opt.connectTcp >= 0) {
        Status c = client.connectTcp(opt.connectTcp);
        if (!c)
            return c.error();
    } else {
        return makeError(ErrorKind::Io,
                         "shard-worker: no coordinator address "
                         "(need --connect-unix or --connect-tcp)");
    }

    std::mutex sendMu;
    {
        std::lock_guard<std::mutex> g(sendMu);
        Status h = client.hello(opt.name);
        if (!h)
            return h.error();
    }

    ShardWorkerStats stats;

    // Workers regenerate traces locally: deterministic generation
    // means the bytes never need to cross the wire. Cache by
    // (profile, exact scale bits) across assignments.
    std::map<std::pair<std::string, std::uint64_t>, TraceBundle>
        bundles;
    auto bundleFor = [&](const std::string &profile,
                         double scale) -> const TraceBundle & {
        std::uint64_t bits;
        std::memcpy(&bits, &scale, sizeof(bits));
        auto key = std::make_pair(profile, bits);
        auto it = bundles.find(key);
        if (it == bundles.end())
            it = bundles
                     .emplace(key, generateTrace(scaled(
                                       profileByName(profile), scale)))
                     .first;
        return it->second;
    };

    for (;;) {
        Result<Frame> fr = client.readFrame(opt.idleTimeoutSeconds);
        if (!fr) {
            // EOF is the coordinator's normal teardown; an idle
            // timeout means it silently died. Either way, stop
            // cleanly -- the coordinator's books are authoritative.
            return stats;
        }
        Frame f = fr.take();
        switch (f.type) {
          case FrameType::Bye:
          case FrameType::Draining:
          case FrameType::Quarantined:
            return stats;
          case FrameType::ShardAssign:
            break;
          default:
            return makeError(ErrorKind::Format,
                             "unexpected ", frameTypeName(f.type),
                             " frame from the coordinator");
        }

        Result<ShardAssignment> ar = decodeShardAssign(f.payload);
        if (!ar)
            return ar.error();
        ShardAssignment assign = ar.take();
        ++stats.assignments;

        ShardDoneReply done;
        done.assignId = assign.assignId;

        if (assign.profileName != "pops" &&
            assign.profileName != "thor" &&
            assign.profileName != "abaqus") {
            for (const ShardCell &cell : assign.cells)
                done.failures.push_back(
                    {cell.index, ErrorKind::Bounds,
                     "unknown workload profile '" +
                         assign.profileName + "'"});
            std::lock_guard<std::mutex> g(sendMu);
            Status sent = client.send(encodeShardDone(done));
            if (!sent)
                return stats;
            continue;
        }
        const TraceBundle &bundle =
            bundleFor(assign.profileName, assign.scale);

        HeartbeatPump hb(client, sendMu, assign.assignId,
                         opt.heartbeatSeconds);
        for (const ShardCell &cell : assign.cells) {
            ShardFaultKind fault =
                maybeInjectShardFault(cell.index, cell.attempt);
            if (fault == ShardFaultKind::Crash) {
                warn("shard-worker '", opt.name,
                     "': injected crash before cell ", cell.index);
                std::_Exit(137);
            }
            if (fault == ShardFaultKind::Stall) {
                // Freeze: mute the heartbeats and sleep through the
                // coordinator's deadline, then wake and carry on --
                // the classic straggler. Our late results arrive as
                // dedup discards.
                warn("shard-worker '", opt.name,
                     "': injected stall before cell ", cell.index);
                hb.pause.store(true, std::memory_order_release);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        faultConfig().stallSeconds));
                hb.pause.store(false, std::memory_order_release);
            }
            try {
                CancelToken token;
                SimSummary s = runSimulationCancellable(
                    bundle, cell.job, token);
                std::string line =
                    encodeSummaryLine(cell.index, s);
                std::string frame = encodeCellResult(CellResultReply{
                    assign.assignId, cell.index, line});
                if (fault == ShardFaultKind::Tear) {
                    warn("shard-worker '", opt.name,
                         "': injected reply tear on cell ",
                         cell.index);
                    std::lock_guard<std::mutex> g(sendMu);
                    [[maybe_unused]] Status torn = client.send(
                        frame.substr(0, frame.size() / 2));
                    std::_Exit(141);
                }
                {
                    std::lock_guard<std::mutex> g(sendMu);
                    Status sent = client.send(frame);
                    if (!sent)
                        return stats;
                }
                ++done.completed;
                hb.cellsDone.fetch_add(1);
                ++stats.cellsRun;
            } catch (const ErrorException &e) {
                done.failures.push_back({cell.index, e.err().kind,
                                         e.err().message});
                ++stats.cellsFailed;
            } catch (const std::exception &e) {
                done.failures.push_back(
                    {cell.index, ErrorKind::Worker, e.what()});
                ++stats.cellsFailed;
            }
        }
        std::lock_guard<std::mutex> g(sendMu);
        Status sent = client.send(encodeShardDone(done));
        if (!sent)
            return stats;
    }
}

} // namespace vrc
