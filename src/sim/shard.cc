#include "sim/shard.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "base/log.hh"
#include "base/shutdown.hh"
#include "serve/client.hh"
#include "serve/wire.hh"

namespace vrc
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char *conflictPrefix = "conflicting summaries";

} // namespace

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
            m.merged = JournalContents(j.key, j.cells);
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

std::string
ServerAddress::describe() const
{
    return unixPath.empty() ? "tcp:" + std::to_string(tcpPort)
                            : "unix:" + unixPath;
}

std::uint64_t
cellSegmentId(std::size_t cell, unsigned dispatch)
{
    return (std::uint64_t{dispatch} + 1) << 32 | cell;
}

namespace
{

/** One dialled server; it runs at most one of our cells at a time. */
struct ServerConn
{
    std::string name; ///< its address, for messages
    ServeClient client;
    bool gone = false; ///< lost or quarantined: no more dispatch
    unsigned strikes = 0;
    std::int64_t cell = -1;      ///< the cell in flight; -1 = idle
    std::uint64_t segmentId = 0; ///< of the dispatch in flight
    Clock::time_point sentAt;
    bool speculated = false; ///< the deadline already fired for it
    std::thread reader;
};

} // namespace

struct ShardCoordinator::Impl
{
    ShardCoordinatorOptions opt;

    // All coordinator state below is guarded by mu; cv wakes the
    // scheduler loop on every event (reply, loss).
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> stopping{false};

    const TraceBundle *bundle = nullptr;
    const std::vector<SimJob> *jobs = nullptr;
    std::size_t n = 0;
    std::vector<std::uint64_t> cellIds;

    std::optional<CellLedger> ledger;
    std::vector<unsigned> dispatchCount; ///< segment id source
    std::vector<Clock::time_point> earliest; ///< backoff gate
    std::deque<std::size_t> pending;

    std::vector<std::unique_ptr<ServerConn>> servers;

    ShardStats stats;
    bool conflict = false;
    Error conflictError;
    bool draining = false;

    // ---- reader threads --------------------------------------------

    void
    readerLoop(ServerConn &s)
    {
        std::string why = "connection closed";
        // Short turns, so a stopping coordinator is noticed.
        while (!stopping.load(std::memory_order_acquire)) {
            Result<Frame> f = s.client.readFrame(0.1);
            if (f) {
                std::lock_guard<std::mutex> g(mu);
                if (handleFrameLocked(s, f.take()))
                    continue;
                break;
            }
            if (f.error().kind == ErrorKind::Timeout)
                continue;
            why = f.error().message;
            if (f.error().kind != ErrorKind::Io) { // a broken stream
                std::lock_guard<std::mutex> g(mu);
                strikeLocked(s);
            }
            break;
        }
        std::lock_guard<std::mutex> g(mu);
        loseLocked(s, why);
    }

    /** Act on one frame from @p s. False ends the connection. */
    bool
    handleFrameLocked(ServerConn &s, const Frame &f)
    {
        if (s.gone)
            return false;
        switch (f.type) {
          case FrameType::Result:
            return handleResultLocked(s, f.payload);
          case FrameType::Error:
          case FrameType::Shed:
            return handleRefusalLocked(s, f);
          case FrameType::Draining:
          case FrameType::Quarantined:
          case FrameType::Bye:
            loseLocked(s, std::string("it sent ") + frameTypeName(f.type));
            return false;
          default:
            return poisonLocked(s, std::string("unexpected ") +
                                       frameTypeName(f.type) + " frame");
        }
    }

    /** The in-flight cell a reply for @p segmentId answers, if any. */
    std::optional<std::size_t>
    inFlightCell(const ServerConn &s, std::uint64_t segmentId) const
    {
        if (s.cell < 0 || segmentId != s.segmentId)
            return std::nullopt;
        return static_cast<std::size_t>(s.cell);
    }

    bool
    handleResultLocked(ServerConn &s, const std::string &payload)
    {
        Result<ResultReply> r = decodeResult(payload);
        if (!r)
            return poisonLocked(s, r.error().message);
        std::optional<std::size_t> cell =
            inFlightCell(s, r.value().segmentId);
        if (!cell)
            return poisonLocked(s, "result for a cell not in flight");
        Result<std::pair<std::size_t, SimSummary>> decoded =
            decodeSummaryLine(r.value().summaryLine);
        if (!decoded)
            return poisonLocked(s, decoded.error().message);
        const std::size_t idx = *cell;
        const SimSummary &sum = decoded.value().second;
        const SimJob &job = (*jobs)[idx];
        if (sum.kind != job.kind || sum.l1Size != job.l1Size ||
            sum.l2Size != job.l2Size || sum.split != job.split ||
            sum.timingMode != job.timingMode)
            return poisonLocked(s, "summary geometry does not match the "
                                   "dispatched cell");
        s.cell = -1;
        cv.notify_all();

        // Dedup by stable cell id: the first valid result wins; a
        // straggler's late copy must be byte-identical to be dropped
        // silently, otherwise somebody computed a wrong answer and
        // the run must not paper over it.
        const std::string line = encodeSummaryLine(idx, sum);
        if (!ledger->completed(idx)) {
            ledger->complete(idx, sum, line);
            ++stats.cellResults;
        } else if (ledger->line(idx) == line) {
            ++stats.duplicateResults;
        } else if (!conflict) {
            conflict = true;
            conflictError = makeError(
                ErrorKind::Mismatch, conflictPrefix, " for cell ", idx,
                " (id ", std::hex, cellIds[idx], std::dec, "): server ",
                s.name, " disagrees with the journaled line");
        }
        return !conflict;
    }

    /** ERROR fails the cell; SHED puts it back in the queue. */
    bool
    handleRefusalLocked(ServerConn &s, const Frame &f)
    {
        Result<ErrorReply> r = decodeErrorReply(f.payload);
        if (!r)
            return poisonLocked(s, r.error().message);
        const ErrorReply &e = r.value();
        if (e.segmentId == 0) { // the server is ending the session
            loseLocked(s, e.message);
            return false;
        }
        std::optional<std::size_t> cell = inFlightCell(s, e.segmentId);
        if (!cell)
            return poisonLocked(s, "reply for a cell not in flight");
        s.cell = -1;
        cv.notify_all();
        if (f.type == FrameType::Shed) {
            // Backpressure, not a failure: no strike and no retry
            // counted, only a pause before the cell goes out again.
            earliest[*cell] = Clock::now() + seconds(opt.backoffSeconds);
            pending.push_back(*cell);
            return true;
        }
        warn("coordinate: server ", s.name, " failed cell ", *cell, ": ",
             e.message);
        recordCellFailureLocked(*cell, e.kind, e.message);
        return true;
    }

    /** @p s broke the protocol: strike it and drop it. */
    bool
    poisonLocked(ServerConn &s, const std::string &why)
    {
        warn("coordinate: poisoning server ", s.name, ": ", why);
        strikeLocked(s);
        loseLocked(s, why);
        return false;
    }

    void
    strikeLocked(ServerConn &s)
    {
        if (s.gone || ++s.strikes < opt.workerStrikeLimit)
            return;
        ++stats.serversQuarantined;
        warn("coordinate: quarantining server ", s.name, " after ",
             s.strikes, " strikes");
        loseLocked(s, "quarantined");
    }

    /**
     * @p s is gone: it gets no more cells, and the cell it was running
     * fails into the ledger (unless the coordinator is stopping).
     */
    void
    loseLocked(ServerConn &s, const std::string &why)
    {
        if (s.gone)
            return;
        s.gone = true;
        s.client.closeWrite();
        cv.notify_all();
        if (stopping.load(std::memory_order_acquire))
            return;
        ++stats.serversLost;
        warn("coordinate: lost server ", s.name, " (", why, ")");
        if (s.cell >= 0)
            recordCellFailureLocked(static_cast<std::size_t>(s.cell),
                                    ErrorKind::Worker,
                                    "lost server " + s.name +
                                        " mid-cell (" + why + ")");
        s.cell = -1;
    }

    static Clock::duration
    seconds(double s)
    {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    }

    /**
     * One definite failure for @p idx: back in the queue after the
     * ledger's backoff, unless that was its last retry. A result that
     * arrives later anyway (a straggler finishing after its loss was
     * declared) still completes the cell.
     */
    void
    recordCellFailureLocked(std::size_t idx, ErrorKind kind,
                            const std::string &message)
    {
        std::optional<double> backoff = ledger->fail(idx, kind, message);
        if (!backoff)
            return;
        earliest[idx] = Clock::now() + seconds(*backoff);
        pending.push_back(idx);
    }

    // ---- scheduler -------------------------------------------------

    /** Straggler watchdog: one pass over the cells in flight. */
    void
    watchdogLocked(Clock::time_point now)
    {
        if (opt.deadlineSeconds <= 0.0)
            return;
        for (auto &sp : servers) {
            ServerConn &s = *sp;
            if (s.gone || s.cell < 0 || s.speculated ||
                now - s.sentAt < seconds(opt.deadlineSeconds))
                continue;
            s.speculated = true;
            const std::size_t idx = static_cast<std::size_t>(s.cell);
            if (draining) {
                // No new work while draining: stop waiting for it.
                s.gone = true;
                continue;
            }
            if (ledger->settled(idx))
                continue;
            // Speculate: the cell goes back in the queue while this
            // dispatch stays live -- whichever copy lands first wins,
            // the other is a dedup discard.
            warn("coordinate: server ", s.name, " is a straggler on cell ",
                 idx, " (no reply for ", opt.deadlineSeconds,
                 " s); re-dispatching speculatively");
            ++stats.speculativeDispatches;
            pending.push_front(idx);
            strikeLocked(s);
        }
    }

    /** The first pending cell that is unsettled and past its backoff. */
    std::optional<std::size_t>
    nextCellLocked(Clock::time_point now)
    {
        std::optional<std::size_t> next;
        std::deque<std::size_t> deferred;
        while (!next && !pending.empty()) {
            std::size_t idx = pending.front();
            pending.pop_front();
            if (ledger->settled(idx))
                continue;
            if (earliest[idx] > now)
                deferred.push_back(idx);
            else
                next = idx;
        }
        pending.insert(pending.end(), deferred.begin(), deferred.end());
        return next;
    }

    /** Hand pending cells to idle servers. */
    void
    dispatchLocked()
    {
        if (draining || conflict)
            return;
        Clock::time_point now = Clock::now();
        for (auto &sp : servers) {
            ServerConn &s = *sp;
            if (s.gone || s.cell >= 0)
                continue;
            std::optional<std::size_t> idx = nextCellLocked(now);
            if (!idx)
                return;
            SubmitRequest req;
            // The dispatch count includes speculative copies, so
            // fault injection keyed on the segment id fires on one
            // dispatch and the rescue completes.
            req.segmentId = cellSegmentId(*idx, dispatchCount[*idx]++);
            req.job = (*jobs)[*idx];
            req.profileName = bundle->profile.name;
            req.scale = opt.profileScale;
            req.cell = true;
            if (!s.client.submit(req)) {
                pending.push_front(*idx);
                loseLocked(s, "write failed");
                continue;
            }
            ++stats.cellsDispatched;
            s.cell = static_cast<std::int64_t>(*idx);
            s.segmentId = req.segmentId;
            s.sentAt = now;
            s.speculated = false;
        }
    }

    bool
    allSettledLocked() const
    {
        for (std::size_t i = 0; i < n; ++i)
            if (!ledger->settled(i))
                return false;
        return true;
    }

    bool
    anyServerLocked(bool busy) const
    {
        for (const auto &s : servers)
            if (!s->gone && (!busy || s->cell >= 0))
                return true;
        return false;
    }

    /** Say goodbye to every server and join its reader. */
    void
    shutDown()
    {
        stopping.store(true, std::memory_order_release);
        for (auto &s : servers) {
            [[maybe_unused]] Status bye = s->client.send(encodeBye());
            if (s->reader.joinable())
                s->reader.join();
            s->client.close();
        }
    }
};

ShardCoordinator::ShardCoordinator(ShardCoordinatorOptions opt)
    : _impl(std::make_unique<Impl>())
{
    _impl->opt = std::move(opt);
}

ShardCoordinator::~ShardCoordinator()
{
    _impl->shutDown();
}

Status
ShardCoordinator::connect(const std::vector<ServerAddress> &servers)
{
    Impl &im = *_impl;
    std::string tried;
    for (const ServerAddress &a : servers) {
        auto s = std::make_unique<ServerConn>();
        s->name = a.describe();
        tried += " " + s->name;
        Status c = a.unixPath.empty() ? s->client.connectTcp(a.tcpPort)
                                      : s->client.connectUnix(a.unixPath);
        if (c)
            c = s->client.hello("coordinate");
        if (!c) {
            warn("coordinate: cannot reach server ", s->name, ": ",
                 c.error().message);
            continue;
        }
        std::lock_guard<std::mutex> g(im.mu);
        ++im.stats.serversConnected;
        im.servers.push_back(std::move(s));
    }
    if (im.servers.empty())
        return makeError(ErrorKind::Io, "coordinate: no server reachable"
                         " among:", tried.empty() ? " (none given)" : tried);
    return okStatus();
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
    im.bundle = &bundle;
    im.jobs = &jobs;
    im.n = jobs.size();
    im.dispatchCount.assign(im.n, 0);
    im.earliest.assign(im.n, Clock::time_point{});

    im.cellIds.resize(im.n);
    std::unordered_map<std::uint64_t, std::size_t> idToIndex;
    for (std::size_t i = 0; i < im.n; ++i) {
        im.cellIds[i] = shardCellId(bundle, jobs[i]);
        auto [it, fresh] = idToIndex.emplace(im.cellIds[i], i);
        if (!fresh)
            return makeError(ErrorKind::Bounds, "cells ", it->second,
                             " and ", i,
                             " have identical content (the grid has "
                             "duplicate jobs)");
    }

    // Resume: the journal IS the recovery state. Replay it, then
    // dispatch only what is missing.
    im.ledger.emplace(im.opt, campaignKey(bundle, jobs), im.n);
    Status opened = im.ledger->open();
    if (!opened)
        return opened.error();
    for (std::size_t i = 0; i < im.n; ++i)
        if (!im.ledger->completed(i))
            im.pending.push_back(i);

    for (auto &s : im.servers) {
        ServerConn *sp = s.get();
        s->reader = std::thread([&im, sp] { im.readerLoop(*sp); });
    }

    {
        std::unique_lock<std::mutex> lk(im.mu);
        for (;;) {
            if (im.conflict || im.allSettledLocked())
                break;
            im.draining = shutdownRequested() > 0;
            if (im.draining && !im.anyServerLocked(true))
                break;
            if (!im.draining && !im.anyServerLocked(false)) {
                for (std::size_t i = 0; i < im.n; ++i)
                    im.ledger->fail(i, ErrorKind::Worker,
                                    "no live server", true);
                break;
            }
            im.watchdogLocked(Clock::now());
            im.dispatchLocked();
            im.cv.wait_for(lk, std::chrono::milliseconds(50));
        }
    }

    im.shutDown();
    std::lock_guard<std::mutex> g(im.mu);
    if (im.conflict) {
        im.ledger.reset(); // closes the journal as it stands
        return im.conflictError;
    }
    return im.ledger->finish(shutdownRequested() > 0);
}

} // namespace vrc
