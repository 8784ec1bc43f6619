#include "sim/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/json_escape.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "sim/json_stats.hh"
#include "sim/parallel_runner.hh"

namespace vrc
{

namespace
{

constexpr const char *journalMagicLine = "vrc-campaign-checkpoint v1";

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

/** FNV-1a over the workload identity. */
std::uint64_t
hashWorkload(const TraceBundle &bundle)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, bundle.profile.name);
    h = fnv1a(h, bundle.profile.seed);
    return fnv1a(h, bundle.records.size());
}

/** Fold every knob of @p j into @p h. */
std::uint64_t
hashJob(std::uint64_t h, const SimJob &j)
{
    h = fnv1a(h, static_cast<std::uint64_t>(j.kind));
    h = fnv1a(h, j.l1Size);
    h = fnv1a(h, j.l2Size);
    h = fnv1a(h, j.split ? 1 : 0);
    h = fnv1a(h, j.invariantPeriod);
    return fnv1a(h, static_cast<std::uint64_t>(j.timingMode));
}

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return end && *end == '\0' && !tok.empty();
}

bool
parseDouble(const std::string &tok, double &out)
{
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end); // accepts hexfloat
    return end && *end == '\0' && !tok.empty();
}

} // namespace

std::string
encodeSummaryLine(std::size_t index, const SimSummary &s)
{
    std::ostringstream os;
    os << "cell " << index << ' '
       << static_cast<unsigned>(s.kind) << ' ' << s.l1Size << ' '
       << s.l2Size << ' ' << (s.split ? 1 : 0) << ' ' << std::hexfloat
       << s.h1 << ' ' << s.h2 << ' ' << s.h1Instr << ' ' << s.h1Read
       << ' ' << s.h1Write << ' ';
    if (s.l1MsgsPerCpu.empty()) {
        os << '-';
    } else {
        for (std::size_t i = 0; i < s.l1MsgsPerCpu.size(); ++i)
            os << (i ? "," : "") << s.l1MsgsPerCpu[i];
    }
    os << ' ' << s.inclusionInvalidations << ' ' << s.synonymHits
       << ' ' << s.synonymMoves << ' ' << s.writebackCancels << ' '
       << s.swappedWritebacks << ' ' << s.writeBufferStalls << ' '
       << s.busTransactions << ' ' << s.memoryWrites << ' ' << s.refs
       << ' ' << static_cast<unsigned>(s.timingMode) << ' '
       << std::hexfloat << s.avgAccessTime << ' ' << s.avgAccessCycles
       << ' ' << s.busUtilization << ' ' << s.avgBusWait << " end";
    return os.str();
}

Result<std::pair<std::size_t, SimSummary>>
decodeSummaryLine(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> tok;
    std::string t;
    while (is >> t)
        tok.push_back(t);
    if (tok.size() != 27 || tok.front() != "cell" ||
        tok.back() != "end")
        return makeError(ErrorKind::Parse,
                         "malformed checkpoint cell line");

    std::uint64_t idx, kind, l1, l2, split;
    if (!parseU64(tok[1], idx) || !parseU64(tok[2], kind) ||
        !parseU64(tok[3], l1) || !parseU64(tok[4], l2) ||
        !parseU64(tok[5], split) || kind >= kHierarchyKindCount ||
        split > 1)
        return makeError(ErrorKind::Parse,
                         "malformed checkpoint cell geometry");

    SimSummary s;
    s.kind = static_cast<HierarchyKind>(kind);
    s.l1Size = static_cast<std::uint32_t>(l1);
    s.l2Size = static_cast<std::uint32_t>(l2);
    s.split = split != 0;

    double *doubles[] = {&s.h1, &s.h2, &s.h1Instr, &s.h1Read,
                         &s.h1Write};
    for (std::size_t i = 0; i < 5; ++i)
        if (!parseDouble(tok[6 + i], *doubles[i]))
            return makeError(ErrorKind::Parse,
                             "malformed checkpoint hit ratio '",
                             tok[6 + i], "'");

    if (tok[11] != "-") {
        std::istringstream ms(tok[11]);
        std::string item;
        while (std::getline(ms, item, ',')) {
            std::uint64_t v;
            if (!parseU64(item, v))
                return makeError(ErrorKind::Parse,
                                 "malformed checkpoint message list");
            s.l1MsgsPerCpu.push_back(v);
        }
    }

    std::uint64_t *counts[] = {
        &s.inclusionInvalidations, &s.synonymHits, &s.synonymMoves,
        &s.writebackCancels, &s.swappedWritebacks,
        &s.writeBufferStalls, &s.busTransactions, &s.memoryWrites,
        &s.refs};
    for (std::size_t i = 0; i < 9; ++i)
        if (!parseU64(tok[12 + i], *counts[i]))
            return makeError(ErrorKind::Parse,
                             "malformed checkpoint counter '",
                             tok[12 + i], "'");

    std::uint64_t timing_mode;
    if (!parseU64(tok[21], timing_mode) || timing_mode > 1)
        return makeError(ErrorKind::Parse,
                         "malformed checkpoint timing mode");
    s.timingMode = static_cast<TimingMode>(timing_mode);
    double *timing_doubles[] = {&s.avgAccessTime, &s.avgAccessCycles,
                                &s.busUtilization, &s.avgBusWait};
    for (std::size_t i = 0; i < 4; ++i)
        if (!parseDouble(tok[22 + i], *timing_doubles[i]))
            return makeError(ErrorKind::Parse,
                             "malformed checkpoint timing field '",
                             tok[22 + i], "'");

    return std::make_pair(static_cast<std::size_t>(idx), s);
}

std::string
campaignKey(const TraceBundle &bundle, const std::vector<SimJob> &jobs)
{
    std::uint64_t h = hashWorkload(bundle);
    for (const SimJob &j : jobs)
        h = hashJob(h, j);
    std::ostringstream os;
    os << std::hex << h;
    return os.str();
}

std::uint64_t
shardCellId(const TraceBundle &bundle, const SimJob &job)
{
    return hashJob(hashWorkload(bundle), job);
}

Result<SimSummary>
invokeGuarded(const std::function<SimSummary(const CancelToken &)> &body,
              const CancelToken &token, const std::string &timeoutMessage)
{
    Error err = makeError(ErrorKind::Worker, "unknown exception");
    try {
        SimSummary s = body(token);
        if (!token.expired())
            return s;
    } catch (const ErrorException &e) {
        err = e.err();
    } catch (const std::exception &e) {
        err.message = e.what();
    } catch (...) {
    }
    if (token.expired())
        return makeError(ErrorKind::Timeout, timeoutMessage);
    return err;
}

CampaignRunner::CampaignRunner(CampaignOptions opt)
    : _opt(std::move(opt))
{
}

Result<JournalContents>
tryLoadJournal(std::istream &in, const std::string &context)
{
    std::string line;
    if (!std::getline(in, line) || line != journalMagicLine)
        return makeErrorAt(ErrorKind::Mismatch, context, 1,
                           "not a vrc campaign checkpoint journal");
    std::uint64_t lineno = 1;
    if (!std::getline(in, line))
        return makeErrorAt(ErrorKind::Mismatch, context, 2,
                           "checkpoint journal missing its key line");
    ++lineno;
    std::istringstream ls(line);
    std::string kw1, key, kw2;
    std::uint64_t cells = 0;
    if (!(ls >> kw1 >> key >> kw2 >> cells) || kw1 != "key" ||
        kw2 != "cells")
        return makeErrorAt(ErrorKind::Mismatch, context, 2,
                           "malformed checkpoint key line");
    if (cells > (std::uint64_t{1} << 24))
        return makeErrorAt(ErrorKind::Bounds, context, 2,
                           "implausible checkpoint cell count ", cells);
    JournalContents j(key, static_cast<std::size_t>(cells));
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        Result<std::pair<std::size_t, SimSummary>> cell =
            decodeSummaryLine(line);
        if (!cell) {
            // Expected after a SIGKILL mid-append: the torn tail line
            // simply does not count as completed work.
            warn("ignoring corrupt checkpoint line ", lineno, " in ",
                 context, " (", cell.error().message, ")");
            ++j.torn;
            continue;
        }
        auto [idx, s] = cell.take();
        if (idx >= j.cells) {
            warn("ignoring out-of-range checkpoint cell ", idx,
                 " in ", context);
            ++j.torn;
            continue;
        }
        if (j.present[idx]) {
            if (j.lines[idx] == line) {
                ++j.duplicates;
                continue;
            }
            // Two summaries for the same cell that disagree: one of
            // them is wrong, and guessing (last-writer-wins) would
            // silently corrupt the merged table. Hard error, both
            // locations named.
            return makeErrorAt(
                ErrorKind::Mismatch, context, lineno,
                "conflicting summaries for cell ", idx,
                " (disagrees with line ", j.firstLine[idx],
                " of the same journal)");
        }
        j.present[idx] = true;
        j.summaries[idx] = s;
        j.lines[idx] = line;
        j.firstLine[idx] = lineno;
    }
    return j;
}

std::string
canonicalJournalText(const JournalContents &j)
{
    std::ostringstream os;
    os << journalMagicLine << "\nkey " << j.key << " cells "
       << j.cells << "\n";
    for (std::size_t i = 0; i < j.cells; ++i)
        if (j.present[i])
            os << j.lines[i] << "\n";
    return os.str();
}

CellLedger::CellLedger(const CellLedgerOptions &opt, std::string key,
                       std::size_t cells)
    : _opt(opt), _j(std::move(key), cells), _quarantined(cells, false),
      _lastFail(cells)
{
}

Status
CellLedger::open()
{
    if (_opt.checkpoint.empty())
        return okStatus();
    bool append = false;
    if (_opt.resume) {
        std::ifstream in(_opt.checkpoint);
        if (in) {
            Result<JournalContents> loaded =
                tryLoadJournal(in, _opt.checkpoint);
            if (!loaded)
                return loaded.error();
            JournalContents j = loaded.take();
            if (j.key != _j.key)
                return makeErrorAt(
                    ErrorKind::Mismatch, _opt.checkpoint, 2,
                    "checkpoint belongs to a different campaign (key ",
                    j.key, ", this campaign is ", _j.key, ")");
            if (j.cells != _j.cells)
                return makeErrorAt(
                    ErrorKind::Mismatch, _opt.checkpoint, 2,
                    "checkpoint cell count ", j.cells,
                    " does not match this campaign (", _j.cells,
                    " cells)");
            _j = std::move(j);
            _restored = _j.completedCells();
            append = true;
        }
    }
    _journal.open(_opt.checkpoint,
                  append ? std::ios::app : std::ios::trunc);
    if (!_journal)
        return makeError(ErrorKind::Io,
                         "cannot open checkpoint journal for writing: ",
                         _opt.checkpoint);
    if (!append) {
        _journal << canonicalJournalText(_j); // the header alone
        _journal.flush();
    }
    return okStatus();
}

void
CellLedger::complete(std::size_t i, const SimSummary &s,
                     const std::string &line)
{
    _j.present[i] = true;
    _j.summaries[i] = s;
    _j.lines[i] = line;
    if (_journal.is_open()) {
        _journal << line << "\n";
        _journal.flush();
    }
}

std::optional<double>
CellLedger::fail(std::size_t i, ErrorKind kind, const std::string &error,
                 bool last)
{
    if (settled(i))
        return std::nullopt;
    CellFailure &f = _lastFail[i];
    f.index = i;
    ++f.attempts;
    f.timedOut = kind == ErrorKind::Timeout;
    f.kind = kind;
    f.error = error;
    if (last || f.attempts > _opt.maxRetries ||
        kind == ErrorKind::Unrecoverable) {
        _quarantined[i] = true;
        warn("cell ", i, " quarantined after ", f.attempts,
             " failed attempt", f.attempts == 1 ? "" : "s", ": ", error);
        return std::nullopt;
    }
    double backoff =
        _opt.backoffSeconds *
        static_cast<double>(std::uint64_t{1}
                            << std::min(f.attempts - 1, 20u));
    return std::min(backoff, _opt.backoffCapSeconds);
}

CampaignResult
CellLedger::finish(bool interrupted)
{
    CampaignResult res;
    res.restored = _restored;
    res.interrupted = interrupted;
    for (std::size_t i = 0; i < _j.cells; ++i)
        if (quarantined(i))
            res.quarantined.push_back(_lastFail[i]);

    // A finished run rewrites its journal in canonical form: header +
    // completed cells in index order. The append-ordered journal
    // depends on scheduling; the canonical bytes depend only on WHAT
    // completed, so any two runs of the same grid -- sharded,
    // resumed, or straight through -- end with identical journals.
    if (_journal.is_open()) {
        _journal.close();
        if (!interrupted) {
            Status rewrote =
                writeFileAtomic(_opt.checkpoint, canonicalJournalText(_j));
            if (!rewrote)
                warn("cannot canonicalize checkpoint journal ",
                     _opt.checkpoint, ": ", rewrote.error().message);
        }
    }

    res.summaries = std::move(_j.summaries);
    res.completed = std::move(_j.present);
    if (!_opt.manifest.empty()) {
        Status wrote = writeFileAtomic(
            _opt.manifest, failureManifestToJson(res) + "\n");
        if (!wrote)
            warn("cannot write failure manifest ", _opt.manifest, ": ",
                 wrote.error().message);
    }
    return res;
}

Result<CampaignResult>
CampaignRunner::run(std::size_t n, const std::string &key,
                    const CampaignCellFn &fn) const
{
    CellLedger ledger(_opt, key, n);
    Status opened = ledger.open();
    if (!opened)
        return opened.error();

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (!ledger.completed(i))
            pending.push_back(i);

    std::mutex mu; // ledger
    std::ostringstream timeout;
    timeout << "watchdog: deadline of " << _opt.deadlineSeconds
            << " s exceeded";

    ParallelRunner pool(_opt.jobs);
    pool.forEachIndex(pending.size(), [&](std::size_t pi) {
        // Graceful interruption: after the first SIGINT/SIGTERM no
        // new cell starts; cells already replaying finish (and are
        // journaled) so a resume loses nothing.
        if (shutdownRequested() > 0)
            return;
        std::size_t idx = pending[pi];
        for (unsigned a = 0;; ++a) {
            CancelToken token;
            token.expireAfter(_opt.deadlineSeconds);
            Result<SimSummary> out = invokeGuarded(
                [&](const CancelToken &tok) {
                    maybeInjectCellFault(idx, a, tok);
                    return fn(idx, tok);
                },
                token, timeout.str());
            if (out) {
                std::string line = encodeSummaryLine(idx, out.value());
                std::lock_guard<std::mutex> g(mu);
                ledger.complete(idx, out.value(), line);
                return;
            }
            std::optional<double> backoff;
            {
                std::lock_guard<std::mutex> g(mu);
                backoff = ledger.fail(idx, out.error().kind,
                                      out.error().message);
            }
            if (!backoff)
                return;
            warn("cell ", idx, " attempt ", a + 1, " failed (",
                 out.error().message, "); retrying in ", *backoff, " s");
            std::this_thread::sleep_for(
                std::chrono::duration<double>(*backoff));
        }
    });

    return ledger.finish(shutdownRequested() > 0);
}

Result<CampaignResult>
runSimulationCampaign(const TraceBundle &bundle,
                      const std::vector<SimJob> &jobs,
                      const CampaignOptions &opt)
{
    CampaignRunner runner(opt);
    return runner.run(
        jobs.size(), campaignKey(bundle, jobs),
        [&](std::size_t i, const CancelToken &token) {
            return runSimulationCancellable(bundle, jobs[i], token);
        });
}

namespace
{

/** The quarantine list as a JSON array; the manifest adds each kind. */
void
quarantineJson(std::ostream &os, const CampaignResult &r, bool kinds)
{
    os << "\"quarantined\":[";
    for (std::size_t i = 0; i < r.quarantined.size(); ++i) {
        const CellFailure &f = r.quarantined[i];
        os << (i ? "," : "") << "{\"cell\":" << f.index
           << ",\"attempts\":" << f.attempts << ",\"timed_out\":"
           << (f.timedOut ? "true" : "false");
        if (kinds)
            os << ",\"kind\":\"" << errorKindName(f.kind) << '"';
        os << ",\"error\":\"" << jsonEscape(f.error) << "\"}";
    }
    os << ']';
}

} // namespace

std::string
failureManifestToJson(const CampaignResult &r)
{
    std::ostringstream os;
    os << "{\"cells\":" << r.completed.size()
       << ",\"completed\":" << r.completedCells()
       << ",\"interrupted\":" << (r.interrupted ? "true" : "false")
       << ",";
    quarantineJson(os, r, true);
    os << '}';
    return os.str();
}

std::string
campaignResultToJson(const CampaignResult &r)
{
    std::ostringstream os;
    os << "{\"cells\":" << r.completed.size()
       << ",\"completed\":" << r.completedCells()
       << ",\"results\":[";
    bool first = true;
    for (std::size_t i = 0; i < r.completed.size(); ++i) {
        if (!r.completed[i])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"cell\":" << i
           << ",\"summary\":" << toJson(r.summaries[i]) << "}";
    }
    os << "],";
    quarantineJson(os, r, false);
    os << '}';
    return os.str();
}

} // namespace vrc
