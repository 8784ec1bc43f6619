/**
 * @file
 * Fault-tolerant experiment campaigns.
 *
 * A campaign is a sweep of independent cells (one simulation each)
 * that must survive the failures a multi-hour run actually meets:
 * a killed process, a corrupt input, a cell that throws, a cell that
 * hangs. CampaignRunner layers four mechanisms over ParallelRunner;
 * all but the watchdog live in CellLedger, which the shard
 * coordinator (sim/shard.hh) keeps its books with too:
 *
 *  - Checkpoint journal: every completed cell is appended (and
 *    flushed) to a line-oriented journal as an exact, hexfloat-coded
 *    SimSummary. A run killed at any instant -- including mid-write;
 *    a line without its terminator is discarded -- resumes with
 *    `resume = true`, replays nothing it already has, and produces
 *    bit-identical results to an uninterrupted run for any worker
 *    count. A key derived from the workload and the job list guards
 *    against resuming someone else's checkpoint.
 *  - Watchdog: each cell attempt runs under an optional wall-clock
 *    deadline on its CancelToken, which the replay loop polls: an
 *    attempt past it unwinds on its own worker thread and is declared
 *    timed out (invokeGuarded()).
 *  - Bounded retry: a failing attempt is retried up to maxRetries
 *    times with exponential backoff before the cell is quarantined;
 *    a machine check, which a retry would replay, at once.
 *  - Quarantine: cells that exhaust their retries land in a failure
 *    manifest (who, how many attempts, last error, timed out or not)
 *    while every healthy cell completes; the result JSON carries the
 *    partial table plus the casualty list.
 *
 * Fault injection (base/fault.hh) hooks each attempt
 * so all of the above is exercised in CI rather than trusted on faith.
 */

#ifndef VRC_SIM_CAMPAIGN_HH
#define VRC_SIM_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/cancel.hh"
#include "base/error.hh"
#include "sim/experiment.hh"

namespace vrc
{

/** Journal, retry and quarantine policy; read by CellLedger. */
struct CellLedgerOptions
{
    /** Journal path; empty disables checkpointing. */
    std::string checkpoint;
    /** Load the journal and skip already-completed cells. */
    bool resume = false;
    /** Failure manifest path; empty = don't write one. */
    std::string manifest;
    /**
     * Watchdog deadline in seconds; 0 = no watchdog. The sweep bounds
     * each attempt's wall time; the coordinator bounds how long a
     * dispatched cell may go without a reply.
     */
    double deadlineSeconds = 0.0;
    /** Retries after a cell's first failure. */
    unsigned maxRetries = 0;
    /** First retry backoff; doubles per failure. */
    double backoffSeconds = 0.05;
    /** Backoff ceiling. */
    double backoffCapSeconds = 2.0;
};

/** Resilience policy for one in-process campaign. */
struct CampaignOptions : CellLedgerOptions
{
    /** Worker threads; 0 = ParallelRunner::defaultJobs(). */
    unsigned jobs = 0;
};

/** One quarantined cell in the failure manifest. */
struct CellFailure
{
    std::size_t index = 0;
    unsigned attempts = 0;   ///< attempts actually made
    bool timedOut = false;   ///< last failure was a Timeout
    ErrorKind kind = ErrorKind::Worker;
    std::string error;       ///< last failure message
};

/** Outcome of a campaign: partial results plus the casualty list. */
struct CampaignResult
{
    std::vector<SimSummary> summaries; ///< index-ordered; failed cells
                                       ///< hold default summaries
    std::vector<bool> completed;       ///< per-cell success flag
    std::vector<CellFailure> quarantined; ///< sorted by index
    std::size_t restored = 0; ///< cells restored from the checkpoint

    /**
     * A shutdown signal arrived mid-sweep: dispatching stopped, cells
     * already running finished (and were journaled), the rest were
     * left pending. A checkpointed run picks them up with resume.
     */
    bool interrupted = false;

    bool
    allOk() const
    {
        return quarantined.empty();
    }

    std::size_t
    completedCells() const
    {
        std::size_t n = 0;
        for (bool c : completed)
            n += c;
        return n;
    }
};

/**
 * The work of one cell. Runs on a worker thread; must poll @p token
 * at reasonable intervals if watchdog deadlines are to bite. Report
 * failure by throwing; ErrorException keeps the taxonomy kind,
 * anything else is recorded as ErrorKind::Worker.
 */
using CampaignCellFn =
    std::function<SimSummary(std::size_t, const CancelToken &)>;

/**
 * One cell attempt, shared by the sweep and the service (which also
 * runs the coordinator's cells): @p body under @p token, every throw mapped onto the
 * taxonomy (an ErrorException keeps its error, anything else is
 * Worker). Once @p token's deadline has passed, whatever @p body did,
 * the attempt is a Timeout described by @p timeoutMessage.
 */
Result<SimSummary>
invokeGuarded(const std::function<SimSummary(const CancelToken &)> &body,
              const CancelToken &token,
              const std::string &timeoutMessage = {});

/** Checkpoint-journaling, watchdogged, retrying sweep driver. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(CampaignOptions opt);

    /**
     * Run cells [0, n). @p key identifies the campaign (workload +
     * job list); a resume against a journal with a different key or
     * cell count is a Mismatch error. Io errors opening or creating
     * the journal also fail the whole run; individual cell failures
     * never do.
     */
    Result<CampaignResult> run(std::size_t n, const std::string &key,
                               const CampaignCellFn &fn) const;

  private:
    CampaignOptions _opt;
};

/** Key for a simulation campaign: workload identity + job list. */
std::string campaignKey(const TraceBundle &bundle,
                        const std::vector<SimJob> &jobs);

/**
 * Content-derived stable cell id: a hash of the workload identity
 * (profile name, seed, record count) and the job's full knob set --
 * the same fields campaignKey() hashes. Independent of the cell's
 * position in -- or the size of -- the job grid, so ids survive grid
 * growth and reordering.
 */
std::uint64_t shardCellId(const TraceBundle &bundle, const SimJob &job);

/**
 * Run @p jobs over @p bundle as a campaign. Cells replay through the
 * cancellation-aware simulation loop, so the watchdog can actually
 * stop one; fault injection (when armed) perturbs each attempt.
 */
Result<CampaignResult>
runSimulationCampaign(const TraceBundle &bundle,
                      const std::vector<SimJob> &jobs,
                      const CampaignOptions &opt);

/**
 * Partial-result JSON: cell count, completed count, per-cell summary
 * objects for completed cells, and the quarantine list. Deliberately
 * independent of how many cells were restored from a checkpoint, so
 * an interrupted+resumed campaign serializes bit-identically to an
 * uninterrupted one.
 */
std::string campaignResultToJson(const CampaignResult &r);

/** The failure manifest alone, as JSON. */
std::string failureManifestToJson(const CampaignResult &r);

/** Exact (hexfloat) one-line encoding of a summary, for the journal. */
std::string encodeSummaryLine(std::size_t index, const SimSummary &s);

/** Parse one journal cell line back. */
Result<std::pair<std::size_t, SimSummary>>
decodeSummaryLine(const std::string &line);

/**
 * Decoded contents of one checkpoint journal, possibly partial. The
 * verbatim cell-line bytes ride along with the decoded summaries so
 * merge tools can compare and re-emit lines without a re-encode.
 */
struct JournalContents
{
    JournalContents() = default;

    /** @p n cells of campaign @p k, none present yet. */
    JournalContents(std::string k, std::size_t n)
        : key(std::move(k)), cells(n), present(n, false), summaries(n),
          lines(n), firstLine(n, 0)
    {
    }

    std::string key;                  ///< campaign key from the header
    std::size_t cells = 0;            ///< grid size from the header
    std::vector<bool> present;        ///< per-cell: line seen
    std::vector<SimSummary> summaries;
    std::vector<std::string> lines;   ///< verbatim line per cell
    std::vector<std::uint64_t> firstLine; ///< 1-based line of first copy
    std::size_t torn = 0;       ///< corrupt/torn lines skipped
    std::size_t duplicates = 0; ///< byte-identical repeats tolerated

    std::size_t
    completedCells() const
    {
        std::size_t n = 0;
        for (bool p : present)
            n += p;
        return n;
    }
};

/**
 * Validating journal loader shared by resume, the shard coordinator
 * and vrc-merge. Torn tail lines (a crash mid-append) are skipped
 * with a warning; a duplicate cell line that is byte-identical to the
 * first copy is tolerated; a duplicate whose bytes DISAGREE is a hard
 * Mismatch error carrying @p context and both line numbers -- never
 * last-writer-wins.
 */
Result<JournalContents> tryLoadJournal(std::istream &in,
                                       const std::string &context);

/**
 * The canonical byte encoding of a (possibly partial) journal: header
 * plus the present cells' verbatim lines in index order. Two runs
 * that completed the same cells -- whatever the completion order,
 * worker count or shard layout -- produce identical bytes.
 */
std::string canonicalJournalText(const JournalContents &j);

/**
 * The books of one campaign, shared by CampaignRunner and
 * ShardCoordinator: the checkpoint journal, each cell's result (its
 * summary and verbatim line) or failures, the capped exponential
 * backoff between attempts, quarantine once a cell has failed
 * maxRetries + 1 times (once for a machine check, which a retry would
 * replay), and the failure manifest. A result that arrives after
 * quarantine still completes the cell. Not thread-safe;
 * each driver calls it under its own lock.
 */
class CellLedger
{
  public:
    CellLedger(const CellLedgerOptions &opt, std::string key,
               std::size_t cells);

    /**
     * Open the journal, if there is a checkpoint path. With resume,
     * an existing journal is loaded (its cells count as restored) and
     * appended to; one of another key or cell count is a Mismatch
     * error. Otherwise the journal starts with its header.
     */
    Status open();

    bool completed(std::size_t i) const { return _j.present[i]; }
    bool
    quarantined(std::size_t i) const
    {
        return _quarantined[i] && !_j.present[i];
    }
    /** Completed or quarantined: nothing left to run. */
    bool
    settled(std::size_t i) const
    {
        return _j.present[i] || _quarantined[i];
    }
    const std::string &line(std::size_t i) const { return _j.lines[i]; }

    /** Record cell @p i's result and append @p line to the journal. */
    void complete(std::size_t i, const SimSummary &s,
                  const std::string &line);

    /**
     * Count one failure of cell @p i (a Timeout kind counts as timed
     * out). Returns the backoff in seconds before its next attempt;
     * nullopt when this failure quarantined it, or when it was already
     * settled (the failure is not counted). A @p last failure, after
     * which no attempt can follow, quarantines at once.
     */
    std::optional<double> fail(std::size_t i, ErrorKind kind,
                               const std::string &error,
                               bool last = false);

    /**
     * The result, with the quarantine list in index order. Unless
     * @p interrupted, the journal is rewritten in canonical form;
     * then the manifest is written.
     */
    CampaignResult finish(bool interrupted);

  private:
    CellLedgerOptions _opt;
    JournalContents _j; ///< present[i] = cell i completed
    std::size_t _restored = 0;
    std::vector<bool> _quarantined;
    std::vector<CellFailure> _lastFail; ///< attempts = failures so far
    std::ofstream _journal;
};

} // namespace vrc

#endif // VRC_SIM_CAMPAIGN_HH
