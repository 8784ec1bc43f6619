/**
 * @file
 * Distributed sweeps: the coordinator and the journal merge.
 *
 * A campaign grid is embarrassingly parallel and deterministic per
 * cell, so scaling past one process is "only" a distribution problem
 * -- which is to say, entirely a failure-handling problem. The
 * coordinator is a client of N `vrc-sim --serve` processes: it sends
 * each cell as a cell SUBMIT (the job plus the trace's profile name and
 * exact scale; the server generates the trace), one cell in flight per
 * server, and keeps its books in the same CellLedger (sim/campaign.hh)
 * the single-process sweep uses: one journal, retry backoff, quarantine
 * and manifest. The invariants:
 *
 *  - Stable cell identity: shardCellId() hashes the cell's CONTENT
 *    (workload identity + the job's knobs), never its grid index, so
 *    an id names the same work after the grid grows or is reordered.
 *    Results are deduplicated by id -- the first valid result wins
 *    and every later copy (a straggler that woke up, a speculative
 *    duplicate) is discarded, unless its bytes disagree, which is a
 *    hard conflict error.
 *  - Liveness: a dispatched cell with no reply inside the deadline is
 *    speculatively re-dispatched once to another server, and its
 *    server earns a strike (enough strikes = quarantine: no more
 *    cells). A server that is lost (EOF, torn frame, QUARANTINED,
 *    DRAINING) fails its cell into the ledger under bounded retry
 *    with backoff; cells that exhaust retries, or that no live server
 *    is left to run, are quarantined, never lost silently. SHED puts
 *    the cell back in the queue at no cost.
 *  - Crash recovery: the journal IS the coordinator's state. A killed
 *    coordinator restarts with --resume, replays the journal, and
 *    re-dispatches only the missing cells; the finished journal is
 *    rewritten in canonical index order, so the end state is
 *    byte-identical to an uninterrupted single-process --sweep.
 *  - Drain: SIGTERM stops new dispatch; in-flight cells finish (or
 *    hit the deadline), the manifest records "interrupted": true, and
 *    the exit path mirrors the sweep's exit-5 contract.
 *
 * vrc-merge reuses the same journal loader to validate and merge the
 * partial journals of INDEPENDENT runs (grid split by hand across
 * machines, or salvage after a crash): same key + cell count required,
 * torn tails tolerated, byte-identical duplicates collapsed,
 * disagreeing duplicates a hard error naming both sources.
 */

#ifndef VRC_SIM_SHARD_HH
#define VRC_SIM_SHARD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"

namespace vrc
{

/** True for the Mismatch errors that mean "conflicting summaries". */
bool isConflictError(const Error &e);

// ---- journal merge (vrc-merge) --------------------------------------

/** Outcome of merging N partial journals. */
struct ShardMerge
{
    JournalContents merged;  ///< canonical union of the inputs
    std::size_t inputs = 0;  ///< journals merged
    std::size_t duplicates = 0; ///< byte-identical repeats collapsed
    std::size_t torn = 0;       ///< torn/corrupt lines skipped
    std::vector<std::size_t> missing; ///< cells no input completed
};

/**
 * Merge partial journals given as (context, text) pairs. All inputs
 * must share the first input's campaign key and cell count; a cell
 * completed by several inputs must have byte-identical lines, else
 * the result is a conflict error naming both file/line locations.
 */
Result<ShardMerge>
mergeJournalTexts(const std::vector<std::pair<std::string, std::string>>
                      &inputs);

/** mergeJournalTexts() over files. */
Result<ShardMerge> mergeJournalFiles(const std::vector<std::string> &paths);

/** Merge manifest JSON (inputs, cells, completed, missing list). */
std::string mergeManifestJson(const ShardMerge &m);

// ---- coordinator ----------------------------------------------------

/** One `--serve` process to dial. */
struct ServerAddress
{
    std::string unixPath; ///< unix socket path; or, when empty...
    int tcpPort = -1;     ///< ...a TCP port on 127.0.0.1

    /** "unix:<path>" or "tcp:<port>", for messages. */
    std::string describe() const;
};

/**
 * The SUBMIT segment id of dispatch @p dispatch (0 = the first) of
 * cell @p cell. A RESULT or ERROR routes back to its cell through it,
 * and it is never 0, the id of a session-level reply. The service's
 * stall=/throw= faults are keyed on (segment id, attempt), so they
 * fire on one dispatch of a cell.
 */
std::uint64_t cellSegmentId(std::size_t cell, unsigned dispatch);

/**
 * Knobs for one coordinated campaign. The inherited ledger policy
 * reads as for the sweep, except that deadlineSeconds is how long a
 * dispatched cell may go without a reply before it is speculated onto
 * another server and its server gets a strike. maxRetries counts
 * re-dispatches after a cell's first failed dispatch.
 */
struct ShardCoordinatorOptions : CellLedgerOptions
{
    /**
     * The profile scale the bundle was generated with. Servers
     * regenerate the trace from (profile name, this exact double), so
     * it must match the coordinator's bundle or results will silently
     * describe a different trace.
     */
    double profileScale = 1.0;

    /** Straggler/protocol strikes before a server is quarantined. */
    unsigned workerStrikeLimit = 3;
};

/** Coordinator-side counters (tests and the CLI report). */
struct ShardStats
{
    std::uint64_t serversConnected = 0;
    std::uint64_t serversLost = 0;
    std::uint64_t serversQuarantined = 0;
    std::uint64_t cellsDispatched = 0;
    std::uint64_t speculativeDispatches = 0; ///< straggler re-dispatches
    std::uint64_t duplicateResults = 0;      ///< discarded by cell id
    std::uint64_t cellResults = 0;           ///< accepted journal lines
};

/**
 * The distributed campaign driver. connect() first, then run() blocks
 * until the grid is complete, quarantined out, or drained by a
 * shutdown signal.
 */
class ShardCoordinator
{
  public:
    explicit ShardCoordinator(ShardCoordinatorOptions opt);
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    /**
     * Dial and HELLO each of @p servers. One that cannot be reached is
     * skipped with a warning; an Io error naming every address when
     * none can.
     */
    Status connect(const std::vector<ServerAddress> &servers);

    /**
     * Drive @p jobs over @p bundle through the connected servers.
     * Returns the same CampaignResult a single-process sweep would,
     * with quarantined cells for work no server could finish. A
     * conflicting duplicate result aborts the run with an error for
     * which conflictDetected() is true.
     */
    Result<CampaignResult> run(const TraceBundle &bundle,
                               const std::vector<SimJob> &jobs);

    ShardStats stats() const;

    /** True when run() failed because two results disagreed. */
    bool conflictDetected() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace vrc

#endif // VRC_SIM_SHARD_HH
