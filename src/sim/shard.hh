/**
 * @file
 * Distributed sweep sharding: coordinator, worker, and journal merge.
 *
 * A campaign grid is embarrassingly parallel and deterministic per
 * cell, so scaling past one machine is "only" a distribution problem
 * -- which is to say, entirely a failure-handling problem. The
 * coordinator partitions the grid into shards, dispatches them to
 * workers over the VRCW wire layer (SHARD_ASSIGN / CELL_RESULT /
 * SHARD_DONE / HEARTBEAT frames), and keeps its books in the same
 * CellLedger (sim/campaign.hh) the single-process sweep uses: one
 * journal, retry backoff, quarantine and manifest. The invariants:
 *
 *  - Stable cell identity: shardCellId() hashes the cell's CONTENT
 *    (workload identity + the job's knobs), never its grid index, so
 *    an id names the same work after the grid grows or is reordered.
 *    Results are deduplicated by id -- the first valid result wins
 *    and every later copy (a straggler that woke up, a speculative
 *    duplicate) is discarded, unless its bytes disagree, which is a
 *    hard conflict error.
 *  - Liveness: workers heartbeat per assignment. An assignment with
 *    no progress inside the deadline marks its worker a straggler:
 *    the missing cells are speculatively re-dispatched to someone
 *    else and the worker earns a strike (enough strikes = quarantine,
 *    like the serve layer's misbehaving clients). A worker that
 *    vanishes (EOF, torn frame, failed write) returns its unfinished
 *    cells to the pending queue under bounded retry with backoff;
 *    cells that exhaust retries are quarantined, never lost silently.
 *  - Crash recovery: the journal IS the coordinator's state. A killed
 *    coordinator restarts with --resume, replays the journal, and
 *    re-dispatches only the missing cells; the finished journal is
 *    rewritten in canonical index order, so the end state is
 *    byte-identical to an uninterrupted single-process --sweep.
 *  - Drain: SIGTERM stops new dispatch; in-flight shards finish (or
 *    hit the deadline), the manifest records "interrupted": true, and
 *    the exit path mirrors the sweep's exit-5 contract.
 *
 * vrc-merge reuses the same journal loader to validate and merge the
 * partial journals of INDEPENDENT runs (grid split by hand across
 * machines with --shard-cells ranges, or salvage after a crash): same
 * key + cell count required, torn tails tolerated, byte-identical
 * duplicates collapsed, disagreeing duplicates a hard error naming
 * both sources.
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

/**
 * Knobs for one coordinated (sharded) campaign. The inherited ledger
 * policy reads as for the sweep, except that deadlineSeconds is a
 * no-progress deadline per assignment: an assignment whose worker
 * neither heartbeats nor delivers a cell for that long is a straggler
 * (speculative re-dispatch + a strike). maxRetries counts
 * re-dispatches after a cell's first failed dispatch.
 */
struct ShardCoordinatorOptions : CellLedgerOptions
{
    std::string listenUnix; ///< unix socket path; empty = none
    int listenTcp = -1;     ///< TCP port (0 = ephemeral); -1 = none

    /**
     * The profile scale the bundle was generated with. Workers
     * regenerate the trace from (profile name, this exact double), so
     * it must match the coordinator's bundle or results will silently
     * describe a different trace.
     */
    double profileScale = 1.0;

    /** Cells per dispatched shard; 0 = auto (grid / 4, min 1). */
    std::size_t cellsPerShard = 0;

    /** Straggler/lost strikes before a worker name is quarantined. */
    unsigned workerStrikeLimit = 3;
};

/** Coordinator-side counters (tests and the CLI report). */
struct ShardStats
{
    std::uint64_t workersSeen = 0;
    std::uint64_t workersLost = 0;
    std::uint64_t workersQuarantined = 0;
    std::uint64_t assignmentsDispatched = 0;
    std::uint64_t speculativeDispatches = 0; ///< straggler re-dispatches
    std::uint64_t duplicateResults = 0;      ///< discarded by cell id
    std::uint64_t cellResults = 0;           ///< accepted journal lines
    std::uint64_t heartbeats = 0;
};

/**
 * The sharded campaign driver. bind() first (tests read tcpPort()
 * before starting workers), then run() blocks until the grid is
 * complete, quarantined out, or drained by a shutdown signal.
 */
class ShardCoordinator
{
  public:
    explicit ShardCoordinator(ShardCoordinatorOptions opt);
    ~ShardCoordinator();

    ShardCoordinator(const ShardCoordinator &) = delete;
    ShardCoordinator &operator=(const ShardCoordinator &) = delete;

    /** Create the listeners (so the address is live before run()). */
    Status bind();

    /** The bound TCP port after bind() (ephemeral ports resolved). */
    int tcpPort() const;

    /**
     * Drive @p jobs over @p bundle through the connected workers.
     * Returns the same CampaignResult a single-process sweep would,
     * with quarantined cells for work no worker could finish. A
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

// ---- worker ---------------------------------------------------------

/** Knobs for one shard worker process. */
struct ShardWorkerOptions
{
    std::string connectUnix; ///< coordinator unix socket; or...
    int connectTcp = -1;     ///< ...coordinator TCP port on localhost
    std::string name = "shard-worker"; ///< stable identity (quarantine key)
    double heartbeatSeconds = 0.2;     ///< per-assignment heartbeat period
    double idleTimeoutSeconds = 600.0; ///< give up waiting for work
};

/** Worker-side counters for the CLI report. */
struct ShardWorkerStats
{
    std::uint64_t assignments = 0;
    std::uint64_t cellsRun = 0;
    std::uint64_t cellsFailed = 0;
};

/**
 * Run a worker until the coordinator says BYE/DRAINING/QUARANTINED or
 * closes the connection. Traces are regenerated locally (and cached)
 * from the assignment's profile name + scale; results stream back as
 * CELL_RESULT frames carrying the exact hexfloat journal lines.
 */
Result<ShardWorkerStats> runShardWorker(const ShardWorkerOptions &opt);

} // namespace vrc

#endif // VRC_SIM_SHARD_HH
