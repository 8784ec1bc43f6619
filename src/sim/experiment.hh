/**
 * @file
 * Experiment helpers: run one simulation and summarize the counters the
 * paper's tables report. Shared by the artifact registry, the tools
 * and the integration tests.
 */

#ifndef VRC_SIM_EXPERIMENT_HH
#define VRC_SIM_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/cancel.hh"
#include "base/error.hh"
#include "sim/mp_sim.hh"
#include "trace/generator.hh"

namespace vrc
{

/** Everything the paper's tables need from one simulation run. */
struct SimSummary
{
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1Size = 0;
    std::uint32_t l2Size = 0;
    bool split = false;

    double h1 = 0.0;       ///< level-1 hit ratio
    double h2 = 0.0;       ///< local level-2 hit ratio
    double h1Instr = 0.0;
    double h1Read = 0.0;
    double h1Write = 0.0;

    std::vector<std::uint64_t> l1MsgsPerCpu; ///< Tables 11-13 columns
    std::uint64_t inclusionInvalidations = 0;
    std::uint64_t synonymHits = 0;
    std::uint64_t synonymMoves = 0;
    std::uint64_t writebackCancels = 0;
    std::uint64_t swappedWritebacks = 0;
    std::uint64_t writeBufferStalls = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t memoryWrites = 0;
    std::uint64_t refs = 0;

    // --- timing engine (core/clock.hh) -------------------------------

    /** Timing engine the cell ran under. */
    TimingMode timingMode = TimingMode::Analytic;

    /** Measured per-reference level cost (both engines). */
    double avgAccessTime = 0.0;

    /** Cycle engine only (zero under the analytic model): */
    double avgAccessCycles = 0.0;  ///< per-ref latency incl. bus
    double busUtilization = 0.0;   ///< bus busy fraction of horizon
    double avgBusWait = 0.0;       ///< per-ref bus queueing delay
};

/** Default machine configuration for a size pair and organization. */
MachineConfig makeMachineConfig(HierarchyKind kind, std::uint32_t l1_size,
                                std::uint32_t l2_size,
                                std::uint32_t page_size, bool split = false);

/** Largest level-1 or level-2 cache size a user or client may ask for. */
constexpr std::uint32_t kMaxCacheBytes = 16u << 20;

/** Largest reverse-lookup table a user or client may ask for. */
constexpr std::uint32_t kMaxRltEntries = 1u << 20;

/**
 * Check @p mc before the machine is built, refusing what its
 * constructors panic on: a page, block, associativity or size that is
 * not a power of two; a size under block x assoc (in each half of a
 * split level 1; a page at level 2), over kMaxCacheBytes, or one set
 * of 1-byte blocks; a level-2 block smaller than level-1's where the
 * R-cache holds sub-blocks; an RLT over kMaxRltEntries or without a
 * power-of-two set count. A Bounds error's context names the value's
 * flag as the tools spell it (`--block1`), empty for the page size.
 */
Status checkMachineConfig(const MachineConfig &mc);

/**
 * Check that every record of a trace names a CPU of @p profile, which
 * the simulator built for it has; a Bounds error otherwise.
 */
Status checkTraceCpus(const std::vector<TraceRecord> &records,
                      const WorkloadProfile &profile);

/** One cell of an experiment table: a config to simulate. */
struct SimJob
{
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1Size = 0;
    std::uint32_t l2Size = 0;
    bool split = false;
    std::uint64_t invariantPeriod = 0;

    /** Timing engine for this cell (functional results identical). */
    TimingMode timingMode = TimingMode::Analytic;

    bool operator==(const SimJob &) const = default;
};

/** The machine @p job describes, for a workload of @p page_size pages. */
MachineConfig jobMachineConfig(const SimJob &job, std::uint32_t page_size);

/**
 * Replay @p records through @p sim's MpSimulator::runBatch() in
 * 8192-record chunks, polling @p token before each chunk and after the
 * last. A token cancelled (or expired) mid-replay unwinds the replay
 * with an ErrorException of kind Cancelled ("after i of N records")
 * instead of burning the rest of the trace; counters are identical to
 * one MpSimulator::run() over the whole trace. The one replay loop of
 * campaign cells and of served segments and cells.
 */
void replayCancellable(MpSimulator &sim,
                       const std::vector<TraceRecord> &records,
                       const CancelToken &token);

/**
 * Run one full simulation of @p bundle for @p job and collect the
 * summary: runSimulationCancellable() with a token never cancelled.
 */
SimSummary runSimulationJob(const TraceBundle &bundle, const SimJob &job);

/** Collect the table-facing counters from a finished simulator. */
SimSummary summarizeSimulation(const MpSimulator &sim,
                               const SimJob &job);

/**
 * Build the machine for @p job and replay @p bundle through
 * replayCancellable() under @p token, then summarize it.
 */
SimSummary runSimulationCancellable(const TraceBundle &bundle,
                                    const SimJob &job,
                                    const CancelToken &token);

/**
 * Run every job against @p bundle, possibly concurrently, and return
 * the summaries in job order. Each job gets its own MpSimulator; the
 * bundle is shared read-only, so results are bit-identical for any
 * thread count.
 *
 * @param threads worker count; 0 means ParallelRunner::defaultJobs()
 */
std::vector<SimSummary> runSimulations(const TraceBundle &bundle,
                                       const std::vector<SimJob> &jobs,
                                       unsigned threads = 0);

/** The paper's three large size pairs (Table 6, 8-13). */
std::vector<std::pair<std::uint32_t, std::uint32_t>> paperSizePairs();

/** The paper's three small size pairs (Table 7). */
std::vector<std::pair<std::uint32_t, std::uint32_t>> smallSizePairs();

} // namespace vrc

#endif // VRC_SIM_EXPERIMENT_HH
