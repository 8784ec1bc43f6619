/**
 * @file
 * The benchmark's workloads and the layer ladder they share.
 *
 * Each workload runs one user-visible path of the simulator from the
 * outside: set-up, a timed section of whole passes, then output checks
 * off the clock. With tracing on, spans wrap the calls into each module
 * and the layer ladder replays the workload's own trace through
 * progressively fuller stacks to split host time by layer.
 */

#ifndef VRCBENCH_WORKLOADS_HH
#define VRCBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"
#include "tracer.hh"
#include "trace/workload.hh"

namespace vrcbench
{

/** Command-line settings shared by every workload. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 4;       ///< worker threads (sweep)
    std::string tmpDir;      ///< scratch for journals and sockets
    bool corrupt = false;    ///< corrupt one output before checking
};

/** What one workload run measured. */
struct Outcome
{
    std::vector<double> setupSeconds; ///< one sample per set-up
    std::vector<double> passRefsPerSec;
    std::vector<double> unitMs;       ///< latency of each unit of work
    std::string unitName;             ///< what a unit is
    double simCyclesPerRef = 0.0;     ///< simulated t1 per reference
    std::uint64_t attempted = 0;      ///< cells, replays or segments
    std::uint64_t failed = 0;         ///< of those, failed or wrong
    bool checkerTripped = false;      ///< corrupted line was caught

    /** Per-layer metrics (traced run only, plus the counts always). */
    std::vector<Metric> layers;
    /** Workload-specific figures printed beside the result. */
    std::vector<Metric> extras;
};

/** Machine shape the ladder replays at. */
struct LadderConfig
{
    std::uint32_t l1 = 16 * 1024;
    std::uint32_t l2 = 256 * 1024;
};

/**
 * The layer ladder: decode, then TLB, then L1 probe, then each
 * organization's full hierarchy under the analytic model, then the
 * cycle engine; plus record-at-a-time vs batched replay of one cell,
 * simulator construction and the segment codec. Appends the per-layer
 * metrics to @p out. @return how many ladder replays disagreed with
 * the batch path (0 expected).
 */
std::size_t runLadder(const std::vector<const vrc::TraceBundle *> &inputs,
                      const LadderConfig &cfg, Tracer &tracer,
                      std::vector<Metric> &out);

/**
 * The core.* / coherence.* counts of a set of summaries, so a pure
 * speed change can be shown to leave them exactly equal.
 */
void appendSummaryCounts(const std::vector<vrc::SimSummary> &cells,
                         std::uint64_t rltConflicts,
                         std::vector<Metric> &out);

/** Weighted simulated cost per reference over @p cells. */
double cyclesPerRef(const std::vector<vrc::SimSummary> &cells);

Outcome runSweep(const RunOptions &opt, Tracer &tracer);
Outcome runContention(const RunOptions &opt, Tracer &tracer);
Outcome runServe(const RunOptions &opt, Tracer &tracer);

/** The workload profiles with the benchmark seed applied. */
vrc::WorkloadProfile seededProfile(const std::string &name,
                                   std::uint64_t seed);

/** Change one counter in a summary line (checker self-test). */
std::string corruptSummaryLine(const std::string &line);

/** True when the checker flags a corrupted copy of @p line. */
bool checkerTrips(const std::string &line);

} // namespace vrcbench

#endif // VRCBENCH_WORKLOADS_HH
