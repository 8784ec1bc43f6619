/**
 * @file
 * The registry of the paper's artifacts: Tables 1-3 and 5-13, Figures
 * 4-6 in each of their renderings, and the extension studies.
 *
 * Each entry names an artifact, holds the traces and the SimJob grid
 * behind it, and renders the paper-style text from the grid's
 * summaries. `vrc-sim --artifact=<name>|all` runs any of them; the
 * golden corpus, vrc-validate and the sweep grid read the same entries,
 * so every grid is written down once.
 */

#ifndef VRC_SIM_ARTIFACTS_HH
#define VRC_SIM_ARTIFACTS_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace vrc
{

/** One trace of an artifact and the cells simulated on it. */
struct ArtifactGrid
{
    std::string trace;        ///< built-in profile name
    std::uint32_t cpus = 0;   ///< processor count; 0 keeps the profile's
    std::vector<SimJob> jobs;

    bool operator==(const ArtifactGrid &) const = default;
};

struct Artifact;

/** What a renderer reads. */
struct ArtifactRun
{
    const Artifact &artifact;
    double scale;   ///< trace-length scale the run uses
    unsigned jobs;  ///< worker threads; 0 means the default
    std::vector<std::vector<SimSummary>> cells; ///< per grid, job order
};

/** Writes an artifact's text and returns the process exit code. */
using ArtifactRenderer =
    std::function<int(const ArtifactRun &, std::ostream &)>;

/** One table or figure rendering. */
struct Artifact
{
    std::string name;  ///< the --artifact=<name> spelling
    std::string title; ///< banner text (CSV and checks print none)
    std::vector<ArtifactGrid> grids;
    ArtifactRenderer render;
    double fullScale = 1.0; ///< scale a run asked for at 1.0 uses
};

/** Every artifact, in the order `--artifact=all` renders them. */
const std::vector<Artifact> &artifacts();

/** The artifact spelled @p name, or nullptr. */
const Artifact *findArtifact(const std::string &name);

/**
 * A built-in profile's trace at @p scale, generated on first use and
 * kept for the life of the process. Not thread-safe: call it from one
 * thread.
 */
const TraceBundle &artifactTrace(const std::string &name, double scale);

/**
 * Simulate every grid of @p a at @p scale, in grid order. A call with
 * the previous call's grids and scale returns its cells again. Not
 * thread-safe: call it from one thread.
 */
std::vector<std::vector<SimSummary>>
runArtifactGrids(const Artifact &a, double scale, unsigned jobs = 0);

/**
 * Simulate @p a at @p scale (its fullScale when @p scale is 1.0) and
 * render it to @p out. Returns the renderer's exit code: nonzero when
 * a check artifact (contention growth, timing drift) fails.
 */
int runArtifact(const Artifact &a, double scale, unsigned jobs,
                std::ostream &out);

/**
 * The campaign grid of `vrc-sim --sweep` and `--coordinate`: every
 * organization at every paper size pair, organization-major.
 */
std::vector<SimJob> sweepGrid(TimingMode mode);

/** One point of Figures 4-6: two-term access times at a slowdown. */
struct SlowdownPoint
{
    std::uint32_t l1 = 0;
    std::uint32_t l2 = 0;
    int pct = 0;       ///< R-R level-1 translation slowdown (%)
    double tVr = 0.0;  ///< two-term V-R access time (slowdown-free)
    double tRr = 0.0;  ///< two-term R-R access time at this slowdown
};

/**
 * The figures' grid: each size pair of a figure artifact's V-R / R-R
 * summaries (@p res, pair by pair) crossed with 0..10% slowdown, at
 * t1 = 1, t2 = 4.
 */
std::vector<SlowdownPoint> slowdownGrid(const std::vector<SimSummary> &res);

} // namespace vrc

#endif // VRC_SIM_ARTIFACTS_HH
