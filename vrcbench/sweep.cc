/**
 * @file
 * The `sweep` workload: regenerate the paper's large-cache tables.
 *
 * Set-up generates thor, pops and abaqus at full paper length. The
 * timed section then runs whole passes; a pass is the 12-cell grid
 * (4 organizations x 3 large size pairs, analytic timing) over each
 * trace through runSimulationCampaign, with a checkpoint journal and a
 * fixed worker count. The traced run alternates untraced passes with
 * passes through the same composition spelled out -- CampaignRunner::run
 * keyed by campaignKey, each cell a span around runSimulationCancellable
 * -- so tracing overhead is traced vs untraced refs/s.
 */

#include <atomic>
#include <filesystem>

#include "sim/campaign.hh"
#include "sim/parallel_runner.hh"
#include "workloads.hh"

namespace vrcbench
{

using namespace vrc;

namespace
{

constexpr int kSetups = 3;
const char *const kTraces[] = {"thor", "pops", "abaqus"};

/** vrc-sim --sweep's grid: 4 organizations x 3 large size pairs. */
std::vector<SimJob>
sweepJobs()
{
    std::vector<SimJob> jobs;
    for (HierarchyKind kind : kAllHierarchyKinds)
        for (auto [l1, l2] : paperSizePairs())
            jobs.push_back({kind, l1, l2, false, 0, TimingMode::Analytic});
    return jobs;
}

/** Cell timing of one traced campaign. */
struct CellTimes
{
    std::vector<double> runS;  ///< per-cell busy time
    std::vector<double> waitS; ///< campaign start to cell start
    std::atomic<unsigned> attempts{0};
};

/** runSimulationCampaign's composition, with every cell in a span. */
Result<CampaignResult>
tracedCampaign(const TraceBundle &bundle, const std::vector<SimJob> &jobs,
               const CampaignOptions &co, Tracer &tracer,
               std::uint64_t parent, CellTimes &times)
{
    std::mutex mu;
    Clock::time_point start = Clock::now();
    CampaignRunner runner(co);
    return runner.run(
        jobs.size(), campaignKey(bundle, jobs),
        [&](std::size_t i, const CancelToken &token) {
            times.attempts.fetch_add(1);
            double wait = secondsSince(start);
            Clock::time_point t0 = Clock::now();
            Tracer::Scope cell(tracer, "sim", "sim.runSimulationCancellable",
                               parent);
            SimSummary s = runSimulationCancellable(bundle, jobs[i], token);
            std::lock_guard<std::mutex> g(mu);
            times.runS.push_back(secondsSince(t0));
            times.waitS.push_back(wait);
            return s;
        });
}

std::vector<std::string>
linesOf(const std::vector<SimSummary> &cells)
{
    std::vector<std::string> out;
    for (std::size_t i = 0; i < cells.size(); ++i)
        out.push_back(encodeSummaryLine(i, cells[i]));
    return out;
}

} // namespace

Outcome
runSweep(const RunOptions &opt, Tracer &tracer)
{
    Outcome o;
    o.unitName = "campaign: the 12-cell grid over one trace";
    std::vector<TraceBundle> bundles;
    for (int rep = 0; rep < kSetups; ++rep) {
        bundles.clear();
        Tracer::Scope setup(tracer, "bench", "setup");
        Clock::time_point t0 = Clock::now();
        for (const char *name : kTraces) {
            Tracer::Scope gen(tracer, "trace", "trace.generateTrace",
                              setup.id());
            bundles.push_back(generateTrace(seededProfile(name, opt.seed)));
        }
        o.setupSeconds.push_back(secondsSince(t0));
    }

    const std::vector<SimJob> jobs = sweepJobs();
    const std::size_t n = std::size(kTraces);
    std::vector<std::vector<std::string>> firstLines(n);
    std::vector<std::vector<SimSummary>> firstCells(n);
    std::vector<double> tracedRates, untracedRates;
    CellTimes times;
    double tracedWall = 0.0;

    // Pass 0 warms the allocator and the host caches: it is checked but
    // not timed. The timed section then runs whole passes until the
    // time is up, at least three; the traced run alternates untraced
    // and traced passes so that their rates compare like with like.
    Clock::time_point timed;
    const unsigned minTimed = opt.trace ? 4 : 3;
    for (unsigned pass = 0;; ++pass) {
        if (pass == 1)
            timed = Clock::now();
        if (pass > minTimed && secondsSince(timed) >= opt.seconds)
            break;
        bool traced = opt.trace && pass > 0 && pass % 2 == 0;
        Tracer::Scope passSpan(tracer, "bench", "pass");
        double passS = 0.0, passRefs = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            CampaignOptions co;
            co.checkpoint = opt.tmpDir + "/sweep-" + std::to_string(pass) +
                "-" + kTraces[t] + ".journal";
            co.jobs = opt.jobs;
            Clock::time_point t0 = Clock::now();
            Result<CampaignResult> r = [&] {
                if (!traced)
                    return runSimulationCampaign(bundles[t], jobs, co);
                Tracer::Scope c(tracer, "sim", "sim.CampaignRunner::run",
                                passSpan.id());
                return tracedCampaign(bundles[t], jobs, co, tracer, c.id(),
                                      times);
            }();
            double s = secondsSince(t0);
            if (traced)
                tracedWall += s;
            std::filesystem::remove(co.checkpoint);
            passS += s;
            if (pass > 0)
                o.unitMs.push_back(s * 1e3);
            o.attempted += jobs.size();
            if (!r) {
                o.failed += jobs.size();
                continue;
            }
            const CampaignResult &res = r.value();
            o.failed += jobs.size() - res.completedCells();
            for (const SimSummary &c : res.summaries)
                passRefs += static_cast<double>(c.refs);
            std::vector<std::string> lines = linesOf(res.summaries);
            if (pass == 0) {
                firstLines[t] = lines;
                firstCells[t] = res.summaries;
            } else {
                o.failed += countMismatches(lines, firstLines[t]);
            }
        }
        if (pass > 0) {
            o.passRefsPerSec.push_back(passRefs / passS);
            (traced ? tracedRates : untracedRates)
                .push_back(passRefs / passS);
        }
    }

    // Off the clock: the campaign's summaries must equal the batch
    // path's (runSimulationJob) byte for byte.
    Clock::time_point check0 = Clock::now();
    std::vector<SimSummary> all;
    for (std::size_t t = 0; t < n; ++t) {
        std::vector<std::string> want =
            linesOf(runSimulations(bundles[t], jobs, opt.jobs));
        if (opt.corrupt && t == 0)
            firstLines[t][0] = corruptSummaryLine(firstLines[t][0]);
        o.failed += countMismatches(firstLines[t], want);
        if (t == 0)
            o.checkerTripped = checkerTrips(want[0]);
        all.insert(all.end(), firstCells[t].begin(), firstCells[t].end());
    }

    // RLT conflict back-invalidations are not in the summary: count
    // them by replaying the grid's vr-rlt cells directly.
    std::vector<std::pair<std::size_t, SimJob>> rltCells;
    for (std::size_t t = 0; t < n; ++t)
        for (const SimJob &j : jobs)
            if (j.kind == HierarchyKind::VirtualRealRlt)
                rltCells.emplace_back(t, j);
    std::vector<std::uint64_t> rlt =
        ParallelRunner(opt.jobs).map(rltCells.size(), [&](std::size_t i) {
            const auto &[t, j] = rltCells[i];
            MpSimulator sim(makeMachineConfig(j.kind, j.l1Size, j.l2Size,
                                              bundles[t].profile.pageSize),
                            bundles[t].profile);
            sim.run(bundles[t].records);
            return sim.totalCounter("rlt_conflict_invalidations");
        });
    std::uint64_t rltTotal = 0;
    for (std::uint64_t v : rlt)
        rltTotal += v;
    o.extras.push_back({"check_s", secondsSince(check0), "s"});

    o.simCyclesPerRef = cyclesPerRef(all);
    appendSummaryCounts(all, rltTotal, o.layers);
    o.extras.push_back({"cells_per_pass", double(jobs.size() * n), "count"});
    o.extras.push_back({"workers", double(opt.jobs), "count"});

    if (opt.trace) {
        double gen = 0.0;
        for (double s : tracer.durations("trace.generateTrace"))
            gen += s;
        o.layers.push_back({"trace.generate_s", gen / kSetups, "s"});
        o.layers.push_back({"sim.cell_s.p50", median(times.runS), "s"});
        o.layers.push_back({"sim.cell_s.max", maxOf(times.runS), "s"});
        o.layers.push_back({"sim.cell_wait_s", mean(times.waitS), "s"});
        double busy = mean(times.runS) * double(times.runS.size());
        o.layers.push_back({"sim.worker_busy_frac",
                            busy / (tracedWall * opt.jobs), "ratio"});
        o.layers.push_back(
            {"sim.cells_retried",
             double(times.attempts.load() - times.runS.size()), "count"});
        double tr = median(tracedRates), un = median(untracedRates);
        o.layers.push_back(
            {"bench.tracing_overhead_frac", 1.0 - tr / un, "ratio"});
        o.extras.push_back({"traced_refs_per_s", tr, "refs/s"});
        o.extras.push_back({"untraced_refs_per_s", un, "refs/s"});

        std::vector<const TraceBundle *> inputs;
        for (const TraceBundle &b : bundles)
            inputs.push_back(&b);
        o.failed += runLadder(inputs, LadderConfig{16 * 1024, 256 * 1024},
                              tracer, o.layers);
    }
    return o;
}

} // namespace vrcbench
