/**
 * @file
 * Shared implementation of Figures 4, 5 and 6: average access time of
 * the V-R and R-R hierarchies versus the percentage slowdown of the
 * R-R level-1 access due to address translation (t2 = 4*t1, two-term
 * model as in the paper).
 *
 * The three bench_fig*_access_time.cc binaries are thin configs over
 * runAccessTimeFigure(); every sweep (the slowdown grid, the CSV and
 * table renderings, the CPU-count contention extension) is produced
 * from one shared grid so the outputs can never drift apart.
 *
 * Modes, selectable per binary:
 *   (default)        the paper's analytic figure (table)
 *   --csv            the same grid, one row per point, for plotting
 *   --contention     cycle-engine extension: sweep 1..16 CPUs and
 *                    report avg access cycles, bus utilization and
 *                    queueing per organization (also honors --csv)
 *   --verify-timing  cross-check: with one CPU and a zero bus service
 *                    table the cycle engine must reproduce the
 *                    analytic closed form; exits nonzero on drift
 */

#ifndef VRC_BENCH_FIG_ACCESS_TIME_HH
#define VRC_BENCH_FIG_ACCESS_TIME_HH

#include <cmath>

#include "bench_util.hh"

#include "core/timing.hh"

namespace vrc
{

inline bool
benchFlag(int argc, char **argv, const std::string &name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == name)
            return true;
    }
    return false;
}

/** Back-compat spelling used by older scripts. */
inline bool
wantCsv(int argc, char **argv)
{
    return benchFlag(argc, argv, "--csv");
}

// --- the analytic figure (Figures 4-6 proper) ------------------------

/** One point of the slowdown sweep grid. */
struct SlowdownPoint
{
    std::uint32_t l1 = 0;
    std::uint32_t l2 = 0;
    int pct = 0;       ///< R-R level-1 translation slowdown (%)
    double tVr = 0.0;  ///< two-term V-R access time (slowdown-free)
    double tRr = 0.0;  ///< two-term R-R access time at this slowdown
};

/**
 * Evaluate the full grid once: every paper size pair crossed with
 * every slowdown percentage. The V-R and R-R simulations behind a size
 * pair are shared by all of that pair's points.
 */
inline std::vector<SlowdownPoint>
slowdownGrid(const std::vector<SimSummary> &res, const TimingParams &tp)
{
    std::vector<SlowdownPoint> grid;
    std::size_t i = 0;
    for (auto [l1, l2] : paperSizePairs()) {
        const SimSummary &vr = res[i++];
        const SimSummary &rr = res[i++];
        for (int pct = 0; pct <= 10; ++pct) {
            TimingParams slowed = tp;
            slowed.l1SlowdownPct = pct;
            grid.push_back(
                {l1, l2, pct, avgAccessTimeTwoTerm(vr.h1, vr.h2, tp),
                 avgAccessTimeTwoTerm(rr.h1, rr.h2, slowed)});
        }
    }
    return grid;
}

inline int
runAnalyticFigure(const std::string &figure, const std::string &trace,
                  double scale, bool csv)
{
    const TraceBundle &bundle = profileTrace(trace, scale);
    TimingParams tp; // t1 = 1, t2 = 4

    // The measured inputs (one V-R and one R-R run per size pair) are
    // shared by the CSV and table outputs: simulate them as one batch.
    std::vector<SimJob> jobs;
    for (auto [l1, l2] : paperSizePairs()) {
        jobs.push_back({HierarchyKind::VirtualReal, l1, l2});
        jobs.push_back({HierarchyKind::RealRealIncl, l1, l2});
    }
    std::vector<SimSummary> res = runSimulations(bundle, jobs);

    std::vector<SlowdownPoint> grid = slowdownGrid(res, tp);

    if (csv) {
        std::cout << "trace,l1,l2,slowdown_pct,t_vr,t_rr\n";
        for (const SlowdownPoint &pt : grid) {
            std::cout << trace << "," << pt.l1 << "," << pt.l2 << ","
                      << pt.pct << "," << pt.tVr << "," << pt.tRr
                      << "\n";
        }
        return 0;
    }
    banner(figure + ": average access time vs. slow-down of first-level"
                    " R-cache (" +
               trace + ", t2 = 4*t1)",
           scale);

    std::size_t pair_index = 0;
    for (auto [l1, l2] : paperSizePairs()) {
        const SimSummary &vr = res[pair_index++];
        const SimSummary &rr = res[pair_index++];

        // Render from the shared grid: the table is the even-percent
        // subset of the CSV, by construction.
        TextTable t;
        t.row().cell("sizes " + sizeLabel(l1, l2) + "  slowdown%");
        for (int pct = 0; pct <= 10; pct += 2)
            t.cell(pct);
        t.separator();
        t.row().cell("T(V-R)");
        for (const SlowdownPoint &pt : grid) {
            if (pt.l1 == l1 && pt.l2 == l2 && pt.pct % 2 == 0)
                t.cell(pt.tVr, 4);
        }
        t.row().cell("T(R-R)");
        for (const SlowdownPoint &pt : grid) {
            if (pt.l1 == l1 && pt.l2 == l2 && pt.pct % 2 == 0)
                t.cell(pt.tRr, 4);
        }
        std::cout << t;

        double x =
            crossoverSlowdownPct(vr.h1, vr.h2, rr.h1, rr.h2, tp);
        if (x <= 0.0) {
            std::cout << "crossover: V-R is already at least as fast "
                         "with no translation penalty\n\n";
        } else {
            std::cout << "crossover: V-R wins once translation slows "
                         "the R-R level 1 by "
                      << x << "%\n\n";
        }
    }
    return 0;
}

// --- the contention extension (cycle engine) -------------------------

/** Cycle-engine measurements of one organization at one CPU count. */
struct ContentionPoint
{
    std::uint32_t cpus = 0;
    double vrCycles = 0.0; ///< V-R avg access cycles (incl. bus)
    double vrUtil = 0.0;   ///< V-R bus utilization
    double vrWait = 0.0;   ///< V-R avg bus wait per reference
    double rrCycles = 0.0;
    double rrUtil = 0.0;
    double rrWait = 0.0;
};

/**
 * Sweep the processor count under the cycle engine. One trace is
 * generated per CPU count (the workload scales with the machine), and
 * the V-R / R-R pair shares it.
 */
inline std::vector<ContentionPoint>
contentionSweep(const std::string &trace, double scale, std::uint32_t l1,
                std::uint32_t l2)
{
    std::vector<ContentionPoint> points;
    for (std::uint32_t cpus : {1u, 2u, 4u, 8u, 16u}) {
        WorkloadProfile p = scaled(profileByName(trace), scale);
        p.numCpus = cpus;
        TraceBundle bundle = generateTrace(p);

        std::vector<SimJob> jobs;
        jobs.push_back({HierarchyKind::VirtualReal, l1, l2, false, 0,
                        TimingMode::Cycle});
        jobs.push_back({HierarchyKind::RealRealIncl, l1, l2, false, 0,
                        TimingMode::Cycle});
        std::vector<SimSummary> res = runSimulations(bundle, jobs);

        points.push_back({cpus, res[0].avgAccessCycles,
                          res[0].busUtilization, res[0].avgBusWait,
                          res[1].avgAccessCycles, res[1].busUtilization,
                          res[1].avgBusWait});
    }
    return points;
}

inline int
runContentionFigure(const std::string &figure, const std::string &trace,
                    double scale, bool csv)
{
    // The middle paper size pair: small enough to show misses, big
    // enough that the bus is not the whole story.
    auto [l1, l2] = paperSizePairs()[1];
    std::vector<ContentionPoint> pts =
        contentionSweep(trace, scale, l1, l2);

    if (csv) {
        std::cout << "trace,cpus,vr_access_cycles,vr_bus_util,"
                     "vr_bus_wait,rr_access_cycles,rr_bus_util,"
                     "rr_bus_wait\n";
        for (const ContentionPoint &pt : pts) {
            std::cout << trace << "," << pt.cpus << "," << pt.vrCycles
                      << "," << pt.vrUtil << "," << pt.vrWait << ","
                      << pt.rrCycles << "," << pt.rrUtil << ","
                      << pt.rrWait << "\n";
        }
    } else {
        banner(figure + " (contention extension): cycle-engine access "
                        "time vs processor count (" +
                   trace + ", sizes " + sizeLabel(l1, l2) + ")",
               scale);
        TextTable t;
        t.row()
            .cell("cpus")
            .cell("VR cycles/ref")
            .cell("VR bus util")
            .cell("VR wait/ref")
            .cell("RR cycles/ref")
            .cell("RR bus util")
            .cell("RR wait/ref");
        t.separator();
        for (const ContentionPoint &pt : pts) {
            t.row()
                .cell(std::uint64_t{pt.cpus})
                .cell(pt.vrCycles, 4)
                .cell(pt.vrUtil, 4)
                .cell(pt.vrWait, 4)
                .cell(pt.rrCycles, 4)
                .cell(pt.rrUtil, 4)
                .cell(pt.rrWait, 4);
        }
        std::cout << t;
        std::cout << "\nmore processors share one bus: queueing per "
                     "reference must rise with the CPU count.\n";
    }

    // Sanity: contention can only grow with the processor count. A
    // tiny scaled trace can wobble between adjacent points, so the
    // check is end-to-end rather than pairwise.
    if (pts.back().vrWait < pts.front().vrWait) {
        std::cerr << figure
                  << ": FAIL: avg bus wait did not grow from 1 to 16 "
                     "CPUs ("
                  << pts.front().vrWait << " -> " << pts.back().vrWait
                  << ")\n";
        return 1;
    }
    return 0;
}

// --- the analytic/cycle cross-check ----------------------------------

/**
 * With one CPU and a zero-cost bus service table the cycle engine has
 * no contention and no bus occupancy: the per-reference cycle count
 * must reproduce the Section-4 closed form over the run's measured hit
 * ratios. Exits nonzero on drift beyond double-rounding slack.
 */
inline int
runTimingVerify(const std::string &figure, const std::string &trace,
                double scale)
{
    WorkloadProfile p = scaled(profileByName(trace), scale);
    p.numCpus = 1;
    TraceBundle bundle = generateTrace(p);

    int failures = 0;
    for (auto [l1, l2] : paperSizePairs()) {
        for (HierarchyKind kind : {HierarchyKind::VirtualReal,
                                   HierarchyKind::RealRealIncl}) {
            MachineConfig mc =
                makeMachineConfig(kind, l1, l2, p.pageSize);
            mc.timingMode = TimingMode::Cycle;
            mc.busTiming = BusTimingParams::zero();
            MpSimulator sim(mc, p);
            sim.run(bundle.records);

            double cycle = sim.avgAccessCycles();
            double analytic =
                avgAccessTime(sim.h1(), sim.h2(), mc.timing);
            double tol = 1e-9 * std::max(1.0, std::abs(analytic));
            bool ok = std::abs(cycle - analytic) <= tol &&
                sim.busWaitTime() == 0.0;
            std::cout << figure << " verify " << hierarchyKindName(kind)
                      << " " << sizeLabel(l1, l2) << ": cycle=" << cycle
                      << " analytic=" << analytic
                      << (ok ? " OK" : " DRIFT") << "\n";
            if (!ok)
                ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

// --- the shared entry point ------------------------------------------

/**
 * Entry point shared by the three figure binaries; @p figure and
 * @p trace are the whole per-figure configuration.
 */
inline int
runAccessTimeFigure(const std::string &figure, const std::string &trace,
                    int argc, char **argv)
{
    double scale = benchScaleFromArgs(argc, argv);
    bool csv = benchFlag(argc, argv, "--csv");

    if (benchFlag(argc, argv, "--verify-timing"))
        return runTimingVerify(figure, trace, scale);
    if (benchFlag(argc, argv, "--contention"))
        return runContentionFigure(figure, trace, scale, csv);
    return runAnalyticFigure(figure, trace, scale, csv);
}

} // namespace vrc

#endif // VRC_BENCH_FIG_ACCESS_TIME_HH
