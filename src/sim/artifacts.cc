#include "sim/artifacts.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "base/fault.hh"
#include "base/log.hh"
#include "base/table.hh"
#include "coherence/bus.hh"
#include "core/factory.hh"
#include "core/timing.hh"
#include "core/vr_hierarchy.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_stats.hh"
#include "vm/addr_space.hh"

namespace vrc
{
namespace
{

using Stat = HierarchyStat;

using SizePairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
using Kinds = std::vector<HierarchyKind>;

constexpr HierarchyKind kVr = HierarchyKind::VirtualReal;
constexpr HierarchyKind kVrRlt = HierarchyKind::VirtualRealRlt;
constexpr HierarchyKind kRr = HierarchyKind::RealRealIncl;
constexpr HierarchyKind kRrNoIncl = HierarchyKind::RealRealNoIncl;

const char *const kTraces[] = {"thor", "pops", "abaqus"};

/** Tables 2 and 3: the first 411,237 references of CPU 0 (pops). */
constexpr std::uint64_t kSnapshot = 411'237;

/** The strike spec of the soft-error AVF study. */
constexpr const char *kStrikeSpec =
    "seed=97,tag=5e-4,state=1e-4,ptr=1e-4,bus=2e-5";

/** Standard banner naming the reproduced artifact. */
void
banner(const ArtifactRun &run, std::ostream &out)
{
    out << "=== " << run.artifact.title << " ===\n";
    if (run.scale != 1.0)
        out << "(scaled run: " << run.scale
            << " of the paper's trace length)\n";
    out << "\n";
}

/** A table headed by @p columns and a separator. */
TextTable
headed(std::initializer_list<std::string> columns)
{
    TextTable t;
    t.row();
    for (const std::string &c : columns)
        t.cell(c);
    t.separator();
    return t;
}

/** Print a histogram in the paper's "bucket / count" layout. */
void
printIntervalHistogram(const Histogram &h, std::ostream &out)
{
    TextTable t = headed({"interval", "count"});
    for (std::uint64_t d = 1; d < h.maxBucket(); ++d)
        t.row().cell(d).cell(h.count(d));
    t.row()
        .cell(std::to_string(h.maxBucket()) + " and larger")
        .cell(h.overflowCount());
    out << t;
}

double
percent(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
            static_cast<double>(whole)
                 : 0.0;
}

std::uint64_t
totalL1Msgs(const SimSummary &s)
{
    std::uint64_t total = 0;
    for (std::uint64_t m : s.l1MsgsPerCpu)
        total += m;
    return total;
}

WorkloadProfile
scaledProfile(const std::string &trace, double scale, std::uint32_t cpus)
{
    WorkloadProfile p = scaled(profileByName(trace), scale);
    if (cpus != 0)
        p.numCpus = cpus;
    return p;
}

/** @p kinds at every size pair in @p pairs, organization-major. */
std::vector<SimJob>
byKind(const Kinds &kinds, const SizePairs &pairs)
{
    std::vector<SimJob> jobs;
    for (HierarchyKind kind : kinds)
        for (auto [l1, l2] : pairs)
            jobs.push_back({kind, l1, l2});
    return jobs;
}

/** @p kinds at every size pair in @p pairs, size-pair-major. */
std::vector<SimJob>
byPair(const SizePairs &pairs, const Kinds &kinds)
{
    std::vector<SimJob> jobs;
    for (auto [l1, l2] : pairs)
        for (HierarchyKind kind : kinds)
            jobs.push_back({kind, l1, l2});
    return jobs;
}

std::vector<ArtifactGrid>
onEveryTrace(const std::vector<SimJob> &jobs)
{
    std::vector<ArtifactGrid> grids;
    for (const char *trace : kTraces)
        grids.push_back({trace, 0, jobs});
    return grids;
}

/** V-R and R-R at the middle paper pair under the cycle engine. */
std::vector<ArtifactGrid>
cycleGrids(const std::string &trace, std::vector<std::uint32_t> cpus,
           HierarchyKind baseline)
{
    auto [l1, l2] = paperSizePairs()[1];
    std::vector<ArtifactGrid> grids;
    for (std::uint32_t n : cpus) {
        grids.push_back(
            {trace, n,
             {{kVr, l1, l2, false, 0, TimingMode::Cycle},
              {baseline, l1, l2, false, 0, TimingMode::Cycle}}});
    }
    return grids;
}

/** A V-R machine for @p bundle, adjusted by @p tweak, run to the end. */
template <typename Tweak>
std::unique_ptr<MpSimulator>
runVr(const TraceBundle &bundle, std::uint32_t l1, std::uint32_t l2,
      Tweak tweak)
{
    MachineConfig mc =
        makeMachineConfig(kVr, l1, l2, bundle.profile.pageSize);
    tweak(mc);
    auto sim = std::make_unique<MpSimulator>(mc, bundle.profile);
    sim->run(bundle.records);
    return sim;
}

// --- trace-level tables (1, 2, 3, 5) ---------------------------------

int
table1(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const GenStats &gs = artifactTrace("pops", run.scale).stats;
    const Histogram &h = gs.callWrites;

    TextTable t = headed({"no. of wr. per call", "count", "total writes"});
    for (std::uint64_t k = 1; k <= 16; ++k) {
        std::uint64_t count =
            k == h.maxBucket() ? h.overflowCount() : h.count(k);
        t.row().cell(k).cell(count).cell(count * k);
    }
    t.separator();
    t.row()
        .cell("writes due to calls")
        .cell(std::string())
        .cell(gs.callWriteCount);
    t.row()
        .cell("total writes")
        .cell(std::string())
        .cell(gs.totalWrites);
    out << t;
    out << "\nshare of writes due to procedure calls: "
        << percent(gs.callWriteCount, gs.totalWrites)
        << "% (paper: ~30%)\n";
    out << "mean writes per call: " << h.mean()
        << " (paper: six or more typical)\n";
    return 0;
}

/**
 * Under write-through every processor write goes to the next level, so
 * the intervals are the gaps between CPU 0's write references.
 */
int
table2(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    Histogram intervals(10);
    std::uint64_t cpu0_refs = 0;
    std::uint64_t last_write = 0;
    bool saw_write = false;
    for (const TraceRecord &r : artifactTrace("pops", run.scale).records) {
        if (r.cpu != 0 || !r.isMemRef())
            continue;
        ++cpu0_refs;
        if (cpu0_refs > kSnapshot)
            break;
        if (r.type != RefType::Write)
            continue;
        if (saw_write)
            intervals.record(cpu0_refs - last_write);
        last_write = cpu0_refs;
        saw_write = true;
    }

    printIntervalHistogram(intervals, out);
    out << "\nsnapshot refs examined: " << std::min(cpu0_refs, kSnapshot)
        << ", writes: " << intervals.samples() + 1 << "\n";
    out << "short intervals (<10) share: "
        << percent(intervals.samples() - intervals.overflowCount(),
                   intervals.samples())
        << "% (paper: dominated by short intervals)\n";
    return 0;
}

/** Write-backs are dirty replacements, far rarer than Table 2's writes. */
int
table3(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const TraceBundle &bundle = artifactTrace("pops", run.scale);
    MachineConfig mc = makeMachineConfig(kVr, 16 * 1024, 256 * 1024,
                                         bundle.profile.pageSize);
    MpSimulator sim(mc, bundle.profile);
    std::uint64_t cpu0_refs = 0;
    for (const TraceRecord &r : bundle.records) {
        if (r.cpu == 0 && r.isMemRef()) {
            if (++cpu0_refs > kSnapshot)
                break;
        }
        sim.step(r);
    }

    const Histogram &h = sim.hierarchy(0).writeBackIntervals();
    printIntervalHistogram(h, out);
    const auto &stats = sim.hierarchy(0).stats();
    out << "\nwrite-backs by CPU 0: " << stats[Stat::Writebacks]
        << " (of which swapped: " << stats[Stat::SwappedWritebacks]
        << ")\n";
    out << "write-back buffer stalls: " << stats[Stat::WbStalls]
        << " (paper: negligible with a single buffer)\n";
    out << "long intervals (>=10) share: "
        << percent(h.overflowCount(), h.samples())
        << "% (paper: write-backs are far apart)\n";
    return 0;
}

int
table5(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    TextTable t = headed({"trace", "num. of cpus", "total refs",
                          "instr count", "data read", "data write",
                          "context switch count"});
    for (const char *name : kTraces) {
        auto c = characterize(artifactTrace(name, run.scale).records);
        t.row()
            .cell(name)
            .cell(std::uint64_t{c.numCpus})
            .cell(c.totalRefs)
            .cell(c.instrCount)
            .cell(c.dataReads)
            .cell(c.dataWrites)
            .cell(c.contextSwitches);
    }
    out << t;
    out << "\npaper (full scale): thor 4/3283k/1517k/1390k/376k/"
           "21, pops 4/3286k/1718k/1285k/283k/7, abaqus "
           "2/1196k/514k/600k/82k/292\n";
    return 0;
}

// --- hit-ratio, split and coherence tables (6-13) --------------------

/** Tables 6 and 7: V-R cells first, then R-R, per trace. */
ArtifactRenderer
hitRatioTable(std::string expected)
{
    return [expected](const ArtifactRun &run, std::ostream &out) {
        banner(run, out);
        for (std::size_t g = 0; g < run.cells.size(); ++g) {
            const std::vector<SimSummary> &res = run.cells[g];
            const std::size_t n = res.size() / 2;
            TextTable t;
            t.row().cell("trace: " + run.artifact.grids[g].trace);
            for (std::size_t i = 0; i < n; ++i)
                t.cell(sizeLabel(res[i].l1Size, res[i].l2Size));
            t.separator();
            const char *labels[] = {"h1VR", "h1RR", "h2VR", "h2RR"};
            for (int r = 0; r < 4; ++r) {
                t.row().cell(labels[r]);
                for (std::size_t i = 0; i < n; ++i) {
                    const SimSummary &s = res[(r % 2) * n + i];
                    t.cell(r < 2 ? s.h1 : s.h2, 3);
                }
            }
            out << t << "\n";
        }
        out << expected;
        return 0;
    };
}

/** Tables 8-10: split cells first, then unified. */
int
splitTable(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const std::vector<SimSummary> &res = run.cells[0];
    const std::size_t n = res.size() / 2;
    TextTable t;
    t.row().cell(run.artifact.grids[0].trace);
    for (std::size_t i = 0; i < n; ++i)
        t.cell(sizeLabel(res[i].l1Size, res[i].l2Size));
    t.separator();

    const std::pair<const char *, double SimSummary::*> rows[] = {
        {"data read", &SimSummary::h1Read},
        {"data write", &SimSummary::h1Write},
        {"instruction", &SimSummary::h1Instr},
        {"overall", &SimSummary::h1}};
    for (auto [label, member] : rows) {
        t.row().cell(std::string(label) + " split");
        for (std::size_t i = 0; i < n; ++i)
            t.cell(res[i].*member, 3);
        t.row().cell(std::string("  ") + label + " unified");
        for (std::size_t i = n; i < res.size(); ++i)
            t.cell(res[i].*member, 3);
    }
    out << t;
    out << "\nexpected shape (paper): split ratios within a "
           "couple of points of unified, sometimes better.\n";
    return 0;
}

const Kinds kCoherenceOrgs = {kVr, kRr, kRrNoIncl};

/** Tables 11-13: one block of organizations per size pair. */
int
coherenceTable(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const std::vector<SimSummary> &all = run.cells[0];
    const std::size_t orgs = kCoherenceOrgs.size();
    for (std::size_t b = 0; b < all.size(); b += orgs) {
        TextTable t;
        t.row().cell(sizeLabel(all[b].l1Size, all[b].l2Size) + "  cpu");
        for (std::size_t k = b; k < b + orgs; ++k)
            t.cell(hierarchyKindName(all[k].kind));
        t.separator();
        std::uint32_t cpus =
            static_cast<std::uint32_t>(all[b].l1MsgsPerCpu.size());
        for (std::uint32_t c = 0; c < cpus; ++c) {
            t.row().cell(c);
            for (std::size_t k = b; k < b + orgs; ++k)
                t.cell(all[k].l1MsgsPerCpu[c]);
        }
        out << t << "\n";
    }
    out << "expected shape (paper): RR(no incl) several times "
           "more messages than VR/RR(incl); VR ~= RR(incl) for "
           "low-switch traces, RR(incl) somewhat lower for "
           "abaqus (inclusion invalidations from switching).\n";
    return 0;
}

// --- Figures 4-6 -----------------------------------------------------

/** The analytic figure: the even-percent subset of the CSV grid. */
int
accessTimeFigure(const ArtifactRun &run, std::ostream &out)
{
    const std::vector<SimSummary> &res = run.cells[0];
    std::vector<SlowdownPoint> grid = slowdownGrid(res);
    banner(run, out);
    TimingParams tp; // t1 = 1, t2 = 4
    for (std::size_t i = 0; i + 1 < res.size(); i += 2) {
        const SimSummary &vr = res[i];
        const SimSummary &rr = res[i + 1];
        std::uint32_t l1 = vr.l1Size, l2 = vr.l2Size;

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
        out << t;

        double x = crossoverSlowdownPct(vr.h1, vr.h2, rr.h1, rr.h2, tp);
        if (x <= 0.0) {
            out << "crossover: V-R is already at least as fast "
                   "with no translation penalty\n\n";
        } else {
            out << "crossover: V-R wins once translation slows "
                   "the R-R level 1 by "
                << x << "%\n\n";
        }
    }
    return 0;
}

int
accessTimeCsv(const ArtifactRun &run, std::ostream &out)
{
    const std::string &trace = run.artifact.grids[0].trace;
    out << "trace,l1,l2,slowdown_pct,t_vr,t_rr\n";
    for (const SlowdownPoint &pt : slowdownGrid(run.cells[0])) {
        out << trace << "," << pt.l1 << "," << pt.l2 << "," << pt.pct
            << "," << pt.tVr << "," << pt.tRr << "\n";
    }
    return 0;
}

/**
 * The cycle-engine extension: V-R / R-R per CPU count. Contention can
 * only grow with the processor count; a tiny scaled trace can wobble
 * between adjacent points, so the check is end-to-end (exit 1).
 */
ArtifactRenderer
contentionFigure(std::string figure, bool csv)
{
    return [figure, csv](const ArtifactRun &run, std::ostream &out) {
        const std::vector<ArtifactGrid> &grids = run.artifact.grids;
        if (csv) {
            out << "trace,cpus,vr_access_cycles,vr_bus_util,"
                   "vr_bus_wait,rr_access_cycles,rr_bus_util,"
                   "rr_bus_wait\n";
            for (std::size_t g = 0; g < grids.size(); ++g) {
                const SimSummary &vr = run.cells[g][0];
                const SimSummary &rr = run.cells[g][1];
                out << grids[g].trace << "," << grids[g].cpus << ","
                    << vr.avgAccessCycles << "," << vr.busUtilization
                    << "," << vr.avgBusWait << "," << rr.avgAccessCycles
                    << "," << rr.busUtilization << "," << rr.avgBusWait
                    << "\n";
            }
        } else {
            banner(run, out);
            TextTable t = headed({"cpus", "VR cycles/ref", "VR bus util",
                                  "VR wait/ref", "RR cycles/ref",
                                  "RR bus util", "RR wait/ref"});
            for (std::size_t g = 0; g < grids.size(); ++g) {
                const SimSummary &vr = run.cells[g][0];
                const SimSummary &rr = run.cells[g][1];
                t.row()
                    .cell(std::uint64_t{grids[g].cpus})
                    .cell(vr.avgAccessCycles, 4)
                    .cell(vr.busUtilization, 4)
                    .cell(vr.avgBusWait, 4)
                    .cell(rr.avgAccessCycles, 4)
                    .cell(rr.busUtilization, 4)
                    .cell(rr.avgBusWait, 4);
            }
            out << t;
            out << "\nmore processors share one bus: queueing per "
                   "reference must rise with the CPU count.\n";
        }

        double first = run.cells.front()[0].avgBusWait;
        double last = run.cells.back()[0].avgBusWait;
        if (last < first) {
            std::cerr << figure
                      << ": FAIL: avg bus wait did not grow from 1 to "
                         "16 CPUs ("
                      << first << " -> " << last << ")\n";
            return 1;
        }
        return 0;
    };
}

/**
 * With one CPU and a zero-cost bus service table the cycle engine has
 * no contention and no bus occupancy: the per-reference cycle count
 * must reproduce the Section-4 closed form over the run's measured hit
 * ratios. Exits 1 on drift beyond double-rounding slack.
 */
ArtifactRenderer
timingVerify(std::string figure, std::string trace)
{
    return [figure, trace](const ArtifactRun &run, std::ostream &out) {
        WorkloadProfile p = scaledProfile(trace, run.scale, 1);
        TraceBundle bundle = generateTrace(p);
        int failures = 0;
        for (auto [l1, l2] : paperSizePairs()) {
            for (HierarchyKind kind : {kVr, kRr}) {
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
                out << figure << " verify " << hierarchyKindName(kind)
                    << " " << sizeLabel(l1, l2) << ": cycle=" << cycle
                    << " analytic=" << analytic
                    << (ok ? " OK" : " DRIFT") << "\n";
                if (!ok)
                    ++failures;
            }
        }
        return failures == 0 ? 0 : 1;
    };
}

/** The five renderings of one access-time figure. */
void
addFigure(std::vector<Artifact> &out, const std::string &fig,
          const std::string &figure, const std::string &trace)
{
    const std::vector<ArtifactGrid> analytic = {
        {trace, 0, byPair(paperSizePairs(), {kVr, kRr})}};
    const std::string title = figure +
        ": average access time vs. slow-down of first-level R-cache (" +
        trace + ", t2 = 4*t1)";
    auto [l1, l2] = paperSizePairs()[1];
    const std::string contention = figure +
        " (contention extension): cycle-engine access time vs "
        "processor count (" +
        trace + ", sizes " + sizeLabel(l1, l2) + ")";
    const std::vector<ArtifactGrid> cpus =
        cycleGrids(trace, {1, 2, 4, 8, 16}, kRr);

    out.push_back({fig, title, analytic, accessTimeFigure});
    out.push_back({fig + "-csv", title + " [CSV]", analytic, accessTimeCsv});
    out.push_back({fig + "-contention", contention, cpus,
                   contentionFigure(figure, false)});
    out.push_back({fig + "-contention-csv", contention + " [CSV]", cpus,
                   contentionFigure(figure, true)});
    out.push_back({fig + "-verify-timing",
                   figure + ": cycle engine vs the Section-4 closed "
                            "form (" +
                       trace + ", 1 CPU, zero bus service)",
                   {}, timingVerify(figure, trace)});
}

// --- extension studies -----------------------------------------------

/**
 * Section 2: with the relaxed replacement rule, inclusion
 * invalidations are rare (the paper reports 21 for pops at
 * 16K(2-way)/256K). Associativity is not a SimJob knob, so the cells
 * build their machines here.
 */
int
inclusionInvalidations(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    struct Cell
    {
        const char *name;
        const TraceBundle *bundle;
        std::uint32_t l1, l2, assoc;
    };
    std::vector<Cell> cells;
    for (const char *name : {"pops", "thor", "abaqus"}) {
        const TraceBundle *bundle = &artifactTrace(name, run.scale);
        // The paper's quoted geometry first; the last, with a small
        // level-2/level-1 ratio, puts the most pressure on inclusion.
        cells.push_back({name, bundle, 16 * 1024, 256 * 1024, 2});
        cells.push_back({name, bundle, 16 * 1024, 256 * 1024, 1});
        cells.push_back({name, bundle, 4 * 1024, 64 * 1024, 1});
        cells.push_back({name, bundle, 16 * 1024, 64 * 1024, 1});
    }
    auto results =
        ParallelRunner(run.jobs).map(cells.size(), [&](std::size_t i) {
            const Cell &c = cells[i];
            auto sim =
                runVr(*c.bundle, c.l1, c.l2, [&](MachineConfig &mc) {
                    mc.hierarchy.l1.assoc = c.assoc;
                    mc.hierarchy.l2.assoc = c.assoc;
                });
            return std::array<std::uint64_t, 3>{
                sim->totalCounter(Stat::InclusionInvalidations),
                sim->totalCounter(Stat::ForcedRReplacements),
                sim->refsProcessed()};
        });

    TextTable t = headed({"trace", "V-cache", "R-cache", "assoc",
                          "inclusion invalidations", "forced replacements",
                          "refs"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        t.row()
            .cell(c.name)
            .cell(sizeLabel(c.l1, c.l2))
            .cell(std::string())
            .cell(std::uint64_t{c.assoc});
        for (std::uint64_t v : results[i])
            t.cell(v);
    }
    out << t;
    out << "\npaper: 21 inclusion invalidations for pops at "
           "16K(2-way)/256K over ~3.3M references.\n";
    return 0;
}

/**
 * Architected link-storage bits for one organization and geometry: a
 * property of the arrays, so a hierarchy that replays nothing answers.
 */
std::uint64_t
directoryBits(HierarchyKind kind, std::uint32_t l1, std::uint32_t l2,
              std::uint32_t page_size)
{
    MachineConfig cfg = makeMachineConfig(kind, l1, l2, page_size);
    AddressSpaceManager spaces(page_size);
    SharedBus bus;
    auto h = makeHierarchy(kind, cfg.hierarchy, spaces, bus);
    return static_cast<const VrHierarchy &>(*h)
        .synonymDirectory()
        .storageBits();
}

const Kinds kSynonymOrgs = {kVr, kVrRlt, kRr};

/**
 * The paper's r-pointer/v-pointer directory, the bounded reverse-lookup
 * table and the R-R baseline: synonym handling, level-1 percolation and
 * architected directory bits per cell.
 */
int
synonymOrgs(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    for (std::size_t g = 0; g < run.cells.size(); ++g) {
        const std::string &trace = run.artifact.grids[g].trace;
        std::uint32_t page_size = profileByName(trace).pageSize;
        out << "--- " << trace << " ---\n";
        TextTable t = headed({"sizes  org", "h1", "h2", "syn hits",
                              "syn moves", "l1 msgs", "incl inv",
                              "dir bits"});
        for (const SimSummary &s : run.cells[g]) {
            t.row()
                .cell(sizeLabel(s.l1Size, s.l2Size) + " " +
                      hierarchyKindName(s.kind))
                .cell(s.h1, 4)
                .cell(s.h2, 4)
                .cell(s.synonymHits)
                .cell(s.synonymMoves)
                .cell(totalL1Msgs(s))
                .cell(s.inclusionInvalidations)
                .cell(directoryBits(s.kind, s.l1Size, s.l2Size,
                                    page_size));
        }
        out << t << "\n";
    }
    out << "expected shape: VR and VR(rlt) resolve the same synonyms "
           "(identical hit ratios while the table has headroom); the "
           "RLT trades pointer bits in every tag for a small bounded "
           "table, paying extra level-1 messages when conflicts force "
           "back-invalidations; R-R sidesteps synonyms entirely via "
           "first-level translation.\n";
    return 0;
}

/**
 * The paper's closing conjecture: the shielding effect grows with the
 * processor count. pops at 2..16 CPUs under the cycle engine.
 */
int
cpuScaling(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    TextTable t = headed({"cpus", "VR L1 msgs/cpu",
                          "RR(no incl) L1 msgs/cpu", "shield ratio",
                          "VR bus util", "VR bus wait/ref"});
    for (std::size_t g = 0; g < run.cells.size(); ++g) {
        std::uint32_t cpus = run.artifact.grids[g].cpus;
        const SimSummary &vr = run.cells[g][0];
        double vr_msgs = static_cast<double>(totalL1Msgs(vr)) / cpus;
        double ni_msgs =
            static_cast<double>(totalL1Msgs(run.cells[g][1])) / cpus;
        t.row()
            .cell(std::uint64_t{cpus})
            .cell(vr_msgs, 0)
            .cell(ni_msgs, 0)
            .cell(ni_msgs / std::max(vr_msgs, 1.0), 1)
            .cell(vr.busUtilization, 3)
            .cell(vr.avgBusWait, 4);
    }
    out << t;
    out << "\nexpected shape (the paper's conjecture): the no-inclusion"
           " L1 is disturbed proportionally to total bus traffic, so "
           "the shield ratio grows with the processor count; bus "
           "utilization and queueing rise with CPUs.\n";
    return 0;
}

/**
 * Write-invalidate versus write-update at level 2 (V-R, 16K/256K):
 * update keeps remote copies alive but pays a bus broadcast and a
 * memory write per shared write.
 */
int
protocolAblation(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const CoherencePolicy policies[] = {CoherencePolicy::WriteInvalidate,
                                        CoherencePolicy::WriteUpdate};
    for (const char *name : kTraces) {
        const TraceBundle &bundle = artifactTrace(name, run.scale);
        auto sims = ParallelRunner(run.jobs).map(2, [&](std::size_t i) {
            return runVr(bundle, 16 * 1024, 256 * 1024,
                         [&](MachineConfig &mc) {
                             mc.hierarchy.protocol = policies[i];
                         });
        });
        TextTable t = headed({std::string("trace ") + name, "h1", "misses",
                              "bus txs", "updates", "L1 msgs",
                              "memory writes"});
        for (std::size_t i = 0; i < sims.size(); ++i) {
            const MpSimulator &sim = *sims[i];
            t.row()
                .cell(coherencePolicyName(policies[i]))
                .cell(sim.h1(), 4)
                .cell(sim.totalCounter(Stat::Misses))
                .cell(sim.bus().transactions())
                .cell(sim.bus().stats()[BusStat::Update])
                .cell(sim.totalCounter(Stat::L1CoherenceMsgs))
                .cell(sim.totalCounter(Stat::MemoryWrites));
        }
        out << t << "\n";
    }
    out << "expected shape: update raises h1 (no invalidation "
           "misses) at the cost of one bus broadcast and one "
           "memory write per shared write.\n";
    return 0;
}

/**
 * The design choices DESIGN.md calls out, on pops: write-buffer depth,
 * R-cache associativity against forced inclusion invalidations,
 * replacement policy, the level-2/level-1 block-size ratio and the
 * level-1 write policy's traffic.
 */
int
ablation(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const TraceBundle &bundle = artifactTrace("pops", run.scale);

    out << "--- write-buffer depth (pops, V-R 16K/256K) ---\n";
    TextTable wb =
        headed({"depth", "stalls", "writebacks", "cancels", "h1"});
    for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
        auto sim = runVr(bundle, 16 * 1024, 256 * 1024,
                         [&](MachineConfig &mc) {
                             mc.hierarchy.writeBufferDepth = depth;
                         });
        wb.row()
            .cell(std::uint64_t{depth})
            .cell(sim->totalCounter(Stat::WbStalls))
            .cell(sim->totalCounter(Stat::Writebacks))
            .cell(sim->totalCounter(Stat::WritebackCancels))
            .cell(sim->h1(), 4);
    }
    out << wb << "\n";

    out << "--- R-cache associativity vs forced inclusion "
           "invalidations (pops, 16K/64K) ---\n";
    TextTable as = headed({"L2 assoc", "inclusion invalidations",
                           "forced replacements", "h2"});
    for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        auto sim = runVr(bundle, 16 * 1024, 64 * 1024,
                         [&](MachineConfig &mc) {
                             mc.hierarchy.l2.assoc = assoc;
                         });
        as.row()
            .cell(std::uint64_t{assoc})
            .cell(sim->totalCounter(Stat::InclusionInvalidations))
            .cell(sim->totalCounter(Stat::ForcedRReplacements))
            .cell(sim->h2(), 4);
    }
    out << as << "\n";

    out << "--- replacement policy (pops, V-R 16K/256K, 2-way "
           "both levels) ---\n";
    TextTable rp = headed({"policy", "h1", "h2", "misses"});
    for (ReplPolicy policy :
         {ReplPolicy::LRU, ReplPolicy::FIFO, ReplPolicy::Random}) {
        auto sim = runVr(bundle, 16 * 1024, 256 * 1024,
                         [&](MachineConfig &mc) {
                             mc.hierarchy.l1.assoc = 2;
                             mc.hierarchy.l2.assoc = 2;
                             mc.hierarchy.l1.policy = policy;
                             mc.hierarchy.l2.policy = policy;
                         });
        rp.row()
            .cell(replPolicyName(policy))
            .cell(sim->h1(), 4)
            .cell(sim->h2(), 4)
            .cell(sim->totalCounter(Stat::Misses));
    }
    out << rp << "\n";

    out << "--- L2/L1 block-size ratio (pops, V-R 16K/256K, "
           "B1=16) ---\n";
    TextTable br = headed({"B2/B1", "h1", "h2", "bus transactions",
                           "inclusion invalidations"});
    for (std::uint32_t factor : {1u, 2u, 4u}) {
        auto sim = runVr(bundle, 16 * 1024, 256 * 1024,
                         [&](MachineConfig &mc) {
                             mc.hierarchy.l2.blockBytes =
                                 mc.hierarchy.l1.blockBytes * factor;
                         });
        br.row()
            .cell(std::uint64_t{factor})
            .cell(sim->h1(), 4)
            .cell(sim->h2(), 4)
            .cell(sim->bus().transactions())
            .cell(sim->totalCounter(Stat::InclusionInvalidations));
    }
    out << br << "\n";

    // Write-through sends every processor write to level 2; the
    // write-back V-cache only sends dirty replacements (Section 2).
    out << "--- level-1 write policy traffic (pops, 16K/256K) ---\n";
    auto sim =
        runVr(bundle, 16 * 1024, 256 * 1024, [](MachineConfig &) {});
    std::uint64_t writes = sim->totalCounter(Stat::RefsWrite);
    std::uint64_t writebacks = sim->totalCounter(Stat::Writebacks);
    TextTable wp = headed({"policy", "L1->L2 write transfers"});
    wp.row().cell("write-through (every write)").cell(writes);
    wp.row().cell("write-back (dirty replacements)").cell(writebacks);
    wp.row().cell("  of which canceled by synonyms").cell(
        sim->totalCounter(Stat::WritebackCancels));
    out << wp;
    if (writebacks > 0) {
        out << "traffic ratio (WT/WB): "
            << static_cast<double>(writes) /
                static_cast<double>(writebacks)
            << "x\n";
    }
    out << "\n";
    return 0;
}

/** Level-2 TLB hits and misses summed over the CPUs. */
std::pair<std::uint64_t, std::uint64_t>
tlbCounts(MpSimulator &sim)
{
    std::uint64_t hits = 0, misses = 0;
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        auto &h = dynamic_cast<VrHierarchy &>(sim.hierarchy(c));
        hits += h.tlb().hits();
        misses += h.tlb().misses();
    }
    return {hits, misses};
}

/**
 * The V-R TLB sits at level 2 and sees only level-1 misses, so it
 * serves a fraction of an R-R first-level TLB's lookups; then the
 * level-2 TLB's reach against its size and associativity.
 */
int
tlbStudy(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    out << "--- TLB lookups per 1k references (16K/256K) ---\n";
    TextTable t = headed({"trace", "V-R lookups/1k refs",
                          "R-R lookups/1k refs", "relief factor"});
    for (const char *name : kTraces) {
        const TraceBundle &bundle = artifactTrace(name, run.scale);
        auto rate = [&](HierarchyKind kind) {
            MachineConfig mc = makeMachineConfig(
                kind, 16 * 1024, 256 * 1024, bundle.profile.pageSize);
            MpSimulator sim(mc, bundle.profile);
            sim.run(bundle.records);
            auto [hits, misses] = tlbCounts(sim);
            return 1000.0 * static_cast<double>(hits + misses) /
                static_cast<double>(sim.refsProcessed());
        };
        double vr_rate = rate(kVr);
        double rr_rate = rate(kRr);
        t.row()
            .cell(name)
            .cell(vr_rate, 1)
            .cell(rr_rate, 1)
            .cell(rr_rate / vr_rate, 1);
    }
    out << t;
    out << "(V-R translates only on level-1 misses; R-R must "
           "translate every reference.)\n\n";

    out << "--- second-level TLB reach (pops, V-R 16K/256K) ---\n";
    const TraceBundle &bundle = artifactTrace("pops", run.scale);
    TextTable r =
        headed({"entries", "assoc", "TLB miss ratio", "misses/1k refs"});
    const std::pair<std::uint32_t, std::uint32_t> geoms[] = {
        {32, 2}, {64, 2}, {128, 4}, {256, 4}, {512, 8}};
    for (auto [entries, assoc] : geoms) {
        auto sim = runVr(bundle, 16 * 1024, 256 * 1024,
                         [&](MachineConfig &mc) {
                             mc.hierarchy.tlbEntries = entries;
                             mc.hierarchy.tlbAssoc = assoc;
                         });
        auto [hits, misses] = tlbCounts(*sim);
        r.row()
            .cell(std::uint64_t{entries})
            .cell(std::uint64_t{assoc})
            .cell(misses ? static_cast<double>(misses) /
                          static_cast<double>(hits + misses)
                         : 0.0,
                  4)
            .cell(1000.0 * static_cast<double>(misses) /
                      static_cast<double>(sim->refsProcessed()),
                  2);
    }
    out << r;
    return 0;
}

/** The strike outcomes the AVF study reports, in column order. */
constexpr Stat kAvfCounters[] = {
    Stat::SoftSilent,      Stat::SoftCorrected,    Stat::SoftDetected,
    Stat::SoftRecovered,   Stat::SoftRefetchesL2,  Stat::SoftRefetchesBus,
    Stat::MachineChecks};

/** How one AVF cell's strikes resolved. */
struct AvfCell
{
    std::uint64_t refsDone = 0;
    bool halted = false;
    std::vector<std::uint64_t> counters; ///< kAvfCounters, in order
    std::uint64_t busTransactions = 0;
};

AvfCell
runAvfCell(const TraceBundle &bundle, HierarchyKind kind,
           ArrayProtection prot, const SoftErrorConfig &strikes)
{
    MachineConfig mc = makeMachineConfig(kind, 16 * 1024, 256 * 1024,
                                         bundle.profile.pageSize);
    mc.hierarchy.l1.protection = prot;
    mc.hierarchy.l2.protection = prot;
    mc.hierarchy.softErrors = strikes;
    MpSimulator sim(mc, bundle.profile);

    AvfCell r;
    try {
        for (const TraceRecord &rec : bundle.records) {
            sim.step(rec);
            ++r.refsDone;
        }
    } catch (const FaultUnrecoverable &) {
        r.halted = true;
    }
    for (Stat counter : kAvfCounters)
        r.counters.push_back(sim.totalCounter(counter));
    r.busTransactions = sim.bus().transactions();
    return r;
}

/**
 * pops with the strike model armed, per organization and array
 * protection: how strikes resolved and the extra bus transactions over
 * an unarmed run. Inclusion gives V-R and R-R a local refetch path for
 * level-1 strikes; the no-inclusion baseline pays bus refetches.
 */
int
softErrorAvf(const ArtifactRun &run, std::ostream &out)
{
    banner(run, out);
    const TraceBundle &bundle = artifactTrace("pops", run.scale);
    out << "strike spec: " << kStrikeSpec << "\n\n";

    // Per organization, an unarmed baseline (prots[0]), then each
    // protection armed: strikes are per machine, so one batch runs all.
    using P = ArrayProtection;
    const P prots[] = {P::Secded, P::None, P::Parity, P::Secded};
    const std::size_t per_kind = std::size(prots);
    const SoftErrorConfig strikes = parseSoftErrors(kStrikeSpec).take();
    std::vector<AvfCell> cells = ParallelRunner(run.jobs).map(
        kHierarchyKindCount * per_kind, [&](std::size_t i) {
            std::size_t p = i % per_kind;
            return runAvfCell(bundle, kAllHierarchyKinds[i / per_kind],
                              prots[p], p ? strikes : SoftErrorConfig{});
        });

    TextTable t = headed({"org", "protect", "refs", "silent", "corr",
                          "det", "recov", "refetchL2", "refetchBus",
                          "mcheck", "extra bus"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t p = i % per_kind;
        if (p == 0)
            continue;
        const AvfCell &base = cells[i - p], &r = cells[i];
        t.row()
            .cell(hierarchyKindName(kAllHierarchyKinds[i / per_kind]))
            .cell(arrayProtectionName(prots[p]))
            .cell(std::to_string(r.refsDone) + (r.halted ? "*" : ""));
        for (std::uint64_t v : r.counters)
            t.cell(v);
        t.cell(r.busTransactions >= base.busTransactions && !r.halted
                   ? std::to_string(r.busTransactions -
                                    base.busTransactions)
                   : std::string("-"));
    }
    out << t;
    out << "\n(* = halted by machine check before the end of the trace)\n"
           "expected shape: 'none' detects nothing (all strikes silent);\n"
           "parity detects but cannot correct, so dirty-line strikes halt\n"
           "the machine; secded corrects single-bit strikes in place and\n"
           "recovers the detected remainder. Inclusion organizations\n"
           "(vr, rr) refetch level-1 strikes from the level-2 parent for\n"
           "free; rr-noincl pays bus refetches and halts on any detected\n"
           "dirty level-1 strike.\n";
    return 0;
}

std::vector<Artifact>
buildRegistry()
{
    const SizePairs paper = paperSizePairs();
    std::vector<Artifact> r;
    r.push_back({"table1",
                 "Table 1: number of writes due to procedure calls (pops)",
                 {}, table1});
    r.push_back({"table2",
                 "Table 2: inter-write intervals under write-through "
                 "(pops, snapshot of 411,237 refs of CPU 0)",
                 {}, table2});
    r.push_back({"table3",
                 "Table 3: write intervals with write-back and swapped "
                 "write-back (pops, 16K/256K, snapshot)",
                 {}, table3});
    r.push_back({"table5", "Table 5: characteristics of traces", {},
                 table5});
    r.push_back({"table6", "Table 6: hit ratios (V-R vs R-R, direct-mapped)",
                 onEveryTrace(byKind({kVr, kRr}, paper)),
                 hitRatioTable(
                     "expected shape (paper): h1VR == h1RR for thor/pops "
                     "(rare switches); h1VR a few points below h1RR for "
                     "abaqus, gap growing with V-cache size.\n")});
    r.push_back({"table7", "Table 7: hit ratios for small first-level caches",
                 onEveryTrace(byKind({kVr, kRr}, smallSizePairs())),
                 hitRatioTable("expected shape (paper): h1VR ~= h1RR at "
                               "all small sizes, including abaqus.\n")});
    int number = 8;
    for (const char *trace : kTraces) {
        std::vector<SimJob> jobs;
        for (bool split : {true, false})
            for (auto [l1, l2] : paper)
                jobs.push_back({kVr, l1, l2, split});
        r.push_back({"table" + std::to_string(number),
                     "Table " + std::to_string(number) +
                         ": hit ratios of level-1 caches, split I/D vs "
                         "unified (" +
                         trace + ", V-R)",
                     {{trace, 0, jobs}}, splitTable});
        ++number;
    }
    for (const char *trace : {"pops", "thor", "abaqus"}) {
        r.push_back({"table" + std::to_string(number),
                     "Table " + std::to_string(number) +
                         ": number of coherence messages to the "
                         "first-level cache (" +
                         trace + ")",
                     {{trace, 0, byPair(paper, kCoherenceOrgs)}},
                     coherenceTable});
        ++number;
    }
    number = 4;
    for (const char *trace : kTraces) {
        addFigure(r, "fig" + std::to_string(number),
                  "Figure " + std::to_string(number), trace);
        ++number;
    }
    r.push_back({"inclusion-invalidations",
                 "Section 2: inclusion invalidations under the relaxed "
                 "replacement rule",
                 {}, inclusionInvalidations});
    r.push_back({"synonym-orgs",
                 "Synonym-directory organizations: handling cost, "
                 "percolation traffic and directory overhead",
                 onEveryTrace(byPair(paper, kSynonymOrgs)), synonymOrgs});
    // Full pops at 16 CPUs would be very long: scale 1.0 runs a quarter.
    r.push_back({"cpu-scaling",
                 "CPU scaling: shielding and bus contention vs processor "
                 "count (pops profile)",
                 cycleGrids("pops", {2, 4, 8, 16}, kRrNoIncl), cpuScaling,
                 0.25});
    r.push_back({"protocol-ablation",
                 "Protocol ablation: write-invalidate vs write-update "
                 "(V-R, 16K/256K)",
                 {}, protocolAblation});
    r.push_back({"ablation", "Ablations over the paper's design choices",
                 {}, ablation});
    r.push_back({"tlb", "TLB study: lookup pressure (V-R vs R-R) and reach",
                 {}, tlbStudy});
    r.push_back({"soft-error-avf",
                 "Soft-error AVF: protection policy x organization", {},
                 softErrorAvf});
    return r;
}

} // namespace

const std::vector<Artifact> &
artifacts()
{
    static const std::vector<Artifact> registry = buildRegistry();
    return registry;
}

const Artifact *
findArtifact(const std::string &name)
{
    for (const Artifact &a : artifacts()) {
        if (a.name == name)
            return &a;
    }
    return nullptr;
}

const TraceBundle &
artifactTrace(const std::string &name, double scale)
{
    static std::map<std::pair<std::string, double>, TraceBundle> cache;
    auto it = cache.find({name, scale});
    if (it == cache.end()) {
        WorkloadProfile p = scaledProfile(name, scale, 0);
        std::cerr << "[generating " << name << " trace, "
                  << p.totalRefs << " refs]\n";
        it = cache.emplace(std::pair{name, scale}, generateTrace(p))
                 .first;
    }
    return it->second;
}

std::vector<std::vector<SimSummary>>
runArtifactGrids(const Artifact &a, double scale, unsigned jobs)
{
    // A figure's contention table and its CSV share one grid, so
    // `--artifact=all` asks for the same cells twice in a row.
    static std::pair<std::vector<ArtifactGrid>, double> lastGrids;
    static std::vector<std::vector<SimSummary>> lastCells;
    if (lastGrids == std::pair{a.grids, scale})
        return lastCells;
    std::vector<std::vector<SimSummary>> cells;
    for (const ArtifactGrid &g : a.grids) {
        if (g.cpus == 0) {
            cells.push_back(
                runSimulations(artifactTrace(g.trace, scale), g.jobs, jobs));
        } else {
            // A resized machine gets its own trace, dropped after use.
            TraceBundle bundle =
                generateTrace(scaledProfile(g.trace, scale, g.cpus));
            cells.push_back(runSimulations(bundle, g.jobs, jobs));
        }
    }
    lastGrids = {a.grids, scale};
    return lastCells = cells;
}

int
runArtifact(const Artifact &a, double scale, unsigned jobs,
            std::ostream &out)
{
    if (scale == 1.0)
        scale = a.fullScale;
    ArtifactRun run{a, scale, jobs, runArtifactGrids(a, scale, jobs)};
    return a.render(run, out);
}

std::vector<SimJob>
sweepGrid(TimingMode mode)
{
    std::vector<SimJob> jobs =
        byKind(Kinds(std::begin(kAllHierarchyKinds),
                     std::end(kAllHierarchyKinds)),
               paperSizePairs());
    for (SimJob &job : jobs)
        job.timingMode = mode;
    return jobs;
}

std::vector<SlowdownPoint>
slowdownGrid(const std::vector<SimSummary> &res)
{
    TimingParams tp; // t1 = 1, t2 = 4
    std::vector<SlowdownPoint> grid;
    for (std::size_t i = 0; i + 1 < res.size(); i += 2) {
        const SimSummary &vr = res[i];
        const SimSummary &rr = res[i + 1];
        for (int pct = 0; pct <= 10; ++pct) {
            TimingParams slowed = tp;
            slowed.l1SlowdownPct = pct;
            grid.push_back(
                {vr.l1Size, vr.l2Size, pct,
                 avgAccessTimeTwoTerm(vr.h1, vr.h2, tp),
                 avgAccessTimeTwoTerm(rr.h1, rr.h2, slowed)});
        }
    }
    return grid;
}

} // namespace vrc
