/**
 * @file
 * Golden-stats regression corpus for the paper's tables and figures.
 *
 * Every artifact (Tables 1-13, Figures 4-6) is reduced to a list of
 * text lines carrying its architectural numbers: simulation cells are
 * encoded with encodeSummaryLine() (hexfloat doubles, so the encoding
 * is exact), trace-level tables as integer histogram/counter lines,
 * and the figure grids as hexfloat two-term access times. The lines
 * are diffed against checked-in golden files, so any silent counter
 * drift -- a replacement decision, a coherence message, a hit ratio
 * off by one reference -- fails tier-1 immediately instead of only
 * surfacing in the (tolerance-based) paper-number tests. The grids
 * come from the artifact registry (sim/artifacts.hh), and the text
 * each registry artifact renders is pinned as well, under
 * tests/golden/rendered/.
 *
 * The corpus runs at a reduced trace scale (kGoldenScale) to stay
 * fast; scale changes the numbers, not their determinism. To
 * regenerate after an *intentional* behaviour change:
 *
 *     VRC_UPDATE_GOLDEN=1 ./golden_stats_test
 *
 * then commit the rewritten files under tests/golden/ and explain the
 * drift in the commit message. The golden files are the canonical
 * reproduction artifact (see EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "sim/artifacts.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/trace_stats.hh"

namespace vrc
{
namespace
{

/** Fraction of the paper's trace lengths the corpus runs at. */
constexpr double kGoldenScale = 0.02;

#ifndef VRC_GOLDEN_DIR
#error "VRC_GOLDEN_DIR must name the checked-in golden directory"
#endif

const TraceBundle &
goldenTrace(const std::string &name)
{
    return artifactTrace(name, kGoldenScale);
}

std::string
hex(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

/** Run @p jobs against @p bundle and encode one line per cell. */
std::vector<std::string>
summaryLines(const TraceBundle &bundle, const std::vector<SimJob> &jobs)
{
    std::vector<std::string> lines;
    std::vector<SimSummary> res = runSimulations(bundle, jobs);
    for (std::size_t i = 0; i < res.size(); ++i)
        lines.push_back(encodeSummaryLine(i, res[i]));
    return lines;
}

/** Histogram in "bucket count" lines plus the overflow and totals. */
void
histogramLines(const Histogram &h, const std::string &what,
               std::vector<std::string> &out)
{
    std::ostringstream os;
    for (std::uint64_t b = 1; b < h.maxBucket(); ++b)
        out.push_back(what + " bucket " + std::to_string(b) + " " +
                      std::to_string(h.count(b)));
    out.push_back(what + " overflow " +
                  std::to_string(h.overflowCount()));
    out.push_back(what + " samples " + std::to_string(h.samples()) +
                  " sum " + std::to_string(h.sum()));
}

/**
 * Diff @p lines against tests/golden/@p name .golden, or rewrite the
 * file when VRC_UPDATE_GOLDEN is set in the environment.
 */
void
compareGolden(const std::string &name,
              const std::vector<std::string> &lines)
{
    std::string path = std::string(VRC_GOLDEN_DIR) + "/" + name +
                       ".golden";
    const char *update = std::getenv("VRC_UPDATE_GOLDEN");
    if (update && update[0]) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const std::string &l : lines)
            out << l << "\n";
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (run with VRC_UPDATE_GOLDEN=1 to create it)";
    std::vector<std::string> want;
    std::string line;
    while (std::getline(in, line))
        want.push_back(line);

    ASSERT_EQ(lines.size(), want.size())
        << "golden " << name << " line count drifted";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i], want[i])
            << "golden " << name << " line " << i + 1 << " drifted";
    }
}

/**
 * The summaries of registry artifact @p name's grids, one line per
 * cell; a "trace <name>" line heads each grid when there are several.
 */
std::vector<std::string>
gridLines(const std::string &name)
{
    const Artifact *a = findArtifact(name);
    EXPECT_NE(a, nullptr) << name;
    if (!a)
        return {};
    std::vector<std::vector<SimSummary>> res =
        runArtifactGrids(*a, kGoldenScale);
    std::vector<std::string> lines;
    for (std::size_t g = 0; g < res.size(); ++g) {
        if (res.size() > 1)
            lines.push_back("trace " + a->grids[g].trace);
        for (std::size_t i = 0; i < res[g].size(); ++i)
            lines.push_back(encodeSummaryLine(i, res[g][i]));
    }
    return lines;
}

/**
 * Figures 4-6: the measured V-R / R-R summaries per size pair plus the
 * analytic two-term access-time grid derived from them (the figure
 * proper, 0..10% translation slowdown).
 */
std::vector<std::string>
figureLines(const std::string &name)
{
    std::vector<SimSummary> res =
        runArtifactGrids(*findArtifact(name), kGoldenScale).at(0);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < res.size(); ++i)
        lines.push_back(encodeSummaryLine(i, res[i]));
    for (const SlowdownPoint &pt : slowdownGrid(res)) {
        lines.push_back("grid " + std::to_string(pt.l1) + " " +
                        std::to_string(pt.l2) + " " +
                        std::to_string(pt.pct) + " " + hex(pt.tVr) +
                        " " + hex(pt.tRr));
    }
    return lines;
}

TEST(GoldenStats, Table1WriteBursts)
{
    const GenStats &gs = goldenTrace("pops").stats;
    std::vector<std::string> lines;
    histogramLines(gs.callWrites, "call_writes", lines);
    lines.push_back("total_calls " + std::to_string(gs.totalCalls));
    lines.push_back("call_write_count " +
                    std::to_string(gs.callWriteCount));
    lines.push_back("total_writes " + std::to_string(gs.totalWrites));
    compareGolden("table1", lines);
}

TEST(GoldenStats, Table2InterWriteIntervals)
{
    const TraceBundle &bundle = goldenTrace("pops");
    // The paper's snapshot window, scaled with the trace.
    const std::uint64_t snapshot =
        static_cast<std::uint64_t>(411'237 * kGoldenScale);
    Histogram intervals(10);
    std::uint64_t cpu0_refs = 0, last_write = 0;
    bool saw_write = false;
    for (const TraceRecord &r : bundle.records) {
        if (r.cpu != 0 || !r.isMemRef())
            continue;
        ++cpu0_refs;
        if (cpu0_refs > snapshot)
            break;
        if (r.type != RefType::Write)
            continue;
        if (saw_write)
            intervals.record(cpu0_refs - last_write);
        last_write = cpu0_refs;
        saw_write = true;
    }
    std::vector<std::string> lines;
    histogramLines(intervals, "interwrite", lines);
    compareGolden("table2", lines);
}

TEST(GoldenStats, Table3SwappedWriteback)
{
    const TraceBundle &bundle = goldenTrace("pops");
    const std::uint64_t snapshot =
        static_cast<std::uint64_t>(411'237 * kGoldenScale);
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal,
                                         16 * 1024, 256 * 1024,
                                         bundle.profile.pageSize);
    MpSimulator sim(mc, bundle.profile);
    std::uint64_t cpu0_refs = 0;
    for (const TraceRecord &r : bundle.records) {
        if (r.cpu == 0 && r.isMemRef()) {
            if (++cpu0_refs > snapshot)
                break;
        }
        sim.step(r);
    }
    std::vector<std::string> lines;
    histogramLines(sim.hierarchy(0).writeBackIntervals(), "wb_interval",
                   lines);
    const auto &stats = sim.hierarchy(0).stats();
    lines.push_back("writebacks " +
                    std::to_string(stats.value("writebacks")));
    lines.push_back("swapped_writebacks " +
                    std::to_string(stats.value("swapped_writebacks")));
    lines.push_back("wb_stalls " +
                    std::to_string(stats.value("wb_stalls")));
    compareGolden("table3", lines);
}

TEST(GoldenStats, Table5TraceCharacteristics)
{
    std::vector<std::string> lines;
    for (const char *name : {"thor", "pops", "abaqus"}) {
        auto c = characterize(goldenTrace(name).records);
        std::ostringstream os;
        os << name << " cpus " << c.numCpus << " refs " << c.totalRefs
           << " instr " << c.instrCount << " reads " << c.dataReads
           << " writes " << c.dataWrites << " switches "
           << c.contextSwitches << " processes " << c.processCount;
        lines.push_back(os.str());
    }
    compareGolden("table5", lines);
}

TEST(GoldenStats, Table6HitRatios)
{
    compareGolden("table6", gridLines("table6"));
}

TEST(GoldenStats, Table7SmallCaches)
{
    compareGolden("table7", gridLines("table7"));
}

TEST(GoldenStats, Table8SplitThor)
{
    compareGolden("table8", gridLines("table8"));
}

TEST(GoldenStats, Table9SplitPops)
{
    compareGolden("table9", gridLines("table9"));
}

TEST(GoldenStats, Table10SplitAbaqus)
{
    compareGolden("table10", gridLines("table10"));
}

TEST(GoldenStats, Table11CoherencePops)
{
    compareGolden("table11", gridLines("table11"));
}

TEST(GoldenStats, Table12CoherenceThor)
{
    compareGolden("table12", gridLines("table12"));
}

TEST(GoldenStats, Table13CoherenceAbaqus)
{
    compareGolden("table13", gridLines("table13"));
}

TEST(GoldenStats, Figure4Thor)
{
    compareGolden("fig4", figureLines("fig4"));
}

TEST(GoldenStats, Figure5Pops)
{
    compareGolden("fig5", figureLines("fig5"));
}

TEST(GoldenStats, Figure6Abaqus)
{
    compareGolden("fig6", figureLines("fig6"));
}

/**
 * Synonym-directory drift net: the paper's pointer organization, the
 * bounded reverse-lookup table and the R-R baseline on the same trace
 * grid. A separate golden file so regenerating it never perturbs the
 * pre-existing corpus.
 */
TEST(GoldenStats, SynonymOrgs)
{
    compareGolden("synonym_orgs", gridLines("synonym-orgs"));
}

/**
 * The text a reader compares with the paper: every registry artifact
 * rendered at golden scale, byte for byte, with a zero exit code.
 */
TEST(GoldenStats, RenderedArtifacts)
{
    for (const Artifact &a : artifacts()) {
        SCOPED_TRACE(a.name);
        std::ostringstream out;
        EXPECT_EQ(runArtifact(a, kGoldenScale, 0, out), 0);
        std::vector<std::string> lines;
        std::istringstream in(out.str());
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        compareGolden("rendered/" + a.name, lines);
    }
}

/**
 * Cycle-engine drift net: the three organizations at the paper's
 * middle size pair under the cycle-approximate timing engine, so bus
 * queueing / utilization / per-reference latency are pinned in
 * hexfloat alongside the analytic corpus.
 */
TEST(GoldenStats, CycleEngineSummaries)
{
    const TraceBundle &bundle = goldenTrace("pops");
    std::vector<SimJob> jobs;
    for (auto kind :
         {HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
          HierarchyKind::RealRealNoIncl}) {
        jobs.push_back({kind, 8 * 1024, 128 * 1024, false, 0,
                        TimingMode::Cycle});
    }
    compareGolden("cycle_pops", summaryLines(bundle, jobs));
}

/**
 * Arm the strike spec @p spec and run the golden pops trace through
 * every organization under each array protection. Each cell is one
 * line (refs run and the halt reason) plus its soft-error counters and
 * bus transaction count.
 */
std::vector<std::string>
softErrorAvfLines(const char *spec)
{
    const TraceBundle &bundle = goldenTrace("pops");
    const SoftErrorConfig strikes = parseSoftErrors(spec).take();
    std::vector<std::string> lines;
    for (HierarchyKind kind : kAllHierarchyKinds) {
        for (ArrayProtection prot :
             {ArrayProtection::None, ArrayProtection::Parity,
              ArrayProtection::Secded}) {
            MachineConfig mc =
                makeMachineConfig(kind, 16 * 1024, 256 * 1024,
                                  bundle.profile.pageSize);
            mc.hierarchy.l1.protection = prot;
            mc.hierarchy.l2.protection = prot;
            mc.hierarchy.softErrors = strikes;
            MpSimulator sim(mc, bundle.profile);

            std::uint64_t refs = 0;
            std::string halt = "none";
            try {
                for (const TraceRecord &rec : bundle.records) {
                    sim.step(rec);
                    ++refs;
                }
            } catch (const FaultUnrecoverable &e) {
                halt = e.what();
            }
            lines.push_back(std::string("cell ") +
                            hierarchyKindArg(kind) + " " +
                            arrayProtectionName(prot) + " refs " +
                            std::to_string(refs) + " halt " + halt);

            std::map<std::string, std::uint64_t> ctrs;
            auto collect = [&](const std::string &group,
                               const auto &stats) {
                for (const auto &[key, n] : stats.all()) {
                    if (key.starts_with("soft_") ||
                        key == "machine_checks" ||
                        key == "presence_scrubs") {
                        ctrs[group + "." + std::string(key)] += n;
                    }
                }
            };
            for (CpuId c = 0; c < sim.cpuCount(); ++c)
                collect("hierarchy", sim.hierarchy(c).stats());
            collect("bus", sim.bus().stats());
            for (const auto &[key, v] : ctrs)
                lines.push_back("  " + key + " " + std::to_string(v));
            lines.push_back("  bus_transactions " +
                            std::to_string(sim.bus().transactions()));
        }
    }
    return lines;
}

/**
 * Soft-error drift net: every organization under each array-protection
 * policy, armed with the soft-error-avf artifact's strike spec. Pins how
 * each strike resolved (the soft_* counters of the hierarchies and the bus),
 * the machine checks and presence scrubs, the bus transactions the
 * recoveries added, and where and why a run halted.
 */
TEST(GoldenStats, SoftErrorAvf)
{
    compareGolden("soft_error_avf",
                  softErrorAvfLines(
                      "seed=97,tag=5e-4,state=1e-4,ptr=1e-4,bus=2e-5"));
}

/**
 * A spec that reaches the halts the one above never does at golden
 * scale: every parity cell machine-checks on a level-2 line, and the
 * none and secded cells lose a bus transaction beyond the one-retry
 * budget after retrying others. Level-1 tag strikes are off so no
 * level-1 machine check ends a cell first; pointer strikes stay on.
 */
TEST(GoldenStats, SoftErrorAvfLevel2AndBus)
{
    compareGolden("soft_error_avf_l2_bus",
                  softErrorAvfLines("seed=19,tag=0,state=2e-3,ptr=1e-4,"
                                    "bus=6e-3,retry=1"));
}

} // namespace
} // namespace vrc
