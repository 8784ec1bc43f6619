/**
 * @file
 * Reproduction validation campaign.
 *
 * Re-checks every qualitative claim EXPERIMENTS.md makes (the paper's
 * shapes) at a configurable trace scale and prints PASS/FAIL per
 * claim, exiting nonzero if any fails. This turns the reproduction
 * record into an executable regression suite: run it after any change
 * to the workload model or the hierarchies. The cells come from the
 * artifact registry's grids (sim/artifacts.hh).
 *
 * Usage: vrc-validate [--scale=<f>]   (default 0.05, 1e-6 to 1e6)
 */

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/log.hh"
#include "base/table.hh"
#include "core/timing.hh"
#include "sim/artifacts.hh"
#include "trace/trace_stats.hh"

using namespace vrc;

namespace
{

struct Check
{
    std::string claim;
    bool pass;
    std::string detail;
};

std::vector<Check> g_checks;

void
check(const std::string &claim, bool pass, const std::string &detail)
{
    g_checks.push_back({claim, pass, detail});
    std::cerr << (pass ? "  [pass] " : "  [FAIL] ") << claim << " ("
              << detail << ")\n";
}

std::string
fmt(double v, int prec = 3)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

/**
 * The cell of registry artifact @p artifact on @p trace with @p kind at
 * level-1 size @p l1. Each artifact's grids are simulated once.
 */
const SimSummary &
cell(const std::string &artifact, double scale, const std::string &trace,
     HierarchyKind kind, std::uint32_t l1, bool split = false)
{
    static std::map<std::string, std::vector<std::vector<SimSummary>>>
        cache;
    const Artifact &a = *findArtifact(artifact);
    auto it = cache.find(artifact);
    if (it == cache.end())
        it = cache.emplace(artifact, runArtifactGrids(a, scale)).first;
    for (std::size_t g = 0; g < a.grids.size(); ++g) {
        for (const SimSummary &s : it->second[g]) {
            if (a.grids[g].trace == trace && s.kind == kind &&
                s.l1Size == l1 && s.split == split)
                return s;
        }
    }
    fatal("no ", artifact, " cell on ", trace, " at ", l1);
}

std::uint64_t
sumMsgs(const SimSummary &s)
{
    std::uint64_t n = 0;
    for (auto v : s.l1MsgsPerCpu)
        n += v;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 0.05;
    cli::parse({"vrc-validate", nullptr}, argc, argv,
               {{"--scale", scale, 1e-6, 1e6}});
    std::cerr << "validating the reproduction at scale " << scale
              << "\n";

    // --- Table 5: reference mix --------------------------------------
    for (const char *name : {"thor", "pops", "abaqus"}) {
        WorkloadProfile p = profileByName(name);
        auto c = characterize(artifactTrace(name, scale).records);
        double total = static_cast<double>(c.totalRefs);
        bool ok =
            std::abs(c.instrCount / total - p.instrFrac) < 0.03 &&
            std::abs(c.dataReads / total - p.readFrac) < 0.03 &&
            std::abs(c.dataWrites / total - p.writeFrac) < 0.03;
        check(std::string("Table 5 mix (") + name + ")", ok,
              "instr " + fmt(c.instrCount / total) + " vs " +
                  fmt(p.instrFrac));
    }

    // --- Table 6 shapes ----------------------------------------------
    const HierarchyKind vr_kind = HierarchyKind::VirtualReal;
    const HierarchyKind rr_kind = HierarchyKind::RealRealIncl;
    {
        const SimSummary &vr = cell("table6", scale, "pops", vr_kind, 8192);
        const SimSummary &rr = cell("table6", scale, "pops", rr_kind, 8192);
        check("Table 6: h1VR == h1RR for rare-switch traces",
              std::abs(vr.h1 - rr.h1) < 0.01,
              fmt(vr.h1) + " vs " + fmt(rr.h1));
    }
    {
        const SimSummary &vr =
            cell("table6", scale, "abaqus", vr_kind, 16384);
        const SimSummary &rr =
            cell("table6", scale, "abaqus", rr_kind, 16384);
        check("Table 6: flushing costs the V-cache under frequent "
              "switches",
              rr.h1 > vr.h1, fmt(rr.h1) + " > " + fmt(vr.h1));
        TimingParams tp;
        double x = crossoverSlowdownPct(vr.h1, vr.h2, rr.h1, rr.h2, tp);
        check("Figure 6: crossover in a small positive band",
              x > 0.0 && x < 20.0, fmt(x, 2) + "%");
    }

    // --- Table 6: h1 grows with size ---------------------------------
    {
        double prev = 0.0;
        bool mono = true;
        for (auto [l1, l2] : paperSizePairs()) {
            double h1 = cell("table6", scale, "thor", vr_kind, l1).h1;
            mono = mono && h1 > prev;
            prev = h1;
        }
        check("Table 6: h1 grows with cache size", mono,
              "final h1 " + fmt(prev));
    }

    // --- Tables 11-13: shielding -------------------------------------
    {
        const SimSummary &vr = cell("table11", scale, "pops", vr_kind, 4096);
        const SimSummary &ni = cell("table11", scale, "pops",
                                    HierarchyKind::RealRealNoIncl, 4096);
        check("Tables 11-13: no-inclusion L1 disturbed several-fold "
              "more",
              sumMsgs(ni) > 2 * sumMsgs(vr),
              std::to_string(sumMsgs(ni)) + " vs " +
                  std::to_string(sumMsgs(vr)));
    }

    // --- Tables 8-10: split vs unified -------------------------------
    {
        const SimSummary &uni = cell("table8", scale, "thor", vr_kind, 8192);
        const SimSummary &spl =
            cell("table8", scale, "thor", vr_kind, 8192, true);
        check("Tables 8-10: split I/D close to unified",
              std::abs(spl.h1 - uni.h1) < 0.05,
              fmt(spl.h1) + " vs " + fmt(uni.h1));
    }

    // The last two claims read what no grid holds: a 2-way geometry
    // and the total miss counter.
    const TraceBundle &pops = artifactTrace("pops", scale);

    // --- Section 2: inclusion invalidations rare ----------------------
    {
        MachineConfig mc =
            makeMachineConfig(vr_kind, 16 * 1024, 256 * 1024, 4096);
        mc.hierarchy.l1.assoc = 2;
        mc.hierarchy.l2.assoc = 2;
        MpSimulator sim(mc, pops.profile);
        sim.run(pops.records);
        check("Section 2: inclusion invalidations rare at 2-way",
              sim.totalCounter(HierarchyStat::InclusionInvalidations) <
                  sim.refsProcessed() / 2000,
              std::to_string(sim.totalCounter(
                  HierarchyStat::InclusionInvalidations)) +
                  " over " + std::to_string(sim.refsProcessed()) +
                  " refs");
    }

    // --- Inclusion equalizes L2 misses -------------------------------
    {
        auto misses = [&](HierarchyKind kind) {
            MachineConfig mc = makeMachineConfig(kind, 8 * 1024,
                                                 128 * 1024, 4096);
            MpSimulator sim(mc, pops.profile);
            sim.run(pops.records);
            return sim.totalCounter(HierarchyStat::Misses);
        };
        double ratio =
            static_cast<double>(misses(vr_kind)) /
            static_cast<double>(misses(rr_kind));
        check("Section 4: inclusion equalizes level-2 misses",
              std::abs(ratio - 1.0) < 0.02, "ratio " + fmt(ratio));
    }

    // --- Summary -------------------------------------------------------
    TextTable t;
    t.row().cell("claim").cell("verdict");
    t.separator();
    int failures = 0;
    for (const Check &c : g_checks) {
        t.row().cell(c.claim).cell(c.pass ? "PASS" : "FAIL");
        failures += c.pass ? 0 : 1;
    }
    std::cout << t << "\n"
              << (g_checks.size() - failures) << "/" << g_checks.size()
              << " reproduction claims hold\n";
    return failures == 0 ? 0 : 1;
}
