/**
 * @file
 * Reproduction validation campaign.
 *
 * Re-checks every qualitative claim EXPERIMENTS.md makes (the paper's
 * shapes) at a configurable trace scale and prints PASS/FAIL per
 * claim, exiting nonzero if any fails. This turns the reproduction
 * record into an executable regression suite: run it after any change
 * to the workload model or the hierarchies.
 *
 * Usage: vrc-validate [--scale=<f>]   (default 0.05)
 */

#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/table.hh"
#include "core/timing.hh"
#include "sim/experiment.hh"
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

const TraceBundle &
bundle(const std::string &name, double scale)
{
    static std::map<std::string, TraceBundle> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache
                 .emplace(name, generateTrace(
                                    scaled(profileByName(name), scale)))
                 .first;
    }
    return it->second;
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
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scale=", 8) == 0)
            scale = std::atof(argv[i] + 8);
    }
    std::cerr << "validating the reproduction at scale " << scale
              << "\n";

    // --- Table 5: reference mix --------------------------------------
    for (const char *name : {"thor", "pops", "abaqus"}) {
        WorkloadProfile p = profileByName(name);
        auto c = characterize(bundle(name, scale).records);
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
    {
        const TraceBundle &b = bundle("pops", scale);
        SimSummary vr = runSimulationJob(
            b, SimJob{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024});
        SimSummary rr = runSimulationJob(
            b, SimJob{HierarchyKind::RealRealIncl, 8 * 1024, 128 * 1024});
        check("Table 6: h1VR == h1RR for rare-switch traces",
              std::abs(vr.h1 - rr.h1) < 0.01,
              fmt(vr.h1) + " vs " + fmt(rr.h1));
    }
    {
        const TraceBundle &b = bundle("abaqus", scale * 5);
        SimSummary vr = runSimulationJob(
            b, SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024});
        SimSummary rr = runSimulationJob(
            b, SimJob{HierarchyKind::RealRealIncl, 16 * 1024, 256 * 1024});
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
        const TraceBundle &b = bundle("thor", scale);
        double prev = 0.0;
        bool mono = true;
        for (auto [l1, l2] : paperSizePairs()) {
            SimSummary s = runSimulationJob(
                b, SimJob{HierarchyKind::VirtualReal, l1, l2});
            mono = mono && s.h1 > prev;
            prev = s.h1;
        }
        check("Table 6: h1 grows with cache size", mono,
              "final h1 " + fmt(prev));
    }

    // --- Tables 11-13: shielding -------------------------------------
    {
        const TraceBundle &b = bundle("pops", scale);
        SimSummary vr = runSimulationJob(
            b, SimJob{HierarchyKind::VirtualReal, 4 * 1024, 64 * 1024});
        SimSummary ni = runSimulationJob(
            b, SimJob{HierarchyKind::RealRealNoIncl, 4 * 1024, 64 * 1024});
        check("Tables 11-13: no-inclusion L1 disturbed several-fold "
              "more",
              sumMsgs(ni) > 2 * sumMsgs(vr),
              std::to_string(sumMsgs(ni)) + " vs " +
                  std::to_string(sumMsgs(vr)));
    }

    // --- Tables 8-10: split vs unified -------------------------------
    {
        const TraceBundle &b = bundle("thor", scale);
        SimJob job{HierarchyKind::VirtualReal, 8 * 1024, 128 * 1024};
        SimSummary uni = runSimulationJob(b, job);
        job.split = true;
        SimSummary spl = runSimulationJob(b, job);
        check("Tables 8-10: split I/D close to unified",
              std::abs(spl.h1 - uni.h1) < 0.05,
              fmt(spl.h1) + " vs " + fmt(uni.h1));
    }

    // --- Section 2: inclusion invalidations rare ----------------------
    {
        MachineConfig mc = makeMachineConfig(
            HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024, 4096);
        mc.hierarchy.l1.assoc = 2;
        mc.hierarchy.l2.assoc = 2;
        const TraceBundle &b = bundle("pops", scale);
        MpSimulator sim(mc, b.profile);
        sim.run(b.records);
        check("Section 2: inclusion invalidations rare at 2-way",
              sim.totalCounter("inclusion_invalidations") <
                  sim.refsProcessed() / 2000,
              std::to_string(
                  sim.totalCounter("inclusion_invalidations")) +
                  " over " + std::to_string(sim.refsProcessed()) +
                  " refs");
    }

    // --- Inclusion equalizes L2 misses -------------------------------
    {
        const TraceBundle &b = bundle("pops", scale);
        auto misses = [&](HierarchyKind kind) {
            MachineConfig mc = makeMachineConfig(kind, 8 * 1024,
                                                 128 * 1024, 4096);
            MpSimulator sim(mc, b.profile);
            sim.run(b.records);
            return sim.totalCounter("misses");
        };
        double ratio =
            static_cast<double>(misses(HierarchyKind::VirtualReal)) /
            static_cast<double>(misses(HierarchyKind::RealRealIncl));
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
