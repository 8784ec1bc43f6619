/**
 * @file
 * Reproduces Table 7: hit ratios with small first-level caches
 * (.5K/64K, 1K/128K, 2K/256K). The paper's point: at these sizes V-R
 * and R-R level-1 hit ratios are nearly identical even for the
 * switch-heavy trace, so any translation penalty makes V-R win.
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vrc;
    double scale = benchScaleFromArgs(argc, argv);
    banner("Table 7: hit ratios for small first-level caches", scale);

    for (const char *name : {"thor", "pops", "abaqus"}) {
        const TraceBundle &bundle = profileTrace(name, scale);
        TextTable t;
        t.row().cell("trace: " + std::string(name));
        for (auto [l1, l2] : smallSizePairs())
            t.cell(sizeLabel(l1, l2));
        t.separator();

        std::vector<SimJob> jobs;
        for (auto [l1, l2] : smallSizePairs())
            jobs.push_back({HierarchyKind::VirtualReal, l1, l2});
        for (auto [l1, l2] : smallSizePairs())
            jobs.push_back({HierarchyKind::RealRealIncl, l1, l2});

        std::vector<SimSummary> res = runSimulations(bundle, jobs);
        std::vector<SimSummary> vr(res.begin(), res.begin() + 3);
        std::vector<SimSummary> rr(res.begin() + 3, res.end());
        t.row().cell("h1VR");
        for (const auto &s : vr)
            t.cell(s.h1, 3);
        t.row().cell("h1RR");
        for (const auto &s : rr)
            t.cell(s.h1, 3);
        t.row().cell("h2VR");
        for (const auto &s : vr)
            t.cell(s.h2, 3);
        t.row().cell("h2RR");
        for (const auto &s : rr)
            t.cell(s.h2, 3);
        std::cout << t << "\n";
    }
    std::cout << "expected shape (paper): h1VR ~= h1RR at all small "
                 "sizes, including abaqus.\n";
    return 0;
}
