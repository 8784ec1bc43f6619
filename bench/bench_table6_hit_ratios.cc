/**
 * @file
 * Reproduces Table 6: level-1 and local level-2 hit ratios of the V-R
 * and R-R organizations across the paper's three size pairs and three
 * traces (direct-mapped at both levels).
 */

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace vrc;
    double scale = benchScaleFromArgs(argc, argv);
    banner("Table 6: hit ratios (V-R vs R-R, direct-mapped)", scale);

    for (const char *name : {"thor", "pops", "abaqus"}) {
        const TraceBundle &bundle = profileTrace(name, scale);
        TextTable t;
        t.row().cell("trace: " + std::string(name));
        for (auto [l1, l2] : paperSizePairs())
            t.cell(sizeLabel(l1, l2));
        t.separator();

        // One job per table cell; cells are independent simulations.
        std::vector<SimJob> jobs;
        for (auto [l1, l2] : paperSizePairs())
            jobs.push_back({HierarchyKind::VirtualReal, l1, l2});
        for (auto [l1, l2] : paperSizePairs())
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

    std::cout << "expected shape (paper): h1VR == h1RR for thor/pops "
                 "(rare switches); h1VR a few points below h1RR for "
                 "abaqus, gap growing with V-cache size.\n";
    return 0;
}
