/**
 * @file
 * Shared implementation of Tables 8, 9 and 10: level-1 hit ratios of
 * split I/D versus unified V-caches, per reference type.
 */

#ifndef VRC_BENCH_SPLIT_TABLE_HH
#define VRC_BENCH_SPLIT_TABLE_HH

#include "bench_util.hh"

namespace vrc
{

inline int
runSplitTable(const std::string &table, const std::string &trace,
              int argc, char **argv)
{
    double scale = benchScaleFromArgs(argc, argv);
    banner(table + ": hit ratios of level-1 caches, split I/D vs "
                   "unified (" +
               trace + ", V-R)",
           scale);

    const TraceBundle &bundle = profileTrace(trace, scale);

    std::vector<SimJob> jobs;
    for (auto [l1, l2] : paperSizePairs())
        jobs.push_back({HierarchyKind::VirtualReal, l1, l2, true});
    for (auto [l1, l2] : paperSizePairs())
        jobs.push_back({HierarchyKind::VirtualReal, l1, l2, false});

    std::vector<SimSummary> res = runSimulations(bundle, jobs);
    std::vector<SimSummary> split(res.begin(), res.begin() + 3);
    std::vector<SimSummary> unified(res.begin() + 3, res.end());

    TextTable t;
    t.row().cell(trace);
    for (auto [l1, l2] : paperSizePairs())
        t.cell(sizeLabel(l1, l2));
    t.separator();

    const std::vector<std::pair<const char *, double SimSummary::*>>
        rows = {{"data read", &SimSummary::h1Read},
                {"data write", &SimSummary::h1Write},
                {"instruction", &SimSummary::h1Instr},
                {"overall", &SimSummary::h1}};
    for (auto [label, member] : rows) {
        t.row().cell(std::string(label) + " split");
        for (const auto &s : split)
            t.cell(s.*member, 3);
        t.row().cell(std::string("  ") + label + " unified");
        for (const auto &s : unified)
            t.cell(s.*member, 3);
    }
    std::cout << t;
    std::cout << "\nexpected shape (paper): split ratios within a "
                 "couple of points of unified, sometimes better.\n";
    return 0;
}

} // namespace vrc

#endif // VRC_BENCH_SPLIT_TABLE_HH
