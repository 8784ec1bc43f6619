/**
 * @file
 * Shared implementation of Tables 11, 12 and 13: coherence messages
 * percolating to each CPU's level-1 cache under the three
 * organizations (VR, RR with inclusion, RR without inclusion).
 */

#ifndef VRC_BENCH_COHERENCE_TABLE_HH
#define VRC_BENCH_COHERENCE_TABLE_HH

#include "bench_util.hh"

namespace vrc
{

inline int
runCoherenceTable(const std::string &table, const std::string &trace,
                  int argc, char **argv)
{
    double scale = benchScaleFromArgs(argc, argv);
    banner(table + ": number of coherence messages to the first-level "
                   "cache (" +
               trace + ")",
           scale);

    const TraceBundle &bundle = profileTrace(trace, scale);
    const std::vector<HierarchyKind> kinds = {
        HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
        HierarchyKind::RealRealNoIncl};

    // All nine cells (three size pairs x three organizations) are
    // independent: run them as one batch so the pool stays full.
    std::vector<SimJob> jobs;
    for (auto [l1, l2] : paperSizePairs())
        for (auto kind : kinds)
            jobs.push_back({kind, l1, l2});

    std::vector<SimSummary> all = runSimulations(bundle, jobs);
    std::size_t batch = 0;
    for (auto [l1, l2] : paperSizePairs()) {
        std::vector<SimSummary> res(all.begin() + batch,
                                    all.begin() + batch + kinds.size());
        batch += kinds.size();

        TextTable t;
        t.row().cell(sizeLabel(l1, l2) + "  cpu");
        for (auto kind : kinds)
            t.cell(hierarchyKindName(kind));
        t.separator();
        std::uint32_t cpus =
            static_cast<std::uint32_t>(res[0].l1MsgsPerCpu.size());
        for (std::uint32_t c = 0; c < cpus; ++c) {
            t.row().cell(c);
            for (const auto &s : res)
                t.cell(s.l1MsgsPerCpu[c]);
        }
        std::cout << t << "\n";
    }
    std::cout << "expected shape (paper): RR(no incl) several times "
                 "more messages than VR/RR(incl); VR ~= RR(incl) for "
                 "low-switch traces, RR(incl) somewhat lower for "
                 "abaqus (inclusion invalidations from switching).\n";
    return 0;
}

} // namespace vrc

#endif // VRC_BENCH_COHERENCE_TABLE_HH
