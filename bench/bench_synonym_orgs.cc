/**
 * @file
 * Synonym-directory organization comparison: the paper's architected
 * r-pointer/v-pointer scheme (VR), the bounded reverse-lookup table
 * (VR(rlt)) and the R-R inclusion baseline on the same trace grid.
 *
 * Three cost axes per cell:
 *  - synonym handling: synonym hits and the moves among them (the RLT
 *    resolves the same synonyms, plus forced conflict evictions that
 *    show up as extra misses and percolation messages);
 *  - coherence percolation: total messages reaching the level-1
 *    caches (inclusion invalidations broken out);
 *  - architected directory overhead: link bits beyond the plain tag
 *    and state arrays, a static property of the geometry.
 */

#include "bench_util.hh"

#include "coherence/bus.hh"
#include "core/factory.hh"
#include "core/vr_hierarchy.hh"
#include "vm/addr_space.hh"

namespace vrc
{
namespace
{

const std::vector<HierarchyKind> kOrgs = {
    HierarchyKind::VirtualReal, HierarchyKind::VirtualRealRlt,
    HierarchyKind::RealRealIncl};

/**
 * Architected link-storage bits for one organization and geometry --
 * a property of the arrays, not of any workload, so a throwaway
 * hierarchy (no trace replayed) answers it.
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

std::uint64_t
totalL1Msgs(const SimSummary &s)
{
    std::uint64_t total = 0;
    for (std::uint64_t m : s.l1MsgsPerCpu)
        total += m;
    return total;
}

} // namespace
} // namespace vrc

int
main(int argc, char **argv)
{
    using namespace vrc;

    double scale = benchScaleFromArgs(argc, argv);
    banner("Synonym-directory organizations: handling cost, "
           "percolation traffic and directory overhead",
           scale);

    for (const char *trace : {"thor", "pops", "abaqus"}) {
        const TraceBundle &bundle = profileTrace(trace, scale);

        std::vector<SimJob> jobs;
        for (auto [l1, l2] : paperSizePairs())
            for (auto kind : kOrgs)
                jobs.push_back({kind, l1, l2});

        std::vector<SimSummary> all = runSimulations(bundle, jobs);

        std::cout << "--- " << trace << " ---\n";
        TextTable t;
        t.row()
            .cell("sizes  org")
            .cell("h1")
            .cell("h2")
            .cell("syn hits")
            .cell("syn moves")
            .cell("l1 msgs")
            .cell("incl inv")
            .cell("dir bits");
        t.separator();
        std::size_t i = 0;
        for (auto [l1, l2] : paperSizePairs()) {
            for (auto kind : kOrgs) {
                const SimSummary &s = all[i++];
                std::ostringstream h1, h2;
                h1.precision(4);
                h2.precision(4);
                h1 << std::fixed << s.h1;
                h2 << std::fixed << s.h2;
                t.row()
                    .cell(sizeLabel(l1, l2) + " " +
                          hierarchyKindName(kind))
                    .cell(h1.str())
                    .cell(h2.str())
                    .cell(s.synonymHits)
                    .cell(s.synonymMoves)
                    .cell(totalL1Msgs(s))
                    .cell(s.inclusionInvalidations)
                    .cell(directoryBits(kind, l1, l2,
                                        bundle.profile.pageSize));
            }
        }
        std::cout << t << "\n";
    }

    std::cout
        << "expected shape: VR and VR(rlt) resolve the same synonyms "
           "(identical hit ratios while the table has headroom); the "
           "RLT trades pointer bits in every tag for a small bounded "
           "table, paying extra level-1 messages when conflicts force "
           "back-invalidations; R-R sidesteps synonyms entirely via "
           "first-level translation.\n";
    return 0;
}
