/**
 * @file
 * Coherence shielding demo: a 4-CPU machine runs a sharing-heavy
 * workload under all three organizations and reports how many
 * coherence messages actually reach each level-1 cache -- the paper's
 * Tables 11-13 effect, reproduced on a small synthetic run.
 */

#include <iostream>

#include "base/table.hh"
#include "sim/experiment.hh"

using namespace vrc;

int
main()
{
    // A sharing-heavy profile: more shared pages, more shared writes.
    WorkloadProfile profile = scaled(popsProfile(), 0.1);
    profile.sharedFrac = 0.12;
    profile.sharedWriteFrac = 0.4;

    TraceBundle bundle = generateTrace(profile);
    std::cout << "workload: " << bundle.records.size()
              << " records, 4 CPUs, sharing-heavy\n\n";

    TextTable t;
    t.row()
        .cell("organization")
        .cell("cpu0")
        .cell("cpu1")
        .cell("cpu2")
        .cell("cpu3")
        .cell("total");
    t.separator();

    for (auto kind :
         {HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
          HierarchyKind::RealRealNoIncl}) {
        SimSummary s =
            runSimulationJob(bundle, SimJob{kind, 8 * 1024, 128 * 1024});
        t.row().cell(hierarchyKindName(kind));
        std::uint64_t total = 0;
        for (auto v : s.l1MsgsPerCpu) {
            t.cell(v);
            total += v;
        }
        t.cell(total);
    }
    std::cout << "coherence messages reaching each level-1 cache:\n"
              << t;

    std::cout
        << "\nWith inclusion (V-R or R-R incl), the level-2 cache "
           "filters bus traffic:\nonly transactions that actually "
           "involve a level-1 copy percolate up.\nWithout inclusion, "
           "every foreign bus transaction must probe level 1.\n";
    return 0;
}
