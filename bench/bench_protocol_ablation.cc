/**
 * @file
 * Protocol ablation: write-invalidate versus write-update at the second
 * level, for all three traces. The paper assumes invalidation "for
 * simplicity" and notes the scheme works for other protocols; this
 * bench quantifies the trade-off in the V-R hierarchy:
 *
 *  - update keeps remote copies alive (higher h1, fewer misses) and is
 *    still shielded by the R-cache (updates percolate to level 1 only
 *    when a child is resident);
 *  - update pays a bus broadcast and a memory write per shared write.
 */

#include "bench_util.hh"
#include "sim/parallel_runner.hh"

int
main(int argc, char **argv)
{
    using namespace vrc;
    double scale = benchScaleFromArgs(argc, argv);
    banner("Protocol ablation: write-invalidate vs write-update "
           "(V-R, 16K/256K)",
           scale);

    const CoherencePolicy policies[] = {CoherencePolicy::WriteInvalidate,
                                        CoherencePolicy::WriteUpdate};

    for (const char *name : {"thor", "pops", "abaqus"}) {
        const TraceBundle &bundle = profileTrace(name, scale);
        TextTable t;
        t.row()
            .cell(std::string("trace ") + name)
            .cell("h1")
            .cell("misses")
            .cell("bus txs")
            .cell("updates")
            .cell("L1 msgs")
            .cell("memory writes");
        t.separator();

        // Protocol is not a SimJob knob: drive the pool directly, one
        // worker per policy, collecting the printed counters.
        struct Row
        {
            double h1 = 0.0;
            std::uint64_t misses = 0, busTxs = 0, updates = 0;
            std::uint64_t l1Msgs = 0, memWrites = 0;
        };
        ParallelRunner pool;
        std::vector<Row> rows = pool.map(2, [&](std::size_t i) {
            MachineConfig mc = makeMachineConfig(
                HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024,
                bundle.profile.pageSize);
            mc.hierarchy.protocol = policies[i];
            MpSimulator sim(mc, bundle.profile);
            sim.run(bundle.records);
            return Row{sim.h1(),
                       sim.totalCounter("misses"),
                       sim.bus().transactions(),
                       sim.bus().stats().value("update"),
                       sim.totalCounter("l1_coherence_msgs"),
                       sim.totalCounter("memory_writes")};
        });
        for (std::size_t i = 0; i < rows.size(); ++i) {
            t.row()
                .cell(coherencePolicyName(policies[i]))
                .cell(rows[i].h1, 4)
                .cell(rows[i].misses)
                .cell(rows[i].busTxs)
                .cell(rows[i].updates)
                .cell(rows[i].l1Msgs)
                .cell(rows[i].memWrites);
        }
        std::cout << t << "\n";
    }
    std::cout << "expected shape: update raises h1 (no invalidation "
                 "misses) at the cost of one bus broadcast and one "
                 "memory write per shared write.\n";
    return 0;
}
