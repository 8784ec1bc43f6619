/**
 * @file
 * Reproduces the Section 2 in-text claim: with the relaxed replacement
 * rule, inclusion invalidations are rare. The paper reports only 21
 * for pops with a 16K 2-way V-cache and a 256K R-cache (same set size
 * and block size). We sweep all three traces and several geometries.
 */

#include "bench_util.hh"
#include "sim/parallel_runner.hh"

int
main(int argc, char **argv)
{
    using namespace vrc;
    double scale = benchScaleFromArgs(argc, argv);
    banner("Section 2: inclusion invalidations under the relaxed "
           "replacement rule",
           scale);

    TextTable t;
    t.row()
        .cell("trace")
        .cell("V-cache")
        .cell("R-cache")
        .cell("assoc")
        .cell("inclusion invalidations")
        .cell("forced replacements")
        .cell("refs");
    t.separator();

    struct Geometry
    {
        std::uint32_t l1, l2, assoc;
    };
    const std::vector<Geometry> geoms = {
        {16 * 1024, 256 * 1024, 2}, // the paper's quoted configuration
        {16 * 1024, 256 * 1024, 1},
        {4 * 1024, 64 * 1024, 1},
        {16 * 1024, 64 * 1024, 1}, // small ratio: more pressure
    };

    // Custom geometries fall outside SimJob: drive the pool directly.
    // Traces are generated serially first (profileTrace caches in a
    // map that must not be mutated concurrently).
    struct Cell
    {
        const char *name;
        const TraceBundle *bundle;
        Geometry geom;
    };
    std::vector<Cell> cells;
    for (const char *name : {"pops", "thor", "abaqus"}) {
        const TraceBundle &bundle = profileTrace(name, scale);
        for (const auto &g : geoms)
            cells.push_back({name, &bundle, g});
    }

    struct CellResult
    {
        std::uint64_t inclusion = 0, forced = 0, refs = 0;
    };
    ParallelRunner pool;
    std::vector<CellResult> results =
        pool.map(cells.size(), [&](std::size_t i) {
            const Cell &c = cells[i];
            MachineConfig mc = makeMachineConfig(
                HierarchyKind::VirtualReal, c.geom.l1, c.geom.l2,
                c.bundle->profile.pageSize);
            mc.hierarchy.l1.assoc = c.geom.assoc;
            mc.hierarchy.l2.assoc = c.geom.assoc;
            MpSimulator sim(mc, c.bundle->profile);
            sim.run(c.bundle->records);
            return CellResult{
                sim.totalCounter("inclusion_invalidations"),
                sim.totalCounter("forced_r_replacements"),
                sim.refsProcessed()};
        });

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const CellResult &r = results[i];
        t.row()
            .cell(c.name)
            .cell(sizeLabel(c.geom.l1, c.geom.l2))
            .cell(std::string())
            .cell(std::uint64_t{c.geom.assoc})
            .cell(r.inclusion)
            .cell(r.forced)
            .cell(r.refs);
    }
    std::cout << t;
    std::cout << "\npaper: 21 inclusion invalidations for pops at "
                 "16K(2-way)/256K over ~3.3M references.\n";
    return 0;
}
