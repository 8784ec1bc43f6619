/**
 * @file
 * Context-switch demo: shows the swapped-valid bit spreading write-backs
 * over time instead of clustering them at switch points.
 *
 * Two policies are contrasted on the same access pattern:
 *  - the paper's incremental write-back (what the library implements),
 *    where a switch marks blocks swapped-valid and dirty data drains
 *    lazily through a single write buffer;
 *  - a hypothetical flush-at-switch, whose cost we compute by counting
 *    the dirty blocks resident at each switch.
 */

#include <iostream>

#include "base/table.hh"
#include "coherence/bus.hh"
#include "core/vr_hierarchy.hh"
#include "vm/addr_space.hh"

using namespace vrc;

namespace
{

constexpr std::uint32_t kPage = 4096;

/** Count dirty (including swapped) blocks resident in the V-cache. */
std::uint32_t
dirtyResident(VrHierarchy &h)
{
    std::uint32_t n = 0;
    h.vcache().tags().forEachLine(
        [&](LineRef, const VCache::Store::Line &l) {
            if (l.valid && l.meta.dirty)
                ++n;
        });
    return n;
}

} // namespace

int
main()
{
    AddressSpaceManager spaces(kPage);
    SharedBus bus;
    HierarchyParams params;
    params.l1.sizeBytes = 16 * 1024;
    params.l2.sizeBytes = 256 * 1024;
    params.writeBufferDepth = 1; // the paper: one buffer suffices
    VrHierarchy h(params, spaces, bus, true);

    // Two processes, each with a private working set it writes to.
    auto touch = [&](ProcessId pid, int round) {
        for (std::uint32_t i = 0; i < 120; ++i) {
            std::uint32_t va =
                0x2000'0000 + i * 64 + (round % 2) * 16;
            h.access({RefType::Write, VirtAddr(va), pid});
            for (int r = 0; r < 6; ++r) {
                h.access({RefType::Read, VirtAddr(va ^ 0x8000), pid});
            }
        }
    };

    TextTable t;
    t.row()
        .cell("event")
        .cell("dirty blocks resident")
        .cell("flush-at-switch would write")
        .cell("swapped write-backs so far")
        .cell("buffer stalls");
    t.separator();

    std::uint64_t flush_cost = 0;
    for (int round = 0; round < 6; ++round) {
        ProcessId pid = round % 2;
        touch(pid, round);
        std::uint32_t dirty = dirtyResident(h);
        flush_cost += dirty;
        t.row()
            .cell("switch #" + std::to_string(round + 1))
            .cell(dirty)
            .cell(flush_cost)
            .cell(h.stats().value("swapped_writebacks"))
            .cell(h.stats().value("wb_stalls"));
        h.contextSwitch(pid == 0 ? 1 : 0);
    }
    std::cout << t;

    std::cout << "\nincremental write-backs actually performed: "
              << h.stats().value("swapped_writebacks")
              << " (spread across execution)\n";
    std::cout << "write-backs a flush-at-switch policy would have "
                 "performed in bursts: "
              << flush_cost << "\n";
    std::cout << "\ninter-write-back distances (references between "
                 "successive write-backs):\n";
    const Histogram &wb = h.writeBackIntervals();
    for (std::uint64_t d = 1; d < wb.maxBucket(); ++d)
        std::cout << "  " << d << ": " << wb.count(d) << "\n";
    std::cout << "  " << wb.maxBucket()
              << " and larger: " << wb.overflowCount() << "\n";

    h.checkInvariants();
    return 0;
}
