/**
 * @file
 * Every counter an organization shows must be able to move.
 *
 * A counter that reads 0 on every reachable run says nothing, and
 * reports would carry it forever. Each organization is replayed on the
 * golden-scale pops trace under both coherence protocols, with DMA
 * traffic and a page remap, and under armed strike specs that reach
 * every soft-error outcome. Every counter the organization shows from
 * construction must move in at least one of those runs, and every row
 * of the hierarchy and bus tables must move under some organization.
 * The few counters no run can move are listed with the reason, and
 * must stay at 0.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>

#include "coherence/dma.hh"
#include "sim/artifacts.hh"
#include "sim/experiment.hh"
#include "sim/mp_sim.hh"

namespace vrc
{
namespace
{

constexpr HierarchyKind kKinds[] = {
    HierarchyKind::VirtualReal, HierarchyKind::RealRealIncl,
    HierarchyKind::RealRealNoIncl, HierarchyKind::VirtualRealRlt};

/** One run's machine: geometry, protocol, protection, strikes. */
struct RunSpec
{
    std::uint32_t l1 = 16 * 1024;
    std::uint32_t l2 = 256 * 1024;
    std::uint32_t assoc = 1; ///< both levels
    bool split = false;
    CoherencePolicy protocol = CoherencePolicy::WriteInvalidate;
    ArrayProtection protection = ArrayProtection::Secded;
    const char *strikes = nullptr; ///< parseSoftErrors spec, or none
};

using P = ArrayProtection;
constexpr auto kUpdate = CoherencePolicy::WriteUpdate;

const RunSpec kRuns[] = {
    {},
    {.protocol = kUpdate},
    {.split = true},
    // A level 2 only 8x level 1: inclusion forces replacements.
    {.l1 = 8 * 1024, .l2 = 64 * 1024},
    {.l1 = 8 * 1024, .l2 = 64 * 1024, .assoc = 2},
    {.l1 = 8 * 1024, .l2 = 64 * 1024, .protocol = kUpdate},
    // A level 1 no larger than a page: every synonym shares a set.
    {.l1 = 4 * 1024, .l2 = 64 * 1024},
    // Recoverable strikes on every site, SECDED: corrected, detected,
    // recovered, refetched, bus timeouts and retries.
    {.strikes = "seed=7,tag=2e-4,state=2e-4,ptr=2e-4,bus=1e-3"},
    // Parity detects every single flip: clean lines are refetched.
    {.protection = P::Parity, .strikes = "seed=3,state=1e-3"},
    // Unprotected arrays: strikes land silently.
    {.protection = P::None,
     .strikes = "seed=5,tag=2e-3,state=2e-3,ptr=2e-3"},
    // Parity cannot correct a dirty line: the machine checks.
    {.protection = P::Parity, .strikes = "seed=2,tag=0.05"},
};

/** A counter an organization shows that no run can move, and why. */
struct NeverMoves
{
    HierarchyKind kind;
    std::string_view name;
    const char *why;
};

constexpr const char *kParkedIsExclusive =
    "a parked write-back means this CPU held the line exclusively, so "
    "no foreign Invalidate can reach it and a read-modified-write "
    "flushes the entry before it invalidates";

const NeverMoves kNeverMoves[] = {
    {HierarchyKind::VirtualReal, "buffer_invalidations",
     kParkedIsExclusive},
    {HierarchyKind::RealRealIncl, "buffer_invalidations",
     kParkedIsExclusive},
    {HierarchyKind::RealRealNoIncl, "buffer_invalidations",
     kParkedIsExclusive},
    {HierarchyKind::VirtualRealRlt, "buffer_invalidations",
     kParkedIsExclusive},
    {HierarchyKind::RealRealIncl, "swapped_writebacks",
     "physical level-1 tags stay valid across a context switch, so no "
     "line is ever swap-marked"},
    {HierarchyKind::RealRealIncl, "synonym_sameset",
     "a physical block has one level-1 set, so a second copy in the "
     "same cache cannot exist"},
};

const NeverMoves *
neverMoves(HierarchyKind kind, std::string_view name)
{
    for (const NeverMoves &n : kNeverMoves) {
        if (n.kind == kind && n.name == name)
            return &n;
    }
    return nullptr;
}

/** Add the names of @p stats' counters that moved to @p moved. */
template <typename Stats>
void
addMoved(const Stats &stats, std::set<std::string> &moved)
{
    for (const auto &[name, n] : stats.all()) {
        if (n)
            moved.emplace(name);
    }
}

/**
 * Replay @p bundle through @p kind under @p run, with a DMA transfer
 * every 700 references, one page remap halfway and, at the end, a data
 * read of the last instruction fetched (code read as data), and add the
 * counters that moved to @p moved (hierarchy) and @p bus_moved.
 */
void
replay(const TraceBundle &bundle, HierarchyKind kind, const RunSpec &run,
       std::set<std::string> &moved, std::set<std::string> &bus_moved)
{
    MachineConfig mc = makeMachineConfig(kind, run.l1, run.l2,
                                         bundle.profile.pageSize, run.split);
    mc.hierarchy.l1.assoc = mc.hierarchy.l2.assoc = run.assoc;
    mc.hierarchy.protocol = run.protocol;
    mc.hierarchy.l1.protection = run.protection;
    mc.hierarchy.l2.protection = run.protection;
    if (run.strikes)
        mc.hierarchy.softErrors = parseSoftErrors(run.strikes).take();
    MpSimulator sim(mc, bundle.profile);
    DmaDevice dma(sim.bus(), mc.hierarchy.l2.blockBytes);

    const std::size_t half = bundle.records.size() / 2;
    std::size_t i = 0;
    TraceRecord fetch;
    try {
        for (const TraceRecord &r : bundle.records) {
            sim.step(r);
            if (r.type == RefType::Instr)
                fetch = r;
            if (++i % 700 == 0) {
                // Frames the CPUs are using: the low ones fill first.
                PhysAddr frame((i / 700) % 32 * bundle.profile.pageSize);
                if (i % 1400 == 0)
                    dma.write(frame, 64);
                else
                    dma.read(frame, 64);
            }
            if (i == half && r.isMemRef()) {
                sim.remapPage(r.pid, r.vaddr / bundle.profile.pageSize,
                              mc.physPages - 1);
            }
        }
        fetch.type = RefType::Read;
        sim.step(fetch);
    } catch (const FaultUnrecoverable &) {
        // A machine check ends the run; its counters still count.
    }
    for (CpuId c = 0; c < sim.cpuCount(); ++c)
        addMoved(sim.hierarchy(c).stats(), moved);
    addMoved(sim.bus().stats(), bus_moved);
}

/** What an organization shows before it runs. */
std::set<std::string>
declared(HierarchyKind kind)
{
    const TraceBundle &bundle = artifactTrace("pops", 0.02);
    MpSimulator sim(makeMachineConfig(kind, 8 * 1024, 64 * 1024,
                                      bundle.profile.pageSize),
                    bundle.profile);
    std::set<std::string> shown;
    for (const auto &[name, n] : sim.hierarchy(0).stats().all())
        shown.emplace(name);
    return shown;
}

TEST(CounterCoverageTest, EveryShownCounterMovesInSomeRun)
{
    std::set<std::string> any_moved, bus_moved;
    for (HierarchyKind kind : kKinds) {
        std::set<std::string> moved;
        for (const char *trace : {"pops", "abaqus"}) {
            for (const RunSpec &run : kRuns) {
                replay(artifactTrace(trace, 0.02), kind, run, moved,
                       bus_moved);
            }
        }
        for (const std::string &name : declared(kind)) {
            if (const NeverMoves *dead = neverMoves(kind, name)) {
                EXPECT_FALSE(moved.count(name))
                    << hierarchyKindArg(kind) << " moved " << name
                    << ", listed as never moving: " << dead->why;
                continue;
            }
            EXPECT_TRUE(moved.count(name))
                << hierarchyKindArg(kind) << " shows " << name
                << ", which no run moved";
        }
        any_moved.insert(moved.begin(), moved.end());
    }
    for (const auto &row : HierarchyStats::rows) {
        const bool dead = std::ranges::any_of(
            kNeverMoves, [&](const NeverMoves &n) {
                return n.name == row.name;
            });
        EXPECT_TRUE(dead || any_moved.count(std::string(row.name)))
            << "hierarchy counter " << row.name
            << " moved under no organization";
    }
    for (const auto &row : BusStats::rows) {
        EXPECT_TRUE(bus_moved.count(std::string(row.name)))
            << "bus counter " << row.name << " never moved";
    }
}

} // namespace
} // namespace vrc
