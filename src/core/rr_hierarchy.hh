/**
 * @file
 * Real-real two-level hierarchy *without* inclusion.
 *
 * This is the paper's second baseline (the "RR(no incl)" columns of
 * Tables 11-13). Both levels are physically addressed; the TLB sits in
 * front of the level-1 cache. No inclusion bits are maintained: the
 * level-2 cache replaces lines without regard to level 1, so it cannot
 * filter bus traffic -- every foreign bus transaction must probe the
 * level-1 cache (and the write buffer), which is exactly the coherence
 * interference the paper's shielding argument quantifies.
 *
 * Because level 1 cannot rely on level 2 for coherence state, each
 * level-1 line carries its own sharing state.
 *
 * The R-R *with inclusion* baseline is VrHierarchy constructed with
 * l1_virtual = false; see vr_hierarchy.hh.
 */

#ifndef VRC_CORE_RR_HIERARCHY_HH
#define VRC_CORE_RR_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <memory>

#include "base/arena.hh"
#include "cache/tag_store.hh"
#include "cache/write_buffer.hh"
#include "coherence/bus.hh"
#include "coherence/protocol.hh"
#include "core/config.hh"
#include "core/hierarchy.hh"
#include "vm/tlb.hh"

namespace vrc
{

class AddressSpaceManager;

/** Level-1 line metadata for the non-inclusive hierarchy. */
struct PLineMeta
{
    bool dirty = false;
    CoherenceState state = CoherenceState::Invalid;
};

/** Level-2 line metadata for the non-inclusive hierarchy. */
struct L2LineMeta
{
    CoherenceState state = CoherenceState::Invalid;
    bool rdirty = false;
};

/** Real-real two-level hierarchy without the inclusion property. */
class RrNoInclHierarchy final : public CacheHierarchy
{
  public:
    RrNoInclHierarchy(const HierarchyParams &params,
                      AddressSpaceManager &spaces, SharedBus &bus);

    AccessOutcome access(const MemAccess &acc) override;
    void contextSwitch(ProcessId new_pid) override;
    SnoopResult snoop(const BusTransaction &tx) override;
    void checkInvariants() const override;
    BlockProbe probeBlock(PhysAddr l2_line) const override;
    void forEachCachedLine(
        const std::function<void(PhysAddr)> &fn) const override;

    void
    tlbShootdown(ProcessId pid, Vpn vpn) override
    {
        if (_tlb.invalidate(pid, vpn))
            (*_c.tlbShootdowns)++;
    }

    using L1Store = TagStore<PLineMeta>;
    using L2Store = TagStore<L2LineMeta>;

    unsigned l1Count() const { return _params.splitL1 ? 2 : 1; }

    L1Store &l1(unsigned idx = 0) { return *_l1[idx]; }
    L2Store &l2() { return _l2; }
    WriteBuffer &writeBuffer() { return _wb; }
    Tlb &tlb() { return _tlb; }

    const HierarchyParams &params() const { return _params; }

    /**
     * Per-reference latency of the non-inclusive baseline: both levels
     * are physically addressed, so the level-1 hit pays the translation
     * slowdown (the TLB is in front of the cache), a second-level hit
     * costs t2, and a full miss pays tm.
     */
    Tick
    levelCost(AccessOutcome o, const TimingParams &p) const override
    {
        switch (o) {
          case AccessOutcome::L1Hit:
            return p.effectiveT1();
          case AccessOutcome::L2Hit:
          case AccessOutcome::SynonymHit:
            return p.t2;
          case AccessOutcome::Miss:
            return p.tm;
        }
        return 0.0;
    }

  private:
    unsigned
    l1IndexFor(RefType t) const
    {
        return (_params.splitL1 && t == RefType::Instr) ? 1 : 0;
    }

    std::uint32_t
    l1Block(std::uint32_t addr) const
    {
        return addr & ~(_params.l1.blockBytes - 1);
    }

    std::uint32_t
    l2Block(std::uint32_t addr) const
    {
        return addr & ~(_params.l2.blockBytes - 1);
    }

    PhysAddr translate(const MemAccess &acc);

    /** Complete a drained write-back: into L2 if present, else memory. */
    void onWriteBufferDrain(const WriteBufferEntry &entry);

    /** Invalidate other caches' copies before a local write. */
    void issueInvalidate(PhysAddr pa);

    /**
     * Clear coherence for a write to a Shared block, following the
     * configured protocol.
     *
     * @param state in/out: the new coherence state of the local copy.
     * @return true if the local copy should be marked dirty.
     */
    bool writeToShared(PhysAddr pa, CoherenceState &state);

    // --- soft-error model (base/fault.hh) ----------------------------
    //
    // The no-inclusion contrast case: with no r-pointer/v-pointer
    // metadata there is no ptr fault site, but a detected-corrupt
    // level-1 line has no *guaranteed* parent either -- recovery must
    // probe level 2 and fall back to a bus refetch, and a dirty level-1
    // line is immediately unrecoverable.

    /** Schedule this reference's array strikes (pure seed hash). */
    void maybeInjectSoftErrors();

    /** One strike on a level-1 array. */
    void strikeL1(const char *ctr, std::uint64_t h);

    /** One strike on the level-2 array. */
    void strikeL2(const char *ctr, std::uint64_t h);

    /** Lazily created soft-error counters (see VrHierarchy). */
    Counter &softCounter(const char *name)
    {
        return stats().counter(name);
    }

    HierarchyParams _params;
    AddressSpaceManager &_spaces;
    SharedBus &_bus;

    /** Per-CPU arena backing both tag stores (must precede them). */
    Arena _arena;
    std::array<std::unique_ptr<L1Store>, 2> _l1;
    L2Store _l2;
    WriteBuffer _wb;
    Tlb _tlb;
    std::uint64_t _refIndex = 0;

    /** Stats handles resolved once at construction (see StatGroup). */
    struct Counters
    {
        Counter *writebackCompletions;
        Counter *memoryWrites;
        Counter *writebacksBypassingL2;
        Counter *invalidationsSent;
        Counter *updatesSent;
        Counter *wbStalls;
        Counter *writebacks;
        Counter *writebackCancels;
        Counter *l2Hits;
        Counter *bufferPullbacks;
        Counter *misses;
        Counter *fillsFromCache;
        Counter *fillsFromMemory;
        Counter *contextSwitches;
        Counter *l1CoherenceMsgs;
        Counter *l1Probes;
        Counter *l1Updates;
        Counter *l1Flushes;
        Counter *l1Invalidations;
        Counter *bufferFlushes;
        Counter *bufferInvalidations;
        Counter *tlbShootdowns;
    };
    Counters _c;
};

} // namespace vrc

#endif // VRC_CORE_RR_HIERARCHY_HH
