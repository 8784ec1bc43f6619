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

#include "cache/tag_store.hh"
#include "coherence/protocol.hh"
#include "core/hierarchy.hh"

namespace vrc
{

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

    using L1Store = TagStore<PLineMeta>;
    using L2Store = TagStore<L2LineMeta>;

    L1Store &l1(unsigned idx = 0) { return *_l1[idx]; }
    L2Store &l2() { return _l2; }

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
    /** Arena capacity: the level-1 stores plus the level-2 store. */
    static std::size_t arenaBytes(const HierarchyParams &params);

    /** Complete a drained write-back: into L2 if present, else memory. */
    void onWriteBufferDrain(const WriteBufferEntry &entry);

    // --- soft errors: recovery without inclusion -------------------
    //
    // With no r-pointer/v-pointer metadata there is no meta-ptr site,
    // but a detected-corrupt level-1 line has no *guaranteed* parent
    // either: a clean one probes level 2 and falls back to a bus
    // refetch, and a dirty one is immediately unrecoverable.

    void strikeL1(unsigned ci, Stat site, std::uint64_t h) override;
    void strikeL2(Stat site, std::uint64_t h) override;

    std::array<std::unique_ptr<L1Store>, 2> _l1;
    L2Store _l2;
};

} // namespace vrc

#endif // VRC_CORE_RR_HIERARCHY_HH
