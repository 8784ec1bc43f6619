/**
 * @file
 * The paper's two-level virtual-real cache hierarchy.
 *
 * Level 1 is one (or, when split, two) virtually-addressed VCache(s);
 * level 2 is a physically-addressed RCache enforcing inclusion, with a
 * TLB at the second level. The implementation follows the operational
 * description in Section 3 of the paper:
 *
 *  - V-cache read/write hit: serviced locally; a write hit on a clean
 *    block first clears coherence through the R-cache state (invack).
 *  - V-cache miss: the victim is evicted first (clean: clear the parent
 *    inclusion bit; dirty: park in the write buffer and set the parent
 *    buffer bit), the address is translated by the second-level TLB,
 *    and the R-cache is accessed.
 *  - R-cache hit with the inclusion bit set under a different virtual
 *    address: a synonym. Same target set: re-tag in place ("sameset").
 *    Different set or different split cache: move the block ("move").
 *  - R-cache hit with the buffer bit set: the block is in the write
 *    buffer (for a direct-mapped V-cache this is exactly the paper's
 *    sameset-with-dirty-victim case); the pending write-back is
 *    canceled and the block pulled back dirty.
 *  - R-cache miss: relaxed inclusion replacement (victimize a line with
 *    no level-1 children if possible, otherwise invalidate the children
 *    and count an inclusion invalidation), then a bus read-miss or
 *    read-modified-write transaction.
 *  - Context switch: every V-cache block gets the swapped-valid bit;
 *    dirty swapped blocks are written back lazily on replacement.
 *  - Bus-induced requests are filtered by the R-cache and percolate to
 *    level 1 only when the inclusion/buffer/vdirty bits require it.
 *
 * The *locator* half of that machinery -- which level-1 line holds a
 * given physical block -- lives behind the pluggable SynonymDirectory
 * (core/synonym_dir.hh): the paper's r-pointer/v-pointer back-maps are
 * its pointer organization, and the bounded reverse-lookup table
 * (HierarchyKind::VirtualRealRlt) is a peer organization that may
 * force conflict back-invalidations of level-1 children.
 */

#ifndef VRC_CORE_VR_HIERARCHY_HH
#define VRC_CORE_VR_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/hierarchy.hh"
#include "core/rcache.hh"
#include "core/synonym_dir.hh"
#include "core/vcache.hh"

namespace vrc
{

/**
 * The virtual-real two-level hierarchy (the paper's proposal).
 *
 * The same engine also implements the paper's R-R (inclusion) baseline:
 * constructing with l1_virtual = false indexes and tags level 1 with
 * *physical* addresses (translating before the level-1 lookup, i.e. a
 * TLB at the first level). In that mode synonyms cannot arise in a
 * unified level 1 (physical tags are unique), nothing is flushed on a
 * context switch, and all the inclusion / write-buffer / coherence
 * shielding machinery is shared unchanged -- which is exactly the
 * comparison the paper makes.
 */
class VrHierarchy final : public CacheHierarchy
{
  public:
    /**
     * @param params     cache geometry and policy parameters
     * @param spaces     machine-wide address spaces (shared by all CPUs)
     * @param bus        the shared snooping bus; this hierarchy attaches
     *                   itself and adopts the returned CPU id
     * @param l1_virtual level-1 indexed/tagged by virtual addresses
     *                   (true: the paper's V-R design; false: the R-R
     *                   inclusion baseline)
     * @param synonym_org which synonym-directory organization links
     *                   level-1 children to their R-cache parents
     */
    VrHierarchy(const HierarchyParams &params, AddressSpaceManager &spaces,
                SharedBus &bus, bool l1_virtual = true,
                SynonymOrg synonym_org = SynonymOrg::Pointer);

    AccessOutcome access(const MemAccess &acc) override;
    void contextSwitch(ProcessId new_pid) override;
    SnoopResult snoop(const BusTransaction &tx) override;
    void checkInvariants() const override;
    BlockProbe probeBlock(PhysAddr l2_line) const override;
    void forEachCachedLine(
        const std::function<void(PhysAddr)> &fn) const override;

    /**
     * Compose the per-reference latency from the levels that serviced
     * it: the level-1 cache prices its own lookup (translation-free in
     * V-R mode, slowed by l1SlowdownPct in R-R mode), the R-cache
     * prices a local second-level hit, and a full miss pays tm. A
     * synonym hit costs one second-level access, as the paper argues.
     */
    Tick
    levelCost(AccessOutcome o, const TimingParams &p) const override
    {
        switch (o) {
          case AccessOutcome::L1Hit:
            return _l1[0]->hitCost(p);
          case AccessOutcome::L2Hit:
          case AccessOutcome::SynonymHit:
            return _r.hitCost(p);
          case AccessOutcome::Miss:
            return p.tm;
        }
        return 0.0;
    }

    /** Level-1 cache: index 0 = unified/data, 1 = instruction. */
    VCache &vcache(unsigned idx = 0) { return *_l1[idx]; }
    const VCache &vcache(unsigned idx = 0) const { return *_l1[idx]; }

    RCache &rcache() { return _r; }
    const RCache &rcache() const { return _r; }

    /** True when level 1 is virtually addressed (the V-R design). */
    bool l1Virtual() const { return _l1Virtual; }

    /** The synonym directory linking level-1 children to parents. */
    SynonymDirectory &synonymDirectory() { return *_dir; }
    const SynonymDirectory &synonymDirectory() const { return *_dir; }

  private:
    /** Arena capacity: the level-1 caches plus the R-cache. */
    static std::size_t arenaBytes(const HierarchyParams &params);

    /** Evict the chosen V-cache victim, notifying the R-cache. */
    void evictVVictim(VCache &vc, LineRef slot);

    /**
     * Back-invalidate a level-1 child whose directory link is being
     * evicted on an RLT conflict (SynonymDirectory::BackInvalidate).
     */
    void backInvalidateChild(PhysAddr pa, const SynonymChild &child);

    /** Find the level-1 line the directory links @p pa to. */
    std::pair<VCache *, LineRef> directoryChild(PhysAddr pa) const;

    /**
     * Processor-side handling after an R-cache hit.
     *
     * @param l1_key the level-1 lookup address (virtual in V-R mode,
     *               physical in R-R mode)
     */
    AccessOutcome handleRHit(RefType type, VirtAddr l1_key, unsigned ci,
                             LineRef slot, LineRef rref, PhysAddr pa);

    /** Processor-side handling after an R-cache miss. */
    AccessOutcome handleRMiss(RefType type, VirtAddr l1_key, unsigned ci,
                              LineRef slot, PhysAddr pa);

    /** Evict an R-cache line (inclusion invalidations, write-back). */
    void evictRLine(LineRef rslot, bool forced);

    /** Write-buffer drain completion: fold the data into the R-cache. */
    void onWriteBufferDrain(const WriteBufferEntry &entry);

    /** Snoop helpers for the two halves of read-mod-write. */
    SnoopResult snoopReadMiss(LineRef rref);
    void snoopInvalidate(LineRef rref);

    /** Snoop handler for foreign write-update broadcasts. */
    SnoopResult snoopUpdate(LineRef rref);

    // --- soft errors: the recovery inclusion buys -------------------
    //
    // A detected clean level-1 line refetches from its guaranteed R-cache
    // parent; a detected clean R-cache line refetches over the bus and
    // rebuilds the presence bits derived from it. Dirty data behind a
    // detected strike -- a dirty V line, or an R line with a dirty child,
    // parked write-back or rdirty bit -- is a machine check.

    void strikeL1(unsigned ci, Stat site, std::uint64_t h) override;
    void strikeL2(Stat site, std::uint64_t h) override;

    bool _l1Virtual;

    std::array<std::unique_ptr<VCache>, 2> _l1;
    RCache _r;

    /**
     * The pluggable child locator (constructed after the caches it
     * indexes). Pre-bound conflict callback so the hot link sites
     * never allocate a std::function.
     */
    std::unique_ptr<SynonymDirectory> _dir;
    SynonymDirectory::BackInvalidate _backInvalidate;
};

} // namespace vrc

#endif // VRC_CORE_VR_HIERARCHY_HH
