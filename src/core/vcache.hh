/**
 * @file
 * The virtually-addressed first-level cache (V-cache).
 *
 * Tag entry contents follow Figure 3 of the paper: a virtual tag, an
 * r-pointer (the low log2(R-cache-size / page-size) bits of the physical
 * page number, which with the page offset addresses the parent entry in
 * the R-cache), a dirty bit, a valid bit, and a swapped-valid bit.
 *
 * The swapped-valid (sv) bit implements incremental write-back across
 * context switches: markAllSwapped() "invalidates" every block for hit
 * purposes while retaining contents, and a dirty swapped block is only
 * written back when its slot is eventually reclaimed.
 *
 * In place of the architected r-pointer bits the simulator keeps the
 * full physical block address of each line. Hardware does not store
 * that address -- it relocates the parent by indexing the R-cache with
 * r-pointer + page offset and searching the set -- but the r-pointer
 * is its low page-number bits, so nothing is lost. The hierarchy's
 * SynonymDirectory (the pointer organization) derives the r-pointer
 * from the stored address and verifies that it, with the page offset,
 * reconstructs the same R-cache set.
 *
 * The searches the replay makes on every reference -- lookup(),
 * victimFor(), findOccupied() and install() -- are defined here in the
 * header so they inline into the hierarchy: their std::optional
 * results then stay in registers instead of crossing a translation
 * unit through a stack temporary (DESIGN.md §12, "The per-reference
 * path").
 */

#ifndef VRC_CORE_VCACHE_HH
#define VRC_CORE_VCACHE_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "base/addr.hh"
#include "base/types.hh"
#include "cache/tag_store.hh"
#include "core/clock.hh"
#include "core/config.hh"
#include "core/timing.hh"

namespace vrc
{

/** Per-line metadata of the V-cache (Figure 3, top). */
struct VLineMeta
{
    bool dirty = false;
    bool swappedValid = false;  ///< belongs to a switched-out process
    std::uint32_t physBlockAddr = 0; ///< simulator-held full link
};

/** The virtually-indexed, virtually-tagged level-1 cache. */
class VCache
{
  public:
    using Store = TagStore<VLineMeta>;
    using Line = Store::Line;

    /**
     * @param params     size/block/associativity of this cache
     * @param seed       replacement randomness seed
     * @param arena      carve the tag arrays from this arena, sized to
     *                   include footprint(); else the cache owns one
     */
    explicit VCache(const CacheParams &params,
                    std::uint64_t seed = 0x5ca1e,
                    Arena *arena = nullptr);

    /** Arena bytes a V-cache of this shape carves. */
    static std::size_t
    footprint(const CacheParams &params)
    {
        return Store::footprint(params.geometry(), params.policy);
    }

    /**
     * Look up a virtual address.
     *
     * @return the line location on a *valid* hit (present and not
     *         swapped), nullopt otherwise. Updates recency on hit.
     */
    std::optional<LineRef>
    lookup(VirtAddr va)
    {
        auto ref = _tags.find(va.value());
        if (!ref)
            return std::nullopt;
        Line l = _tags.line(*ref);
        if (l.meta.swappedValid)
            return std::nullopt;  // present but invalid for the new process
        _tags.touch(*ref);
        return ref;
    }

    /** Pick the replacement victim for @p va's set. */
    LineRef
    victimFor(VirtAddr va)
    {
        // A stale line with the *same tag* (necessarily swapped-valid or
        // it would have hit) must be the victim: tags stay unique per
        // set, so lookups and reverse pointers are never ambiguous. This
        // also makes the re-touch of a swapped block replace exactly its
        // old slot, enabling the write-back cancel.
        if (auto stale = _tags.find(va.value()))
            return *stale;
        return _tags.victim(va.value());
    }

    /**
     * Install a block for @p va into @p slot. The stored physical
     * block address is the child's whole link to its parent; the
     * hierarchy's synonym directory links the parent right after
     * every install.
     *
     * @param pa_block block-aligned physical address
     * @param dirty    initial dirty state
     */
    Line
    install(LineRef slot, VirtAddr va, std::uint32_t pa_block, bool dirty)
    {
        Line l = _tags.fill(slot, va.value());
        l.meta.dirty = dirty;
        l.meta.swappedValid = false;
        l.meta.physBlockAddr = pa_block;
        return l;
    }

    /**
     * Re-tag an existing line to a new virtual address without moving
     * data (synonym "sameset" relink). Clears swapped-valid, preserves
     * dirty and the physical link.
     */
    void retag(LineRef slot, VirtAddr va);

    /** Invalidate one line completely (drops content). */
    void invalidate(LineRef slot) { _tags.invalidate(slot); }

    /** Set the swapped-valid bit on every occupied line (context switch). */
    void markAllSwapped();

    /** Direct line access (a view into the tag arrays). */
    Line line(LineRef ref) { return _tags.line(ref); }
    Line line(LineRef ref) const { return _tags.line(ref); }

    /** Block-aligned *virtual* address an occupied line maps to. */
    std::uint32_t
    lineVAddr(LineRef ref) const
    {
        return _tags.lineAddr(ref);
    }

    /** Set index of a virtual address. */
    std::uint32_t
    setIndex(VirtAddr va) const
    {
        return _tags.geometry().setIndex(va.value());
    }

    /**
     * Find the occupied line (valid or swapped) holding virtual block
     * @p va_block, if any. Does not update recency.
     */
    std::optional<LineRef>
    findOccupied(std::uint32_t va_block) const
    {
        return _tags.find(va_block);
    }

    const CacheGeometry &geometry() const { return _tags.geometry(); }
    Store &tags() { return _tags; }
    const Store &tags() const { return _tags; }

    // --- per-access timing (cycle engine) ----------------------------

    /**
     * Whether a level-1 lookup is translation-free. True for the
     * paper's V-cache (virtual tags: the TLB sits behind it, so the
     * translation slowdown never applies); the R-R hierarchies set it
     * false because their physically-tagged level 1 translates on
     * every access and pays TimingParams::l1SlowdownPct.
     */
    void setTranslationFree(bool on) { _translationFree = on; }
    bool translationFree() const { return _translationFree; }

    /** This cache's per-access hit cost under @p p (t1 units). */
    Tick
    hitCost(const TimingParams &p) const
    {
        return _translationFree ? p.t1 : p.effectiveT1();
    }

  private:
    Store _tags;
    bool _translationFree = true;
};

} // namespace vrc

#endif // VRC_CORE_VCACHE_HH
