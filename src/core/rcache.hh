/**
 * @file
 * The physically-addressed second-level cache (R-cache).
 *
 * Tag entry contents follow Figure 3 of the paper: a physical tag, the
 * coherence state bits and the r-dirty bit for the whole line, and one
 * subentry per level-1-sized sub-block containing:
 *
 *   - the inclusion bit  (a copy lives in the level-1 cache),
 *   - the buffer bit     (a copy sits in the level-1 write buffer),
 *   - the v-dirty bit    (the level-1 copy is modified),
 *   - the v-pointer      (low log2(V-cache-size / page-size) bits of the
 *                         virtual page number: with the page offset it
 *                         addresses the child in the V-cache),
 *   - for split level-1 caches, which of the I/D halves holds the child.
 *
 * In place of the architected v-pointer bits the simulator keeps the
 * child's full block address: the v-pointer is a pure function of it
 * (its low virtual-page-number bits), so storing both would only
 * duplicate state. The address is owned and written by the hierarchy's
 * SynonymDirectory (the pointer organization derives the v-pointer
 * from it and verifies that the bits plus the page offset reach the
 * child's V-cache set; the reverse-lookup-table organization leaves it
 * unused); this cache only provides the storage.
 *
 * That storage is one flat array per R-cache, carved from an Arena
 * (the owning hierarchy's, or one the cache sizes for itself): line
 * (set, way) owns the subCount() consecutive entries starting at
 * (set * assoc + way) * subCount(). Every level-1 miss, percolation
 * and snoop reads them, so they sit next to their neighbours rather
 * than behind a per-line heap pointer, and building or destroying a
 * simulator allocates or frees nothing per line.
 *
 * For the same reason lookup(), probe(), victimFor() and install() are
 * defined in this header: they inline into the hierarchy, so their
 * std::optional and std::pair results never cross a translation unit
 * (DESIGN.md §12, "The per-reference path").
 */

#ifndef VRC_CORE_RCACHE_HH
#define VRC_CORE_RCACHE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "base/addr.hh"
#include "cache/tag_store.hh"
#include "coherence/protocol.hh"
#include "core/clock.hh"
#include "core/config.hh"
#include "core/timing.hh"

namespace vrc
{

/**
 * Per-sub-block metadata of an R-cache line (Figure 3, bottom). The
 * architected v-pointer is not stored: it is the low bits of
 * childAddrBlock's virtual page number.
 */
struct RSubentry
{
    bool inclusion = false;  ///< child present in the level-1 cache
    bool buffer = false;     ///< child parked in the write buffer
    bool vdirty = false;     ///< child (or buffered copy) is modified
    std::uint8_t l1Index = 0; ///< which level-1 cache holds the child
    std::uint32_t childAddrBlock = 0; ///< simulator-held child address
                                      ///< (virtual for V-R, physical for
                                      ///< R-R level 1)

    /** True if level 1 (cache or buffer) holds this sub-block. */
    bool
    childAbove() const
    {
        return inclusion || buffer;
    }
};

// Three flag bytes, the level-1 select byte and one address: every
// R-cache sub-block of every simulated CPU pays this, so it stays at 8
// host bytes.
static_assert(sizeof(RSubentry) == 8);

// The subentry array is zero-filled arena memory that is never
// destructed: all-zero bytes must be a fresh RSubentry{}, and there
// must be no destructor to skip.
static_assert(std::is_trivially_destructible_v<RSubentry>);
static_assert(
    [] {
        using Bytes = std::array<unsigned char, sizeof(RSubentry)>;
        for (unsigned char b : std::bit_cast<Bytes>(RSubentry{})) {
            if (b != 0)
                return false;
        }
        return true;
    }(),
    "RSubentry{} must be all-zero bytes");

/**
 * Per-line metadata of the R-cache. The line's subentries live in the
 * RCache's flat subentry array (RCache::sub()), not here.
 */
struct RLineMeta
{
    CoherenceState state = CoherenceState::Invalid;
    bool rdirty = false;  ///< modified relative to memory (in this level)
};

/** The physically-indexed, physically-tagged level-2 cache. */
class RCache
{
  public:
    using Store = TagStore<RLineMeta>;
    using Line = Store::Line;

    /**
     * @param params     size/block/associativity of this cache
     * @param l1_block   level-1 block size (defines sub-block count)
     * @param arena      carve the arrays from this arena, sized to
     *                   include footprint(); else the cache owns one
     */
    RCache(const CacheParams &params, std::uint32_t l1_block,
           std::uint64_t seed = 0x2ca1e, Arena *arena = nullptr);

    /** Arena bytes an R-cache of this shape carves: tags plus subentries. */
    static std::size_t footprint(const CacheParams &params,
                                 std::uint32_t l1_block);

    /** Look up a physical address. Updates recency on hit. */
    std::optional<LineRef>
    lookup(PhysAddr pa)
    {
        auto ref = _tags.find(pa.value());
        if (ref)
            _tags.touch(*ref);
        return ref;
    }

    /** Look up without touching recency (snoop path). */
    std::optional<LineRef>
    probe(PhysAddr pa) const
    {
        return _tags.find(pa.value());
    }

    /**
     * Choose a victim for @p pa's set under the paper's *relaxed
     * inclusion replacement rule*: prefer a line with every inclusion
     * and buffer bit clear; otherwise fall back to the base policy (the
     * caller must then invalidate the level-1 children).
     *
     * @return the slot, and whether the fallback case was taken.
     */
    std::pair<LineRef, bool>
    victimFor(PhysAddr pa)
    {
        std::uint32_t set = _tags.geometry().setIndex(pa.value());
        LineRef slot = _tags.victimWhere(
            set,
            [this](LineRef ref, const Line &) { return noChildren(ref); });
        bool forced = _tags.line(slot).valid && !noChildren(slot);
        return {slot, forced};
    }

    /**
     * Install a line for @p pa into @p slot and reset its subentries
     * (invalidate() leaves them stale: only valid lines' are read).
     */
    Line
    install(LineRef slot, PhysAddr pa, CoherenceState state)
    {
        Line l = _tags.fill(slot, pa.value());
        l.meta.state = state;
        l.meta.rdirty = false;
        std::fill_n(&_subs[firstSub(slot)], _subCount, RSubentry{});
        return l;
    }

    /** Invalidate one line. */
    void invalidate(LineRef slot) { _tags.invalidate(slot); }

    /** Index of the sub-block of @p pa within its line. */
    std::uint32_t
    subIndex(PhysAddr pa) const
    {
        return (pa.value() / _l1Block) & (_subCount - 1);
    }

    /** Subentry @p i (< subCount()) of a (valid) line. */
    RSubentry &
    sub(LineRef ref, std::uint32_t i)
    {
        return _subs[firstSub(ref) + i];
    }

    const RSubentry &
    sub(LineRef ref, std::uint32_t i) const
    {
        return _subs[firstSub(ref) + i];
    }

    /** Subentry of @p pa within a (valid) line. */
    RSubentry &
    sub(LineRef ref, PhysAddr pa)
    {
        return sub(ref, subIndex(pa));
    }

    const RSubentry &
    sub(LineRef ref, PhysAddr pa) const
    {
        return sub(ref, subIndex(pa));
    }

    /** True if no sub-block of a (valid) line has a copy above. */
    bool
    noChildren(LineRef ref) const
    {
        const RSubentry *s = &_subs[firstSub(ref)];
        for (std::uint32_t i = 0; i < _subCount; ++i) {
            if (s[i].childAbove())
                return false;
        }
        return true;
    }

    /** Block-aligned physical address of one sub-block of a line. */
    std::uint32_t
    subBlockAddr(LineRef ref, std::uint32_t sub_index) const
    {
        return _tags.lineAddr(ref) + sub_index * _l1Block;
    }

    /** Number of sub-blocks per line (B2 / B1). */
    std::uint32_t subCount() const { return _subCount; }

    Line line(LineRef ref) { return _tags.line(ref); }
    Line line(LineRef ref) const { return _tags.line(ref); }

    /** Block-aligned physical address of a (valid) line. */
    std::uint32_t lineAddr(LineRef ref) const { return _tags.lineAddr(ref); }

    const CacheGeometry &geometry() const { return _tags.geometry(); }
    Store &tags() { return _tags; }
    const Store &tags() const { return _tags; }

    /**
     * Per-access hit cost of this level under @p p (t1 units): the
     * R-cache is physically addressed behind the level-1 lookup, so a
     * local second-level hit costs t2 regardless of organization.
     */
    Tick
    hitCost(const TimingParams &p) const
    {
        return p.t2;
    }

  private:
    /** Index of @p ref's subentry 0 in the flat subentry array. */
    std::size_t
    firstSub(LineRef ref) const
    {
        return (std::size_t(ref.set) * _tags.geometry().assoc() + ref.way) *
            _subCount;
    }

    Arena _ownArena; ///< backing store sans an owner's arena (else empty)
    Store _tags;
    std::uint32_t _l1Block;
    std::uint32_t _subCount;
    /** subCount() subentries per line, lines in (set, way) order. */
    RSubentry *_subs = nullptr;
};

} // namespace vrc

#endif // VRC_CORE_RCACHE_HH
