/**
 * @file
 * Generic set-associative tag store.
 *
 * TagStore<Meta> owns the valid/tag/recency bookkeeping of a cache and
 * attaches an arbitrary metadata payload to each line; the V-cache and
 * R-cache supply very different payloads (r-pointers versus inclusion
 * subentries) but share all of the indexing, lookup and victim-selection
 * machinery here.
 *
 * Lines are addressed as (set, way) pairs; the owner is free to iterate
 * a set and apply its own victim predicate (the R-cache's relaxed
 * inclusion replacement rule needs exactly that).
 *
 * Storage is structure-of-arrays: the valid bytes, tags, payloads and
 * recency stamps live in flat parallel arrays carved out of an Arena
 * (the owning hierarchy's, or one the store sizes for itself), so the
 * lookup inner loop touches only the handful of contiguous cache lines
 * holding one set's tags, and the compiler can keep the tag-compare
 * scan branch-free. Line is therefore a *view*: a bundle of references
 * into the arrays, cheap to copy and source-compatible with the
 * original array-of-structures layout.
 *
 * A store keeps only the state its policy can read. Recency stamps
 * exist only where a victim choice compares them -- LRU or FIFO with
 * more than one way -- so a direct-mapped or Random store allocates
 * none, and footprint() (what an owner sizes its arena with) counts
 * exactly the arrays the constructor carves. Likewise only a Random
 * store holds an Rng (on the heap, seeded at construction): seeding
 * MT19937-64 is most of what building an LRU or FIFO store would cost.
 *
 * The original array-of-structures store survives as a test oracle
 * (tests/legacy_tag_store.hh): TagStoreParamTest drives both through
 * one random operation sequence and requires identical results --
 * including identical victims under Random replacement, so the two
 * consume their Rng draw for draw. Whole-machine runs are held to a
 * frozen record (tests/golden/soa_equivalence.golden) that both stores
 * reproduced when it was recorded.
 */

#ifndef VRC_CACHE_TAG_STORE_HH
#define VRC_CACHE_TAG_STORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "base/arena.hh"
#include "base/log.hh"
#include "base/rng.hh"
#include "cache/cache_geometry.hh"
#include "cache/protection.hh"
#include "cache/replacement.hh"

namespace vrc
{

/** Location of a line inside a tag store. */
struct LineRef
{
    std::uint32_t set = 0;
    std::uint32_t way = 0;

    bool operator==(const LineRef &) const = default;
};

/**
 * One cache line, as a view: references to the valid byte, tag bits
 * and the owner's payload wherever they are stored. The recency stamp
 * is the store's private business and is not part of the view. The
 * view is cheap to copy; copies alias the same line. The const
 * overloads of line()/forEachWay()/forEachLine() hand out the same view
 * type -- read-only use on const paths is enforced by convention, as
 * the simulator's const paths (probes, invariant checks) never write.
 */
template <typename Meta>
struct TagLineView
{
    std::uint8_t &valid;
    std::uint32_t &tag;
    Meta &meta;
};

/** The structure-of-arrays tag store. */
template <typename Meta>
class TagStore
{
    // The payload array is zero-filled arena memory that is assigned,
    // never constructed or destructed; an all-zero Meta must be a
    // fresh Meta{}.
    static_assert(std::is_trivially_copyable_v<Meta> &&
                  std::is_trivially_destructible_v<Meta>);

  public:
    using Line = TagLineView<Meta>;

    /**
     * Whether a store of @p assoc ways under @p policy keeps recency
     * stamps: only LRU and FIFO victim choices among several ways read
     * them.
     */
    static constexpr bool
    keepsStamps(std::uint32_t assoc, ReplPolicy policy)
    {
        return assoc > 1 && policy != ReplPolicy::Random;
    }

    /** Arena bytes a store of this geometry and policy carves. */
    static std::size_t
    footprint(const CacheGeometry &geom, ReplPolicy policy)
    {
        const std::size_t n = geom.numBlocks();
        return (keepsStamps(geom.assoc(), policy)
                    ? Arena::footprint(n * sizeof(std::uint64_t))
                    : 0) +
               Arena::footprint(n * sizeof(std::uint32_t)) +
               Arena::footprint(n * sizeof(std::uint8_t)) +
               Arena::footprint(n * sizeof(Meta));
    }

    /**
     * @param arena carve the arrays from this arena, which the owner
     *              sized to include footprint(); without one the store
     *              sizes and owns its own
     */
    TagStore(const CacheGeometry &geom, ReplPolicy policy,
             std::uint64_t seed = 0x5eed, Arena *arena = nullptr)
        : _geom(geom), _policy(policy),
          _rng(policy == ReplPolicy::Random ? std::make_unique<Rng>(seed)
                                            : nullptr),
          _assoc(geom.assoc()),
          _lruMulti(policy == ReplPolicy::LRU && geom.assoc() > 1),
          _ownArena(arena ? 0 : footprint(geom, policy))
    {
        // The lookup scan encodes validity in the tag array (kNoTag in
        // every invalid way), so a real tag must never collide with the
        // sentinel. tag() = addr >> (blockShift + setShift); any cache
        // with more than one byte-sized block keeps it below 2^32 - 1.
        panicIfNot(geom.blockBytes() > 1 || geom.numSets() > 1,
                   "degenerate geometry: tag sentinel not representable");
        Arena &a = arena ? *arena : _ownArena;
        const std::size_t n = geom.numBlocks();
        // Arena memory is zeroed: every line starts invalid, with a
        // zero stamp and an all-zero payload.
        if (keepsStamps(_assoc, policy))
            _stamp = a.allocArray<std::uint64_t>(n);
        _tag = a.allocArray<std::uint32_t>(n);
        _valid = a.allocArray<std::uint8_t>(n);
        _meta = a.allocArray<Meta>(n);
        for (std::size_t i = 0; i < n; ++i)
            _tag[i] = kNoTag;
    }

    const CacheGeometry &geometry() const { return _geom; }
    ReplPolicy policy() const { return _policy; }

    /** Whether this store allocated recency stamps (keepsStamps()). */
    bool keepsStamps() const { return _stamp != nullptr; }

    /** Access a line by location. */
    Line
    line(LineRef ref)
    {
        const std::size_t i = index(ref);
        return Line{_valid[i], _tag[i], _meta[i]};
    }

    Line
    line(LineRef ref) const
    {
        return const_cast<TagStore *>(this)->line(ref);
    }

    /**
     * Find the valid line matching @p addr's tag in its set.
     *
     * @return the location, or nullopt on miss. Does not update recency;
     *         call touch() on a hit.
     */
    std::optional<LineRef>
    find(std::uint32_t addr) const
    {
        const std::uint32_t set = _geom.setIndex(addr);
        const std::uint32_t tag = _geom.tag(addr);
        const std::uint32_t *tags = _tag + std::size_t(set) * _assoc;
        // Branch-free scan of the set's ways, over the tag array alone:
        // invalid ways hold kNoTag, which no real tag equals, so the
        // hit path touches exactly the cache lines holding this set's
        // tags. Scanning downward keeps the legacy first-match
        // (lowest-way) semantics even if an owner ever duplicates a tag
        // within a set.
        std::uint32_t hit = _assoc;
        for (std::uint32_t w = _assoc; w-- > 0;) {
            if (tags[w] == tag)
                hit = w;
        }
        if (hit == _assoc)
            return std::nullopt;
        return LineRef{set, hit};
    }

    /**
     * Mark a line most-recently-used. A no-op for FIFO/Random, and for
     * direct-mapped stores: with one way the stamps can never influence
     * a victim choice, so the store skips the write entirely.
     */
    void
    touch(LineRef ref)
    {
        if (_lruMulti)
            _stamp[index(ref)] = ++_clock;
    }

    /**
     * Give @p to the recency stamp of @p from, a way of the same set.
     * No owner does this -- fill() and touch() hand out distinct
     * stamps -- so it is how a test reaches a tie and pins the
     * tie-break (the lowest eligible way wins). A no-op for a store
     * that keeps no stamps.
     */
    void
    copyStamp(LineRef from, LineRef to)
    {
        if (_stamp)
            _stamp[index(to)] = _stamp[index(from)];
    }

    /**
     * Pick a victim way in the set for @p addr using the configured
     * policy. Prefers an invalid way when one exists.
     */
    LineRef
    victim(std::uint32_t addr)
    {
        std::uint32_t set = _geom.setIndex(addr);
        return victimWhere(set, [](LineRef, const Line &) { return true; });
    }

    /**
     * Pick a victim among the ways of @p set satisfying @p
     * eligible(LineRef, const Line &); falls back to any way when none
     * qualifies. Invalid ways always win, so the predicate only sees
     * valid ways. Used by the R-cache's relaxed inclusion replacement,
     * which keys its per-line subentries by location.
     *
     * @return the chosen location.
     */
    template <typename Pred>
    LineRef
    victimWhere(std::uint32_t set, Pred eligible)
    {
        const std::size_t base = std::size_t(set) * _assoc;
        // Invalid way first.
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (!_valid[base + w])
                return LineRef{set, w};
        }
        // Policy choice among eligible valid ways.
        std::optional<LineRef> best = choose(set, eligible);
        if (best)
            return *best;
        // Nothing eligible: fall back to an unconditional choice.
        best = choose(set, [](LineRef, const Line &) { return true; });
        return *best;
    }

    /**
     * Install @p addr's tag into @p ref, overwriting the line. The
     * payload is reset to a fresh value; the caller fills it in.
     *
     * @return a view of the fresh line.
     */
    Line
    fill(LineRef ref, std::uint32_t addr)
    {
        const std::size_t i = index(ref);
        _valid[i] = 1;
        _tag[i] = _geom.tag(addr);
        if (_stamp)
            _stamp[i] = ++_clock;
        _meta[i] = Meta{};
        return Line{_valid[i], _tag[i], _meta[i]};
    }

    /** Invalidate one line. */
    void
    invalidate(LineRef ref)
    {
        const std::size_t i = index(ref);
        _valid[i] = 0;
        _tag[i] = kNoTag;
    }

    /** Invalidate every line; payloads are reset. */
    void
    invalidateAll()
    {
        const std::size_t n = _geom.numBlocks();
        for (std::size_t i = 0; i < n; ++i) {
            _valid[i] = 0;
            _tag[i] = kNoTag;
            _meta[i] = Meta{};
        }
    }

    /** Block-aligned address a valid line maps to. */
    std::uint32_t
    lineAddr(LineRef ref) const
    {
        return _geom.rebuildAddr(_tag[index(ref)], ref.set);
    }

    /** Apply @p fn(LineRef, Line&) to every way of @p set. */
    template <typename Fn>
    void
    forEachWay(std::uint32_t set, Fn fn)
    {
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            LineRef ref{set, w};
            Line view = line(ref);
            fn(ref, view);
        }
    }

    template <typename Fn>
    void
    forEachWay(std::uint32_t set, Fn fn) const
    {
        const_cast<TagStore *>(this)->forEachWay(set, fn);
    }

    /** Apply @p fn(LineRef, Line&) to every line in the store. */
    template <typename Fn>
    void
    forEachLine(Fn fn)
    {
        for (std::uint32_t s = 0; s < _geom.numSets(); ++s)
            forEachWay(s, fn);
    }

    template <typename Fn>
    void
    forEachLine(Fn fn) const
    {
        for (std::uint32_t s = 0; s < _geom.numSets(); ++s)
            forEachWay(s, fn);
    }

    /** Count of valid lines (linear scan; for tests and stats). */
    std::uint32_t
    validCount() const
    {
        const std::size_t n = _geom.numBlocks();
        std::uint32_t count = 0;
        for (std::size_t i = 0; i < n; ++i)
            count += _valid[i] ? 1 : 0;
        return count;
    }

    // --- array protection (soft errors) ------------------------------

    /** Check-bit scheme covering tag, valid/state bits and Meta. */
    ArrayProtection protection() const { return _protection; }
    void setProtection(ArrayProtection p) { _protection = p; }

    /**
     * Absorb one soft-error strike of @p flips flipped bits and report
     * what the array's check logic sees under the configured policy.
     * Counts the outcome in faultStats(); the caller owns recovery.
     */
    FaultOutcome
    absorbFault(unsigned flips)
    {
        FaultOutcome out = classifyArrayFault(_protection, flips);
        switch (out) {
          case FaultOutcome::Silent:
            _faultStats.silent += 1;
            break;
          case FaultOutcome::Corrected:
            _faultStats.corrected += 1;
            break;
          case FaultOutcome::Detected:
            _faultStats.detected += 1;
            break;
        }
        return out;
    }

    /** A detected fault the owner could not recover (machine check). */
    void noteUncorrectable() { _faultStats.uncorrectable += 1; }

    /** Per-array detected/corrected/uncorrectable counters. */
    const ArrayFaultStats &faultStats() const { return _faultStats; }

  private:
    std::size_t
    index(LineRef ref) const
    {
        return std::size_t(ref.set) * _assoc + ref.way;
    }

    /**
     * Policy choice among eligible valid ways; nullopt if none. The
     * iteration order and Rng consumption mirror the legacy test
     * oracle exactly (one below() draw per eligible way under Random).
     */
    template <typename Pred>
    std::optional<LineRef>
    choose(std::uint32_t set, Pred eligible)
    {
        const std::size_t base = std::size_t(set) * _assoc;
        std::optional<LineRef> best;
        std::uint64_t best_stamp = 0;
        std::uint32_t eligible_count = 0;
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            const std::size_t i = base + w;
            const LineRef ref{set, w};
            Line l{_valid[i], _tag[i], _meta[i]};
            if (!eligible(ref, l))
                continue;
            ++eligible_count;
            if (_policy == ReplPolicy::Random) {
                // Reservoir-sample one eligible way uniformly.
                if (_rng->below(eligible_count) == 0)
                    best = ref;
            } else if (!best || _stamp[i] < best_stamp) {
                // Stamps are compared only from a second eligible way
                // on, and a multi-way LRU/FIFO store keeps them.
                best = ref;
                best_stamp = _stamp ? _stamp[i] : 0;
            }
        }
        return best;
    }

    /**
     * Tag-array value of an invalid way. Unreachable as a real tag for
     * any non-degenerate geometry (checked at construction), which lets
     * find() scan the tag array alone. The valid array remains the
     * authoritative validity bit for every other reader; fill(),
     * invalidate() and invalidateAll() keep the two in sync. (Owners
     * only ever write Line::tag on valid lines -- the V-cache synonym
     * retag -- which preserves the invariant.)
     */
    static constexpr std::uint32_t kNoTag = 0xFFFFFFFFu;

    CacheGeometry _geom;
    ReplPolicy _policy;
    std::unique_ptr<Rng> _rng; ///< null unless the policy is Random
    std::uint64_t _clock = 0;
    std::uint32_t _assoc;
    bool _lruMulti;  ///< touch() moves stamps: LRU and more than one way
    Arena _ownArena; ///< backing store sans an owner's arena (else empty)
    std::uint64_t *_stamp = nullptr; ///< null unless keepsStamps()
    std::uint32_t *_tag = nullptr;
    std::uint8_t *_valid = nullptr;
    Meta *_meta = nullptr;
    ArrayProtection _protection = ArrayProtection::Secded;
    ArrayFaultStats _faultStats;
};

} // namespace vrc

#endif // VRC_CACHE_TAG_STORE_HH
