/**
 * @file
 * The original array-of-structures tag store, kept as the test oracle
 * for the production TagStore (cache/tag_store.hh).
 *
 * This is the seed implementation verbatim -- per-line structs in one
 * vector, early-exit first-match lookup, value-reassignment payload
 * reset -- re-skinned to hand out the same TagLineView<Meta> views as
 * TagStore. Rng consumption (one below() draw per eligible way under
 * Random replacement) matches TagStore draw for draw;
 * TagStoreParamTest.MatchesLegacyReferenceUnderRandomOps drives both
 * through one random operation sequence and requires every result,
 * every victim and every final line to agree.
 *
 * Do not optimize this file: its value is being the simple, obviously
 * correct model the fast engine is diffed against.
 */

#ifndef VRC_TESTS_LEGACY_TAG_STORE_HH
#define VRC_TESTS_LEGACY_TAG_STORE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.hh"
#include "cache/cache_geometry.hh"
#include "cache/protection.hh"
#include "cache/replacement.hh"
#include "cache/tag_store.hh"

namespace vrc
{

/** The seed's array-of-structures tag store (reference model). */
template <typename Meta>
class LegacyTagStore
{
  public:
    using Line = TagLineView<Meta>;

    /** One cache line: tag bits, recency stamp and the owner's payload. */
    struct Cell
    {
        std::uint8_t valid = 0;
        std::uint32_t tag = 0;
        std::uint64_t stamp = 0;
        Meta meta{};
    };

    LegacyTagStore(const CacheGeometry &geom, ReplPolicy policy,
                   std::uint64_t seed = 0x5eed)
        : _geom(geom), _policy(policy), _rng(seed),
          _lines(geom.numBlocks())
    {
    }

    const CacheGeometry &geometry() const { return _geom; }
    ReplPolicy policy() const { return _policy; }

    Line
    line(LineRef ref)
    {
        Cell &c = cell(ref);
        return Line{c.valid, c.tag, c.meta};
    }

    Line
    line(LineRef ref) const
    {
        return const_cast<LegacyTagStore *>(this)->line(ref);
    }

    std::optional<LineRef>
    find(std::uint32_t addr) const
    {
        std::uint32_t set = _geom.setIndex(addr);
        std::uint32_t tag = _geom.tag(addr);
        for (std::uint32_t w = 0; w < _geom.assoc(); ++w) {
            const Cell &c = _lines[set * _geom.assoc() + w];
            if (c.valid && c.tag == tag)
                return LineRef{set, w};
        }
        return std::nullopt;
    }

    void
    touch(LineRef ref)
    {
        if (_policy == ReplPolicy::LRU)
            cell(ref).stamp = ++_clock;
    }

    /** TagStore::copyStamp; this store keeps a stamp in every cell. */
    void
    copyStamp(LineRef from, LineRef to)
    {
        cell(to).stamp = cell(from).stamp;
    }

    LineRef
    victim(std::uint32_t addr)
    {
        std::uint32_t set = _geom.setIndex(addr);
        return victimWhere(set, [](LineRef, const Line &) { return true; });
    }

    template <typename Pred>
    LineRef
    victimWhere(std::uint32_t set, Pred eligible)
    {
        const std::uint32_t assoc = _geom.assoc();
        // Invalid way first.
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (!_lines[set * assoc + w].valid)
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

    Line
    fill(LineRef ref, std::uint32_t addr)
    {
        Cell &c = cell(ref);
        c.valid = 1;
        c.tag = _geom.tag(addr);
        c.stamp = ++_clock;
        c.meta = Meta{};
        return Line{c.valid, c.tag, c.meta};
    }

    void
    invalidate(LineRef ref)
    {
        cell(ref).valid = 0;
    }

    void
    invalidateAll()
    {
        for (Cell &c : _lines) {
            c.valid = 0;
            c.meta = Meta{};
        }
    }

    std::uint32_t
    lineAddr(LineRef ref) const
    {
        return _geom.rebuildAddr(cell(ref).tag, ref.set);
    }

    template <typename Fn>
    void
    forEachWay(std::uint32_t set, Fn fn)
    {
        for (std::uint32_t w = 0; w < _geom.assoc(); ++w) {
            LineRef ref{set, w};
            Line view = line(ref);
            fn(ref, view);
        }
    }

    template <typename Fn>
    void
    forEachWay(std::uint32_t set, Fn fn) const
    {
        const_cast<LegacyTagStore *>(this)->forEachWay(set, fn);
    }

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

    std::uint32_t
    validCount() const
    {
        std::uint32_t n = 0;
        for (const Cell &c : _lines)
            n += c.valid ? 1 : 0;
        return n;
    }

    // --- array protection (soft errors) ------------------------------

    ArrayProtection protection() const { return _protection; }
    void setProtection(ArrayProtection p) { _protection = p; }

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

    void noteUncorrectable() { _faultStats.uncorrectable += 1; }

    const ArrayFaultStats &faultStats() const { return _faultStats; }

  private:
    Cell &
    cell(LineRef ref)
    {
        return _lines[ref.set * _geom.assoc() + ref.way];
    }

    const Cell &
    cell(LineRef ref) const
    {
        return _lines[ref.set * _geom.assoc() + ref.way];
    }

    /** Policy choice among eligible valid ways; nullopt if none. */
    template <typename Pred>
    std::optional<LineRef>
    choose(std::uint32_t set, Pred eligible)
    {
        const std::uint32_t assoc = _geom.assoc();
        std::optional<LineRef> best;
        std::uint32_t eligible_count = 0;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            Cell &c = _lines[set * assoc + w];
            const LineRef ref{set, w};
            Line view{c.valid, c.tag, c.meta};
            if (!eligible(ref, view))
                continue;
            ++eligible_count;
            if (_policy == ReplPolicy::Random) {
                // Reservoir-sample one eligible way uniformly.
                if (_rng.below(eligible_count) == 0)
                    best = ref;
            } else if (!best || c.stamp < cell(*best).stamp) {
                best = ref;
            }
        }
        return best;
    }

    CacheGeometry _geom;
    ReplPolicy _policy;
    Rng _rng;
    std::uint64_t _clock = 0;
    std::vector<Cell> _lines;
    ArrayProtection _protection = ArrayProtection::Secded;
    ArrayFaultStats _faultStats;
};

} // namespace vrc

#endif // VRC_TESTS_LEGACY_TAG_STORE_HH
