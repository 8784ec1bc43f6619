#include "core/synonym_dir.hh"

#include <span>

#include "base/arena.hh"
#include "base/bitops.hh"
#include "base/log.hh"
#include "core/rcache.hh"
#include "core/vcache.hh"

namespace vrc
{

namespace
{

/**
 * The paper's organization: the directory *is* the tag arrays. Each
 * R-cache subentry carries the architected v-pointer (plus, for split
 * level-1 caches, which half) naming its child, and each V-cache line
 * carries the architected r-pointer naming its parent. The simulator
 * stores the full addresses instead -- the child's in the subentry,
 * the parent's in the V-cache line -- and derives both pointers from
 * them (vPointerBits(), rPointerBits()). checkInvariants() proves
 * that both sets of bits, with the page offset, reach the linked
 * line's set.
 *
 * link/unlink are (almost) free -- the pointers ride along with the
 * subentry writes the hierarchy performs anyway -- and the directory
 * can never run out of capacity, which is exactly the property the
 * bounded reverse-lookup table gives up.
 */
class PointerSynonymDirectory final : public SynonymDirectory
{
  public:
    PointerSynonymDirectory(const HierarchyParams &params,
                            std::array<std::unique_ptr<VCache>, 2> &l1,
                            unsigned l1_count, RCache &r)
        : _l1(l1), _l1Count(l1_count), _r(r),
          _pageSize(params.pageSize),
          _rPointerSpan(params.l2.sizeBytes / params.pageSize),
          _vPointerSpan(std::max<std::uint32_t>(
              1, (params.splitL1 ? params.l1.sizeBytes / 2
                                 : params.l1.sizeBytes) /
                  params.pageSize))
    {
        panicIfNot(isPowerOfTwo(params.pageSize),
                   "page size not a power of two");
        panicIfNot(params.l2.sizeBytes >= params.pageSize,
                   "R-cache smaller than a page makes the r-pointer "
                   "empty");
    }

    SynonymOrg org() const override { return SynonymOrg::Pointer; }

    /** Architected r-pointer bits for a physical block address. */
    std::uint32_t
    rPointerBits(std::uint32_t pa) const
    {
        return (pa / _pageSize) & (_rPointerSpan - 1);
    }

    /** Architected v-pointer bits for a level-1 block address. */
    std::uint32_t
    vPointerBits(std::uint32_t addr) const
    {
        return (addr / _pageSize) & (_vPointerSpan - 1);
    }

    std::optional<SynonymChild>
    lookup(PhysAddr pa) const override
    {
        auto rref = _r.probe(pa);
        if (!rref)
            return std::nullopt;
        const RSubentry &s = _r.sub(*rref, pa);
        if (!s.inclusion)
            return std::nullopt;
        return SynonymChild{s.l1Index, s.childAddrBlock};
    }

    void
    link(PhysAddr pa, unsigned l1_index, std::uint32_t child_block,
         const BackInvalidate &) override
    {
        auto rref = _r.probe(pa);
        panicIfNot(rref.has_value(),
                   "synonym link with no R-cache parent");
        RSubentry &s = _r.sub(*rref, pa);
        s.l1Index = static_cast<std::uint8_t>(l1_index);
        s.childAddrBlock = child_block;
    }

    void
    unlink(PhysAddr) override
    {
        // The pointer fields are don't-care once the hierarchy clears
        // the inclusion bit; nothing to reclaim.
    }

    void
    forEachLink(const std::function<void(PhysAddr, const SynonymChild &)>
                    &fn) const override
    {
        _r.tags().forEachLine([&](LineRef ref, const RCache::Line &l) {
            if (!l.valid)
                return;
            for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
                const RSubentry &s = _r.sub(ref, i);
                if (s.inclusion) {
                    fn(PhysAddr(_r.subBlockAddr(ref, i)),
                       SynonymChild{s.l1Index, s.childAddrBlock});
                }
            }
        });
    }

    std::uint64_t
    storageBits() const override
    {
        // Architected link bits: one r-pointer per level-1 line plus
        // one v-pointer (and, when split, one cache-select bit) per
        // R-cache subentry. The full simulator-held addresses are
        // bookkeeping, not hardware state.
        std::uint64_t v_lines = 0;
        for (unsigned ci = 0; ci < _l1Count; ++ci) {
            const CacheGeometry &g = _l1[ci]->geometry();
            v_lines += std::uint64_t{g.numSets()} * g.assoc();
        }
        const CacheGeometry &rg = _r.geometry();
        std::uint64_t subentries =
            std::uint64_t{rg.numSets()} * rg.assoc() * _r.subCount();
        std::uint64_t r_ptr_bits = log2Exact(_rPointerSpan);
        std::uint64_t v_ptr_bits = log2Exact(_vPointerSpan);
        std::uint64_t select_bits = _l1Count > 1 ? 1 : 0;
        return v_lines * r_ptr_bits +
               subentries * (v_ptr_bits + select_bits);
    }

    void
    checkInvariants() const override
    {
        // The architected pointer bits, with the page offset, must
        // reconstruct the same sets as the simulator-held full
        // addresses (the paper's claim that log2(size/page) bits
        // suffice in each direction).
        for (unsigned ci = 0; ci < _l1Count; ++ci) {
            const VCache &vc = *_l1[ci];
            vc.tags().forEachLine(
                [&](LineRef ref, const VCache::Line &l) {
                    if (!l.valid)
                        return;
                    std::uint32_t pa = l.meta.physBlockAddr;
                    std::uint32_t rebuilt =
                        rPointerBits(pa) * _pageSize + pa % _pageSize;
                    panicIfNot(_r.geometry().setIndex(rebuilt) ==
                                   _r.geometry().setIndex(pa),
                               "r-pointer + page offset misses the "
                               "R-cache set");
                    (void)ref;
                });
        }
        _r.tags().forEachLine([&](LineRef ref, const RCache::Line &l) {
            if (!l.valid)
                return;
            for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
                const RSubentry &s = _r.sub(ref, i);
                if (!s.inclusion)
                    continue;
                panicIfNot(s.l1Index < _l1Count,
                           "v-pointer names a missing level-1 cache");
                const CacheGeometry &vg = _l1[s.l1Index]->geometry();
                std::uint32_t child = s.childAddrBlock;
                std::uint32_t rebuilt = vPointerBits(child) * _pageSize +
                                        child % _pageSize;
                panicIfNot(vg.setIndex(rebuilt) == vg.setIndex(child),
                           "v-pointer + page offset misses the V-cache "
                           "set");
            }
        });
    }

  private:
    std::array<std::unique_ptr<VCache>, 2> &_l1;
    unsigned _l1Count;
    RCache &_r;
    std::uint32_t _pageSize;
    std::uint32_t _rPointerSpan;  ///< R-cache size / page size
    std::uint32_t _vPointerSpan;  ///< V-cache size / page size (>= 1)
};

/**
 * The reverse-lookup-table organization: a bounded set-associative
 * table indexed by physical block address whose entries name the
 * level-1 child. Subentries carry no link bits at all -- every
 * percolation consults the table -- so the tag arrays are cheaper, but
 * the table can fill: inserting into a full set forces a
 * *back-invalidation* of the LRU victim's level-1 copy (via the
 * hierarchy's BackInvalidate callback, which parks dirty data in the
 * write buffer exactly like a normal eviction and then unlinks the
 * victim).
 *
 * Invariant (checked by the hierarchy): a subentry's inclusion bit is
 * set iff this table holds an entry for its block.
 */
class RltSynonymDirectory final : public SynonymDirectory
{
  public:
    RltSynonymDirectory(const HierarchyParams &params)
        : _l1Block(params.l1.blockBytes),
          _assoc(params.rltAssoc),
          _numSets(params.rltEntries / params.rltAssoc),
          // One zeroed block (every entry starts invalid), with stamps
          // only where the LRU victim choice reads them.
          _arena(Arena::footprint(params.rltEntries * sizeof(Entry)) +
                 (_assoc > 1 ? Arena::footprint(params.rltEntries *
                                                 sizeof(std::uint64_t))
                             : 0)),
          _entries(_arena.allocArray<Entry>(params.rltEntries)),
          _stamps(_assoc > 1 ? _arena.allocArray<std::uint64_t>(
                                   params.rltEntries)
                             : nullptr)
    {
        panicIfNot(_assoc >= 1 && params.rltEntries >= params.rltAssoc,
                   "RLT geometry: entries must cover one set");
        panicIfNot(params.rltEntries % params.rltAssoc == 0 &&
                       isPowerOfTwo(_numSets),
                   "RLT geometry: sets must be a power of two");
    }

    SynonymOrg org() const override { return SynonymOrg::ReverseLookup; }

    std::optional<SynonymChild>
    lookup(PhysAddr pa) const override
    {
        std::uint32_t key = blockKey(pa);
        const Entry *base = setBase(key);
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            const Entry &e = base[w];
            if (e.valid && e.physBlock == key)
                return SynonymChild{e.l1Index, e.childBlock};
        }
        return std::nullopt;
    }

    void
    link(PhysAddr pa, unsigned l1_index, std::uint32_t child_block,
         const BackInvalidate &evict_child) override
    {
        std::uint32_t key = blockKey(pa);
        Entry *base = setBase(key);

        // Existing link for this block: retarget in place (synonym
        // retag/move keeps the same physical block).
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            Entry &e = base[w];
            if (e.valid && e.physBlock == key) {
                e.l1Index = static_cast<std::uint8_t>(l1_index);
                e.childBlock = child_block;
                touch(e);
                return;
            }
        }

        Entry *slot = nullptr;
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (!base[w].valid) {
                slot = &base[w];
                break;
            }
        }
        if (!slot) {
            // Conflict: the set is full of other blocks. Force the LRU
            // victim's level-1 copy out; the hierarchy's callback ends
            // with unlink(victim), freeing the slot.
            const std::size_t first = base - _entries;
            std::uint32_t lru = 0;
            for (std::uint32_t w = 1; w < _assoc; ++w) {
                if (_stamps[first + w] < _stamps[first + lru])
                    lru = w;
            }
            Entry *victim = &base[lru];
            PhysAddr victim_pa(victim->physBlock * _l1Block);
            SynonymChild child{victim->l1Index, victim->childBlock};
            ++_conflicts;
            evict_child(victim_pa, child);
            panicIfNot(!victim->valid,
                       "RLT conflict victim survived back-invalidation");
            slot = victim;
        }
        slot->valid = true;
        slot->physBlock = key;
        slot->l1Index = static_cast<std::uint8_t>(l1_index);
        slot->childBlock = child_block;
        touch(*slot);
    }

    void
    unlink(PhysAddr pa) override
    {
        std::uint32_t key = blockKey(pa);
        Entry *base = setBase(key);
        for (std::uint32_t w = 0; w < _assoc; ++w) {
            if (base[w].valid && base[w].physBlock == key) {
                base[w].valid = false;
                return;
            }
        }
        panic("RLT unlink of a block that was never linked");
    }

    void
    forEachLink(const std::function<void(PhysAddr, const SynonymChild &)>
                    &fn) const override
    {
        for (const Entry &e : std::span(_entries, _numSets * _assoc)) {
            if (e.valid) {
                fn(PhysAddr(e.physBlock * _l1Block),
                   SynonymChild{e.l1Index, e.childBlock});
            }
        }
    }

    std::uint64_t
    storageBits() const override
    {
        // Per entry: valid bit, the physical tag above the set index,
        // the child's block id (level-1 address minus block offset)
        // and, when split, a cache-select bit. Uses the same 32-bit
        // address model as the rest of the simulator so the comparison
        // against the pointer organization is apples-to-apples.
        std::uint64_t addr_bits = 32 - log2Exact(_l1Block);
        std::uint64_t tag_bits = addr_bits - log2Exact(_numSets);
        std::uint64_t per_entry = 1 + tag_bits + addr_bits + 1;
        return std::uint64_t{_numSets} * _assoc * per_entry;
    }

    void
    checkInvariants() const override
    {
        for (std::uint32_t set = 0; set < _numSets; ++set) {
            const Entry *base = &_entries[std::size_t{set} * _assoc];
            for (std::uint32_t a = 0; a < _assoc; ++a) {
                if (!base[a].valid)
                    continue;
                panicIfNot((base[a].physBlock & (_numSets - 1)) == set,
                           "RLT entry in the wrong set");
                for (std::uint32_t b = a + 1; b < _assoc; ++b) {
                    panicIfNot(!base[b].valid ||
                                   base[b].physBlock !=
                                       base[a].physBlock,
                               "duplicate RLT entries for one block");
                }
            }
        }
    }

    /** Conflict back-invalidations forced so far (bench reporting). */
    std::uint64_t conflicts() const { return _conflicts; }

  private:
    /** One link, 12 bytes; all-zero is an invalid entry. */
    struct Entry
    {
        std::uint32_t physBlock;   ///< physical address / L1 block
        std::uint32_t childBlock;  ///< level-1 block address
        bool valid;
        std::uint8_t l1Index;
    };

    /** Stamp @p e most recently linked, where LRU reads stamps. */
    void
    touch(const Entry &e)
    {
        ++_clock;
        if (_stamps)
            _stamps[&e - _entries] = _clock;
    }

    std::uint32_t
    blockKey(PhysAddr pa) const
    {
        return pa.value() / _l1Block;
    }

    Entry *
    setBase(std::uint32_t key)
    {
        return &_entries[std::size_t{key & (_numSets - 1)} * _assoc];
    }

    const Entry *
    setBase(std::uint32_t key) const
    {
        return &_entries[std::size_t{key & (_numSets - 1)} * _assoc];
    }

    std::uint32_t _l1Block;
    std::uint32_t _assoc;
    std::uint32_t _numSets;
    Arena _arena;
    Entry *_entries;
    std::uint64_t *_stamps; ///< per entry; null if 1-way
    std::uint64_t _clock = 0;
    std::uint64_t _conflicts = 0;
};

} // namespace

std::unique_ptr<SynonymDirectory>
makeSynonymDirectory(SynonymOrg org, const HierarchyParams &params,
                     std::array<std::unique_ptr<VCache>, 2> &l1,
                     unsigned l1_count, RCache &r)
{
    switch (org) {
      case SynonymOrg::Pointer:
        return std::make_unique<PointerSynonymDirectory>(params, l1,
                                                         l1_count, r);
      case SynonymOrg::ReverseLookup:
        return std::make_unique<RltSynonymDirectory>(params);
    }
    panic("makeSynonymDirectory: unknown SynonymOrg ",
          static_cast<unsigned>(org));
}

} // namespace vrc
