/**
 * @file
 * Flat hash map from second-level line addresses to per-agent presence
 * masks (the snoop filter's directory).
 *
 * The bus maintains one entry per line address cached by at least one
 * filterable agent, and probes it on every broadcast; with the
 * std::unordered_map it replaces, the pointer-chasing find() and the
 * per-node allocations were among the hottest simulator operations.
 * This map is open-addressing with linear probing over one contiguous
 * slot array: a probe touches consecutive cache lines, inserts allocate
 * only on growth, and erases use backward-shift deletion so the table
 * never accumulates tombstones.
 *
 * A slot is occupied iff its mask is non-zero -- the bus erases an
 * entry exactly when its last presence bit clears, so a zero mask never
 * needs to be stored and doubles as the empty marker (keys need no
 * reserved sentinel value).
 */

#ifndef VRC_COHERENCE_PRESENCE_MAP_HH
#define VRC_COHERENCE_PRESENCE_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vrc
{

/** Open-addressing line-address -> presence-mask map. */
class PresenceMap
{
  public:
    using Mask = std::uint64_t;

    PresenceMap() : _slots(kMinCapacity) {}

    /** Mask for @p key, or 0 when the key is absent. */
    Mask
    lookup(std::uint32_t key) const
    {
        std::size_t i = home(key);
        while (_slots[i].mask != 0) {
            if (_slots[i].key == key)
                return _slots[i].mask;
            i = (i + 1) & (_slots.size() - 1);
        }
        return 0;
    }

    /** Set @p bits in @p key's mask, inserting the entry if absent. */
    void
    setBits(std::uint32_t key, Mask bits)
    {
        if ((_size + 1) * 4 > _slots.size() * 3)
            grow();
        std::size_t i = home(key);
        while (_slots[i].mask != 0) {
            if (_slots[i].key == key) {
                _slots[i].mask |= bits;
                return;
            }
            i = (i + 1) & (_slots.size() - 1);
        }
        _slots[i] = Slot{key, bits};
        ++_size;
    }

    /**
     * Clear @p bits in @p key's mask; the entry is erased when its mask
     * reaches zero. Absent keys are a no-op.
     */
    void
    clearBits(std::uint32_t key, Mask bits)
    {
        std::size_t i = home(key);
        while (_slots[i].mask != 0) {
            if (_slots[i].key == key) {
                _slots[i].mask &= ~bits;
                if (_slots[i].mask == 0)
                    eraseAt(i);
                return;
            }
            i = (i + 1) & (_slots.size() - 1);
        }
    }

    /** Clear @p bits in every entry (soft-error filter rebuild). */
    void
    clearBitsEverywhere(Mask bits)
    {
        // Erasure shifts slots around; snapshot the keys first so the
        // sweep stays simple (this path runs only on recovery events).
        std::vector<std::uint32_t> keys;
        keys.reserve(_size);
        for (const Slot &s : _slots) {
            if (s.mask != 0)
                keys.push_back(s.key);
        }
        for (std::uint32_t k : keys)
            clearBits(k, bits);
    }

    /** Visit every (key, mask) entry, in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : _slots) {
            if (s.mask != 0)
                fn(s.key, s.mask);
        }
    }

    std::size_t size() const { return _size; }

    /** Number of slots (a power of two; grows as entries are added). */
    std::size_t capacity() const { return _slots.size(); }

  private:
    struct Slot
    {
        std::uint32_t key = 0;
        Mask mask = 0;  ///< 0 = slot empty
    };

    static constexpr std::size_t kMinCapacity = 1024;  ///< power of two

    std::size_t
    home(std::uint32_t key) const
    {
        // Fibonacci multiplicative hash, masked to the low bits. Keys
        // are block-aligned line addresses, and the product keeps their
        // low zero bits, so homes land on multiples of the block size
        // and probe chains run longer than they would from the high
        // bits. Taking the high bits instead measured no end-to-end gain
        // on the sweep benchmark, so the mask stays.
        return (key * 0x9E3779B1u) & (_slots.size() - 1);
    }

    /**
     * Backward-shift deletion: close the hole at @p i by sliding back
     * every following slot that probes through it, keeping all chains
     * contiguous without tombstones.
     */
    void
    eraseAt(std::size_t i)
    {
        const std::size_t cap_mask = _slots.size() - 1;
        std::size_t hole = i;
        std::size_t j = (i + 1) & cap_mask;
        while (_slots[j].mask != 0) {
            // Can _slots[j] legally move into the hole? Only if its
            // home position does not lie strictly inside (hole, j].
            const std::size_t h = home(_slots[j].key);
            const bool between = ((j - h) & cap_mask) >=
                ((j - hole) & cap_mask);
            if (between) {
                _slots[hole] = _slots[j];
                hole = j;
            }
            j = (j + 1) & cap_mask;
        }
        _slots[hole] = Slot{};
        --_size;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(old.size() * 2, Slot{});
        _size = 0;
        for (const Slot &s : old) {
            if (s.mask != 0)
                setBits(s.key, s.mask);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
};

} // namespace vrc

#endif // VRC_COHERENCE_PRESENCE_MAP_HH
