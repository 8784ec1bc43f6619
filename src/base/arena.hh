/**
 * @file
 * Exact-size bump-pointer arena for per-CPU simulator state.
 *
 * A hierarchy owns one Arena and carves all of its tag-store arrays
 * (valid bytes, tags, payloads, recency stamps where the policy reads
 * them, and the R-cache's subentry array) out of it, so the metadata
 * one CPU touches on every reference sits in one contiguous region
 * instead of wherever the global allocator scattered it.
 *
 * The arena is sized once, up front, from the cache geometry: the
 * owner adds up footprint() of every array it will carve and passes
 * the sum to the constructor, which makes one zeroed allocation of
 * exactly that many bytes. Nothing is rounded up to a chunk size, and
 * carving past the capacity is a sizing bug that panics. Allocation is
 * append-only: nothing is ever freed individually and everything is
 * released when the arena dies, which is exactly the lifetime of the
 * owning hierarchy.
 */

#ifndef VRC_BASE_ARENA_HH
#define VRC_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#include "base/log.hh"

namespace vrc
{

/** Append-only bump allocator over one block of a fixed capacity. */
class Arena
{
  public:
    /**
     * Every carved array starts on this boundary, so any alignment up
     * to it is honoured and the capacity an owner needs is just the
     * sum of its arrays' footprints, whatever order it carves them in.
     */
    static constexpr std::size_t kAlign = alignof(std::max_align_t);

    /** Arena bytes an allocation of @p bytes takes. */
    static constexpr std::size_t
    footprint(std::size_t bytes)
    {
        return (bytes + kAlign - 1) & ~(kAlign - 1);
    }

    /** @param capacity total bytes; a sum of footprint() values */
    explicit Arena(std::size_t capacity) : _capacity(capacity)
    {
        panicIfNot(footprint(capacity) == capacity,
                   "arena capacity is not a sum of footprints");
        if (capacity == 0)
            return;
        // calloc: large blocks come back as fresh zero pages, which
        // are not touched (and cost no resident memory) until used.
        _block.reset(static_cast<std::byte *>(std::calloc(capacity, 1)));
        if (!_block)
            throw std::bad_alloc();
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p bytes aligned to @p align (a power of two, at most
     * kAlign). The memory is zero-filled and stays valid for the
     * arena's lifetime.
     */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        panicIfNot(align != 0 && (align & (align - 1)) == 0 &&
                       align <= kAlign,
                   "arena alignment must be a power of two <= kAlign");
        const std::size_t take = footprint(bytes);
        panicIfNot(take <= _capacity - _used,
                   "arena overflow: ", take, " bytes requested, ",
                   _capacity - _used, " of ", _capacity, " left");
        void *p = _block.get() + _used;
        _used += take;
        return p;
    }

    /** Typed array allocation; T must be trivially destructible. */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is never destructed");
        return static_cast<T *>(allocate(n * sizeof(T), alignof(T)));
    }

    /** Bytes of backing storage the arena holds (its capacity). */
    std::size_t allocatedBytes() const { return _capacity; }

    /** Bytes carved so far; equals allocatedBytes() once sized right. */
    std::size_t usedBytes() const { return _used; }

  private:
    struct Free
    {
        void operator()(std::byte *p) const { std::free(p); }
    };

    std::unique_ptr<std::byte, Free> _block;
    std::size_t _capacity;
    std::size_t _used = 0;
};

} // namespace vrc

#endif // VRC_BASE_ARENA_HH
