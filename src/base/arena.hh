/**
 * @file
 * Bump-pointer arena for per-CPU simulator state.
 *
 * A hierarchy owns one Arena and carves all of its tag-store arrays (and
 * the R-cache's subentry array) out of it, so the metadata one CPU
 * touches on every reference sits in one contiguous region instead of
 * wherever the global allocator scattered it. Allocation is
 * append-only: nothing is ever freed individually and everything is
 * released when the arena dies, which is exactly the lifetime of the
 * owning hierarchy.
 */

#ifndef VRC_BASE_ARENA_HH
#define VRC_BASE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "base/log.hh"

namespace vrc
{

/** Append-only bump allocator; frees everything at once on destruction. */
class Arena
{
  public:
    /** @param chunk_bytes granularity of the backing allocations */
    explicit Arena(std::size_t chunk_bytes = 1u << 16)
        : _chunkBytes(chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p bytes aligned to @p align (a power of two). The
     * memory is zero-filled and stays valid for the arena's lifetime.
     */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        panicIfNot(align != 0 && (align & (align - 1)) == 0,
                   "arena alignment must be a power of two");
        std::uintptr_t p = (_cursor + (align - 1)) & ~(align - 1);
        if (_cursor == 0 || p + bytes > _limit) {
            std::size_t need = bytes + align;
            std::size_t size = need > _chunkBytes ? need : _chunkBytes;
            // for_overwrite: skip make_unique's value-initialization,
            // the chunk is zeroed exactly once by the memset below.
            _chunks.push_back(
                std::make_unique_for_overwrite<std::byte[]>(size));
            std::memset(_chunks.back().get(), 0, size);
            _cursor = reinterpret_cast<std::uintptr_t>(_chunks.back().get());
            _limit = _cursor + size;
            _allocated += size;
            p = (_cursor + (align - 1)) & ~(align - 1);
        }
        _cursor = p + bytes;
        return reinterpret_cast<void *>(p);
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

    /** Total bytes of backing storage acquired so far. */
    std::size_t allocatedBytes() const { return _allocated; }

  private:
    std::size_t _chunkBytes;
    std::vector<std::unique_ptr<std::byte[]>> _chunks;
    std::uintptr_t _cursor = 0;
    std::uintptr_t _limit = 0;
    std::size_t _allocated = 0;
};

} // namespace vrc

#endif // VRC_BASE_ARENA_HH
