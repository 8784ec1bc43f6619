/**
 * @file
 * Write-back buffer between the level-1 and level-2 caches.
 *
 * Dirty level-1 victims are parked here so the processor does not wait
 * for the level-2 update. Entries retire (drain) a fixed number of
 * references after being pushed; pushing onto a full buffer forces the
 * oldest entry out first and reports a stall, which the hierarchy
 * counts as wb_stalls. The buffer participates in coherence: a bus
 * request may flush or invalidate a buffered block (the paper's
 * flush(buffer) / invalidation(buffer) signals), and a synonym
 * "sameset" may cancel a pending write-back entirely.
 *
 * Simulated time is the reference counter maintained by the hierarchy.
 */

#ifndef VRC_CACHE_WRITE_BUFFER_HH
#define VRC_CACHE_WRITE_BUFFER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace vrc
{

/** One parked write-back. */
struct WriteBufferEntry
{
    std::uint32_t physBlockAddr = 0;  ///< block-aligned physical address
    std::uint64_t pushTick = 0;       ///< when it entered the buffer
};

/** FIFO write-back buffer with per-entry drain latency. */
class WriteBuffer
{
  public:
    using DrainHandler = std::function<void(const WriteBufferEntry &)>;

    /**
     * @param capacity       maximum parked entries
     * @param drain_latency  references after which an entry retires
     */
    WriteBuffer(std::uint32_t capacity, std::uint64_t drain_latency)
        : _capacity(capacity), _drainLatency(drain_latency)
    {
        _entries.reserve(capacity);
    }

    /** Install the retirement callback (normally the hierarchy's). */
    void setDrainHandler(DrainHandler h) { _onDrain = std::move(h); }

    /** Advance time, retiring every entry whose latency has elapsed. */
    void
    tick(std::uint64_t now)
    {
        // Hot path: one compare against the cached retirement time of
        // the oldest entry (kNeverDrains when empty). The FIFO order
        // means no other entry can be due before the front one.
        while (now >= _nextDrain)
            retireFront();
    }

    /**
     * Park a write-back.
     *
     * @return true if the buffer was full and the processor stalled while
     *         the oldest entry retired early.
     */
    bool
    push(std::uint32_t phys_block_addr, std::uint64_t now)
    {
        const bool stalled = _entries.size() >= _capacity;
        if (stalled)
            retireFront();
        _entries.push_back(WriteBufferEntry{phys_block_addr, now});
        if (_entries.size() == 1)
            _nextDrain = now + _drainLatency;
        ++_pushes;
        return stalled;
    }

    /** True if a block is currently parked. */
    bool
    contains(std::uint32_t phys_block_addr) const
    {
        for (const auto &e : _entries) {
            if (e.physBlockAddr == phys_block_addr)
                return true;
        }
        return false;
    }

    /**
     * Remove a parked block without draining it (synonym cancel or
     * coherence invalidation).
     *
     * @return the entry if it was present.
     */
    std::optional<WriteBufferEntry>
    remove(std::uint32_t phys_block_addr)
    {
        for (auto it = _entries.begin(); it != _entries.end(); ++it) {
            if (it->physBlockAddr == phys_block_addr) {
                WriteBufferEntry e = *it;
                _entries.erase(it);
                refreshNextDrain();
                ++_removes;
                return e;
            }
        }
        return std::nullopt;
    }

    /** Visit every parked entry, oldest first (read-only). */
    template <typename Fn>
    void
    forEachEntry(Fn fn) const
    {
        for (const auto &e : _entries)
            fn(e);
    }

    std::size_t size() const { return _entries.size(); }
    std::uint32_t capacity() const { return _capacity; }
    bool empty() const { return _entries.empty(); }

    std::uint64_t pushes() const { return _pushes; }
    std::uint64_t removes() const { return _removes; }
    std::uint64_t drains() const { return _drains; }

  private:
    void
    retireFront()
    {
        WriteBufferEntry e = _entries.front();
        _entries.erase(_entries.begin());
        refreshNextDrain();
        ++_drains;
        if (_onDrain)
            _onDrain(e);
    }

    /** Re-derive the cached due time of the (new) oldest entry. */
    void
    refreshNextDrain()
    {
        _nextDrain = _entries.empty()
            ? kNeverDrains
            : _entries.front().pushTick + _drainLatency;
    }

    static constexpr std::uint64_t kNeverDrains = ~std::uint64_t{0};

    std::uint32_t _capacity;
    std::uint64_t _drainLatency;
    /** Due time of the oldest entry; kNeverDrains while empty. */
    std::uint64_t _nextDrain = kNeverDrains;
    /** Oldest first; reserved once, and a retire shifts only a few. */
    std::vector<WriteBufferEntry> _entries;
    DrainHandler _onDrain;
    std::uint64_t _pushes = 0;
    std::uint64_t _removes = 0;
    std::uint64_t _drains = 0;
};

} // namespace vrc

#endif // VRC_CACHE_WRITE_BUFFER_HH
