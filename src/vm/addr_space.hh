/**
 * @file
 * Machine-wide address-space management.
 *
 * AddressSpaceManager owns one PageTable per process and the physical
 * frame allocator. It provides:
 *
 *  - demand allocation: the first touch of an unmapped private page
 *    allocates a fresh physical frame deterministically;
 *  - shared segments: a group of frames mapped into several processes,
 *    possibly at *different* virtual addresses. These produce both
 *    cross-processor sharing (coherence traffic) and synonyms (two
 *    virtual addresses naming the same physical block), the two
 *    phenomena the paper's hierarchy must handle.
 *    Each attaches as a {base, segment} range, not page by page.
 */

#ifndef VRC_VM_ADDR_SPACE_HH
#define VRC_VM_ADDR_SPACE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/addr.hh"
#include "base/types.hh"
#include "vm/page_table.hh"

namespace vrc
{

/** Identifier of a shared segment. */
using SegmentId = std::uint32_t;

/** Machine-wide page tables plus the physical frame allocator. */
class AddressSpaceManager
{
  public:
    /**
     * @param page_size page size in bytes (power of two)
     * @param phys_pages number of physical frames before allocation wraps
     *                   (wrapping models frame reuse in a bounded memory)
     */
    explicit AddressSpaceManager(std::uint32_t page_size,
                                 std::uint32_t phys_pages = 1u << 18);

    /**
     * Translate @p va in process @p pid, demand-allocating a private frame
     * on first touch.
     */
    PhysAddr translate(ProcessId pid, VirtAddr va);

    /**
     * Translate without allocating.
     *
     * @return the physical address, or nullopt if the page is unmapped.
     */
    std::optional<PhysAddr> tryTranslate(ProcessId pid, VirtAddr va) const;

    /**
     * Create a shared segment of @p num_pages fresh frames.
     *
     * @param color_base_vpn virtual page the segment's canonical
     *        mapping starts at; frames are colored to match it.
     * @return the segment id, to pass to attachSegment().
     */
    SegmentId createSegment(std::uint32_t num_pages,
                            Vpn color_base_vpn = 0);

    /**
     * Map a shared segment into @p pid starting at virtual page @p base.
     * Different processes (or the same process twice) may attach the same
     * segment at different bases, creating synonyms. The attachment
     * overrides any earlier mapping of its pages in @p pid; a later
     * pageTable(pid).map() of one of them overrides it in turn.
     */
    void attachSegment(ProcessId pid, SegmentId seg, Vpn base);

    /** Frames making up a shared segment. */
    const std::vector<Ppn> &segmentFrames(SegmentId seg) const;

    /** Page size in bytes. */
    std::uint32_t pageSize() const { return _pageSize; }

    /** Per-process page table (created on demand): private pages and
     *  remaps; unmapping one uncovers any segment page it overrode. */
    PageTable &pageTable(ProcessId pid) { return _spaces[pid].table; }

    /** Number of frames handed out so far (without wrap). */
    std::uint64_t framesAllocated() const { return _framesAllocated; }

    /** Number of distinct processes seen. */
    std::size_t processCount() const { return _spaces.size(); }

    /** Number of page colors the allocator maintains. */
    static constexpr std::uint32_t numColors = 8;

  private:
    /**
     * Allocate a frame of the given color (ppn % numColors == color).
     *
     * Page coloring keeps physically-indexed caches free of the
     * accidental conflicts a virtually-indexed cache avoids by layout:
     * standard OS practice in systems with physical caches, and what
     * makes the paper's V-R / R-R level-1 hit ratios comparable.
     */
    Ppn allocFrame(std::uint32_t color);

    /** One process: its page table, then its {base, segment}s. */
    struct Space
    {
        PageTable table;
        std::vector<std::pair<Vpn, SegmentId>> attached; ///< oldest first
    };

    std::uint32_t _pageSize;
    std::uint32_t _physPages;
    std::array<std::uint64_t, numColors> _nextPerColor{};
    std::unordered_map<ProcessId, Space> _spaces;
    std::vector<std::vector<Ppn>> _segments;
    std::uint64_t _framesAllocated = 0;
};

} // namespace vrc

#endif // VRC_VM_ADDR_SPACE_HH
