#include "vm/addr_space.hh"

#include "base/bitops.hh"
#include "base/log.hh"

namespace vrc
{

AddressSpaceManager::AddressSpaceManager(std::uint32_t page_size,
                                         std::uint32_t phys_pages)
    : _pageSize(page_size), _physPages(phys_pages)
{
    panicIfNot(isPowerOfTwo(page_size), "page size must be a power of two");
    panicIfNot(phys_pages >= 2, "need at least two physical frames");
}

Ppn
AddressSpaceManager::allocFrame(std::uint32_t color)
{
    color %= numColors;
    _framesAllocated += 1;
    // Physical memories too small to hold one stripe per color fall
    // back to plain wrapping allocation (frame 0 stays reserved).
    if (_physPages < 2 * numColors) {
        std::uint64_t k = _nextPerColor[0]++;
        return static_cast<Ppn>(1 + k % (_physPages - 1));
    }
    // Frames of one color are numColors apart. Frame 0 stays reserved
    // (null page), so color 0 starts at numColors. Allocation wraps
    // around the bounded physical memory per color.
    std::uint64_t stripes = _physPages / numColors - 1;
    std::uint64_t k = _nextPerColor[color] % stripes;
    _nextPerColor[color] += 1;
    return static_cast<Ppn>((k + 1) * numColors + color);
}

PhysAddr
AddressSpaceManager::translate(ProcessId pid, VirtAddr va)
{
    if (auto pa = tryTranslate(pid, va))
        return *pa;
    Vpn vpn = va.vpn(_pageSize);
    Ppn ppn = allocFrame(vpn % numColors);
    _spaces[pid].table.map(vpn, ppn);
    return makePhysAddr(ppn, va.pageOffset(_pageSize), _pageSize);
}

std::optional<PhysAddr>
AddressSpaceManager::tryTranslate(ProcessId pid, VirtAddr va) const
{
    auto space_it = _spaces.find(pid);
    if (space_it == _spaces.end())
        return std::nullopt;
    const Space &s = space_it->second;
    const Vpn vpn = va.vpn(_pageSize);
    auto ppn = s.table.lookup(vpn);
    for (auto it = s.attached.rbegin(); !ppn && it != s.attached.rend();
         ++it) {
        const std::vector<Ppn> &frames = _segments[it->second];
        if (vpn - it->first < frames.size())
            ppn = frames[vpn - it->first];
    }
    if (!ppn)
        return std::nullopt;
    return makePhysAddr(*ppn, va.pageOffset(_pageSize), _pageSize);
}

SegmentId
AddressSpaceManager::createSegment(std::uint32_t num_pages,
                                   Vpn color_base_vpn)
{
    panicIfNot(num_pages > 0, "empty shared segment");
    std::vector<Ppn> frames;
    frames.reserve(num_pages);
    for (std::uint32_t i = 0; i < num_pages; ++i)
        frames.push_back(allocFrame((color_base_vpn + i) % numColors));
    _segments.push_back(std::move(frames));
    return static_cast<SegmentId>(_segments.size() - 1);
}

void
AddressSpaceManager::attachSegment(ProcessId pid, SegmentId seg, Vpn base)
{
    panicIfNot(seg < _segments.size(), "unknown segment id");
    Space &s = _spaces[pid];
    // The attachment wins over earlier mappings of its pages.
    if (s.table.size() != 0) {
        for (std::size_t i = 0; i < _segments[seg].size(); ++i)
            s.table.unmap(base + static_cast<Vpn>(i));
    }
    s.attached.emplace_back(base, seg);
}

const std::vector<Ppn> &
AddressSpaceManager::segmentFrames(SegmentId seg) const
{
    panicIfNot(seg < _segments.size(), "unknown segment id");
    return _segments[seg];
}

} // namespace vrc
