#include "vm/tlb.hh"

#include <algorithm>

#include "base/bitops.hh"
#include "base/log.hh"
#include "vm/addr_space.hh"

namespace vrc
{

Tlb::Tlb(std::uint32_t entries, std::uint32_t assoc)
    : _numSets(entries / assoc), _assoc(assoc),
      _keys(static_cast<std::size_t>(entries), kInvalidKey),
      _slots(static_cast<std::size_t>(entries))
{
    panicIfNot(isPowerOfTwo(entries), "TLB entries must be a power of two");
    panicIfNot(isPowerOfTwo(assoc) && assoc <= entries,
               "bad TLB associativity");
}

bool
Tlb::probe(ProcessId pid, Vpn vpn) const
{
    const std::uint64_t k = key(pid, vpn);
    const std::size_t base = std::size_t(setIndex(vpn)) * _assoc;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (_keys[base + w] == k)
            return true;
    }
    return false;
}

Ppn
Tlb::translate(ProcessId pid, Vpn vpn, AddressSpaceManager &spaces)
{
    ++_clock;
    const std::uint64_t k = key(pid, vpn);
    const std::size_t base = std::size_t(setIndex(vpn)) * _assoc;
    // Branch-free scan of the set's keys (invalid ways hold kInvalidKey
    // and can never match); the payload array is touched only on a hit.
    std::uint32_t hit = _assoc;
    for (std::uint32_t w = _assoc; w-- > 0;) {
        if (_keys[base + w] == k)
            hit = w;
    }
    if (hit != _assoc) {
        Slot &s = _slots[base + hit];
        s.lruStamp = _clock;
        ++_hits;
        return s.ppn;
    }

    // Miss: pick the victim way -- the first invalid way, else the
    // least recently used one -- and walk the page tables (allocating
    // on first touch, matching the demand-allocation behaviour of the
    // trace's address spaces).
    std::uint32_t vw = 0;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (_keys[base + w] == kInvalidKey) {
            vw = w;
            break;
        }
        if (_slots[base + w].lruStamp < _slots[base + vw].lruStamp)
            vw = w;
    }
    ++_misses;

    std::uint32_t page_size = spaces.pageSize();
    PhysAddr pa =
        spaces.translate(pid, makeVirtAddr(vpn, 0, page_size));
    Ppn ppn = pa.ppn(page_size);

    _keys[base + vw] = k;
    _slots[base + vw] = Slot{ppn, _clock};
    return ppn;
}

bool
Tlb::invalidate(ProcessId pid, Vpn vpn)
{
    const std::uint64_t k = key(pid, vpn);
    const std::size_t base = std::size_t(setIndex(vpn)) * _assoc;
    for (std::uint32_t w = 0; w < _assoc; ++w) {
        if (_keys[base + w] == k) {
            _keys[base + w] = kInvalidKey;
            return true;
        }
    }
    return false;
}

void
Tlb::invalidateProcess(ProcessId pid)
{
    for (std::uint64_t &k : _keys) {
        if (k != kInvalidKey && static_cast<ProcessId>(k >> 32) == pid)
            k = kInvalidKey;
    }
}

void
Tlb::flush()
{
    std::fill(_keys.begin(), _keys.end(), kInvalidKey);
}

} // namespace vrc
