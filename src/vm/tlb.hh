/**
 * @file
 * Translation lookaside buffer.
 *
 * In the paper's organization the TLB sits at the *second* level: the
 * virtual address is forwarded to it in parallel with the V-cache lookup
 * and the translation is aborted on a V-cache hit. The TLB therefore only
 * matters on V-cache misses. We model a set-associative, LRU TLB tagged by
 * (process id, virtual page number) and count hits/misses so experiments
 * can report TLB behaviour; a miss is serviced from the page tables.
 *
 * Storage is structure-of-arrays in the tag-store style: one flat key
 * array holds the (pid, vpn) pair of every entry packed into a single
 * 64-bit word, so the translate hot path is a branch-free equality scan
 * of one set's keys; the payload (frame number, recency) lives in a
 * parallel array touched only on the way that hit.
 */

#ifndef VRC_VM_TLB_HH
#define VRC_VM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace vrc
{

class AddressSpaceManager;

/** Set-associative, LRU, (pid, vpn)-tagged translation buffer. */
class Tlb
{
  public:
    /**
     * @param entries   total number of entries (power of two)
     * @param assoc     set associativity (power of two, <= entries)
     */
    Tlb(std::uint32_t entries, std::uint32_t assoc);

    /**
     * Translate a virtual page number, filling from @p asm_ on a miss.
     *
     * @return the physical frame number.
     */
    Ppn translate(ProcessId pid, Vpn vpn, AddressSpaceManager &spaces);

    /** Probe without filling. @return true on a TLB hit. */
    bool probe(ProcessId pid, Vpn vpn) const;

    /** Invalidate one translation. @return true if it was present. */
    bool invalidate(ProcessId pid, Vpn vpn);

    /** Invalidate all entries of one process. */
    void invalidateProcess(ProcessId pid);

    /** Invalidate everything. */
    void flush();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    std::uint32_t numEntries() const { return _numSets * _assoc; }
    std::uint32_t associativity() const { return _assoc; }

  private:
    /** Payload of one entry; recency and frame, keyed by _keys. */
    struct Slot
    {
        Ppn ppn = 0;
        std::uint64_t lruStamp = 0;
    };

    /**
     * Key of an invalid entry. Unreachable as a real key: it would need
     * vpn == 2^32 - 1, i.e. a one-byte page size, and the address-space
     * layer requires power-of-two pages well above that.
     */
    static constexpr std::uint64_t kInvalidKey = ~std::uint64_t{0};

    static std::uint64_t
    key(ProcessId pid, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(pid) << 32) | vpn;
    }

    std::uint32_t setIndex(Vpn vpn) const { return vpn & (_numSets - 1); }

    std::uint32_t _numSets;
    std::uint32_t _assoc;
    std::vector<std::uint64_t> _keys;  ///< set-major; kInvalidKey = empty
    std::vector<Slot> _slots;          ///< parallel to _keys
    std::uint64_t _clock = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace vrc

#endif // VRC_VM_TLB_HH
