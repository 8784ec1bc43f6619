/**
 * @file
 * Per-process forward page table.
 *
 * Maps virtual page numbers to physical frame numbers for one address
 * space. Translation for the whole machine is coordinated by
 * AddressSpaceManager, which owns one PageTable per process plus the
 * physical frame allocator.
 */

#ifndef VRC_VM_PAGE_TABLE_HH
#define VRC_VM_PAGE_TABLE_HH

#include <cstddef>
#include <optional>
#include <unordered_map>

#include "base/types.hh"

namespace vrc
{

/** Forward map from virtual page numbers to physical frame numbers. */
class PageTable
{
  public:
    /**
     * Install (or overwrite) a mapping.
     *
     * @param vpn virtual page number
     * @param ppn physical frame number
     * @return true if a previous mapping was replaced
     */
    bool map(Vpn vpn, Ppn ppn);

    /** Remove the mapping for @p vpn. @return true if one existed. */
    bool unmap(Vpn vpn);

    /** Translate a virtual page number; nullopt if unmapped. */
    std::optional<Ppn> lookup(Vpn vpn) const;

    /** True if @p vpn has a mapping. */
    bool isMapped(Vpn vpn) const { return _map.contains(vpn); }

    /** Number of installed mappings. */
    std::size_t size() const { return _map.size(); }

    /** Drop every mapping. */
    void clear() { _map.clear(); }

  private:
    std::unordered_map<Vpn, Ppn> _map;
};

} // namespace vrc

#endif // VRC_VM_PAGE_TABLE_HH
