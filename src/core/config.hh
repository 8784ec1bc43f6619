/**
 * @file
 * Configuration structs for two-level cache hierarchies.
 */

#ifndef VRC_CORE_CONFIG_HH
#define VRC_CORE_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/fault.hh"
#include "base/log.hh"
#include "cache/cache_geometry.hh"
#include "cache/protection.hh"
#include "cache/replacement.hh"
#include "coherence/protocol.hh"
#include "core/mutation.hh"

namespace vrc
{

/** Parameters of one cache level. */
struct CacheParams
{
    std::uint32_t sizeBytes = 16 * 1024;
    std::uint32_t blockBytes = 16;
    std::uint32_t assoc = 1;  ///< direct-mapped, as the paper simulates
    ReplPolicy policy = ReplPolicy::LRU;

    /** Check-bit scheme of the tag/state arrays (soft-error model). */
    ArrayProtection protection = ArrayProtection::Secded;

    CacheGeometry
    geometry() const
    {
        return CacheGeometry(sizeBytes, blockBytes, assoc);
    }
};

/** Which organization a hierarchy implements. */
enum class HierarchyKind : std::uint8_t
{
    VirtualReal,     ///< the paper's V-R design (r-/v-pointer back-maps)
    RealRealIncl,    ///< R-R baseline, inclusion enforced
    RealRealNoIncl,  ///< R-R baseline, no inclusion (L1 snoops the bus)
    VirtualRealRlt   ///< V-R with a reverse-lookup-table directory
};

/** Number of HierarchyKind values (for exhaustive sweeps/tests). */
inline constexpr unsigned kHierarchyKindCount = 4;

/** All kinds, in wire/enum order (for sweeps and round-trip tests). */
inline constexpr HierarchyKind kAllHierarchyKinds[kHierarchyKindCount] = {
    HierarchyKind::VirtualReal,
    HierarchyKind::RealRealIncl,
    HierarchyKind::RealRealNoIncl,
    HierarchyKind::VirtualRealRlt,
};

/** Printable kind name. */
inline const char *
hierarchyKindName(HierarchyKind k)
{
    switch (k) {
      case HierarchyKind::VirtualReal:
        return "VR";
      case HierarchyKind::RealRealIncl:
        return "RR(incl)";
      case HierarchyKind::RealRealNoIncl:
        return "RR(no incl)";
      case HierarchyKind::VirtualRealRlt:
        return "VR(rlt)";
    }
    panic("hierarchyKindName: unknown HierarchyKind ",
          static_cast<unsigned>(k));
}

/** Command-line spelling of a kind (vrc-sim/vrc-fuzz --org values). */
inline const char *
hierarchyKindArg(HierarchyKind k)
{
    switch (k) {
      case HierarchyKind::VirtualReal:
        return "vr";
      case HierarchyKind::RealRealIncl:
        return "rr";
      case HierarchyKind::RealRealNoIncl:
        return "rr-noincl";
      case HierarchyKind::VirtualRealRlt:
        return "vr-rlt";
    }
    panic("hierarchyKindArg: unknown HierarchyKind ",
          static_cast<unsigned>(k));
}

/** One-line description of a kind (vrc-sim --list-orgs). */
inline const char *
hierarchyKindDescription(HierarchyKind k)
{
    switch (k) {
      case HierarchyKind::VirtualReal:
        return "virtual L1 / real L2, r-/v-pointer synonym back-maps "
               "(the paper's design)";
      case HierarchyKind::RealRealIncl:
        return "real L1 / real L2 with inclusion, TLB before level 1";
      case HierarchyKind::RealRealNoIncl:
        return "real L1 / real L2 without inclusion, L1 snoops the bus";
      case HierarchyKind::VirtualRealRlt:
        return "virtual L1 / real L2, bounded reverse-lookup-table "
               "directory with conflict back-invalidation";
    }
    panic("hierarchyKindDescription: unknown HierarchyKind ",
          static_cast<unsigned>(k));
}

/**
 * Parse a command-line organization name. Accepts the canonical
 * hierarchyKindArg() spellings; returns nullopt on anything else.
 */
inline std::optional<HierarchyKind>
hierarchyKindFromArg(std::string_view s)
{
    for (HierarchyKind k : kAllHierarchyKinds) {
        if (s == hierarchyKindArg(k))
            return k;
    }
    return std::nullopt;
}

/** Parameters of a full per-processor hierarchy. */
struct HierarchyParams
{
    CacheParams l1{16 * 1024, 16, 1, ReplPolicy::LRU};
    CacheParams l2{256 * 1024, 16, 1, ReplPolicy::LRU};
    std::uint32_t pageSize = 4096;

    /** Split the level-1 cache into equal I and D halves. */
    bool splitL1 = false;

    std::uint32_t writeBufferDepth = 4;
    std::uint64_t writeBufferDrainLatency = 30;  ///< in references

    std::uint32_t tlbEntries = 256;
    std::uint32_t tlbAssoc = 4;

    /**
     * Reverse-lookup-table geometry (HierarchyKind::VirtualRealRlt
     * only): total entries and set associativity of the bounded
     * physical-block -> level-1-child map. A conflict in a full set
     * forces a back-invalidation of the victim's level-1 copy.
     */
    std::uint32_t rltEntries = 512;
    std::uint32_t rltAssoc = 4;

    /** Snooping protocol family at the second level. */
    CoherencePolicy protocol = CoherencePolicy::WriteInvalidate;
    SoftErrorConfig softErrors{}; ///< this machine's strikes (off)
    MutationFlags mutations{};    ///< deliberate bugs (checker tests)

    /** Sub-blocks per level-2 line (ratio of the block sizes). */
    std::uint32_t
    subBlocks() const
    {
        return l2.blockBytes / l1.blockBytes;
    }
};

/** Human-readable "16K/256K"-style label for a size pair. */
inline std::string
sizeLabel(std::uint32_t l1_bytes, std::uint32_t l2_bytes)
{
    auto fmt = [](std::uint32_t b) {
        if (b >= 1024 && b % 1024 == 0)
            return std::to_string(b / 1024) + "K";
        std::string s = "."; // .5K style
        s += std::to_string(b * 10 / 1024);
        return s + "K";
    };
    return fmt(l1_bytes) + "/" + fmt(l2_bytes);
}

} // namespace vrc

#endif // VRC_CORE_CONFIG_HH
