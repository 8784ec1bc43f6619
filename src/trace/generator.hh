/**
 * @file
 * Synthetic multiprocessor trace generator.
 *
 * Produces an interleaved reference trace for a WorkloadProfile, plus the
 * generation-time ground truth (GenStats). The generator works purely in
 * virtual addresses; physical layout is established separately by
 * setupAddressSpaces() so that a simulator replaying the trace -- or a
 * trace loaded back from disk -- reconstructs the identical mapping.
 */

#ifndef VRC_TRACE_GENERATOR_HH
#define VRC_TRACE_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.hh"
#include "trace/record.hh"
#include "trace/workload.hh"

namespace vrc
{

class AddressSpaceManager;

/**
 * Fixed virtual-address layout used by generated processes.
 *
 * The region bases are staggered across page-number slices (vpn mod 4)
 * so that the hot text page, hot data page, active stack page and hot
 * shared page index *different* sets of a virtually-indexed cache
 * larger than a page -- as linkers and stack placement do in practice.
 * Without this, a virtual cache suffers artificial layout conflicts a
 * physically-indexed cache escapes through frame allocation.
 */
struct VirtualLayout
{
    static constexpr std::uint32_t textBase = 0x0001'0000;        // %4=0
    static constexpr std::uint32_t privateDataBase = 0x2000'1000; // %4=1
    static constexpr std::uint32_t sharedBase = 0x4000'3000;      // %4=3
    static constexpr std::uint32_t aliasRegionBase = 0x5000'0000;
    static constexpr std::uint32_t stackBase = 0x7fff'2000;       // hot
                                                 // stack page lands %4=2

    /** Per-process alias base for the shared segment (synonym source). */
    static std::uint32_t
    aliasBase(ProcessId pid, std::uint32_t shared_pages,
              std::uint32_t page_size)
    {
        // Stagger alias mappings so different processes name the shared
        // frames with different virtual pages; the odd extra page keeps
        // alias and canonical mappings from always landing in the same
        // cache set.
        return aliasRegionBase +
            (pid + 1) * (shared_pages + 1) * page_size;
    }
};

/**
 * Establish the deterministic physical layout for a profile: a shared
 * text segment mapped at the same virtual base into every process, and a
 * shared data segment mapped at the canonical base *and* a per-process
 * alias base. Private pages are demand-allocated on first touch by
 * whoever translates (normally the simulator), in trace order.
 */
void setupAddressSpaces(const WorkloadProfile &profile,
                        AddressSpaceManager &spaces);

/** Total number of processes a profile creates. */
std::uint32_t processCount(const WorkloadProfile &profile);

/** A generated trace plus generation-time statistics. */
struct TraceBundle
{
    WorkloadProfile profile;
    std::vector<TraceRecord> records;
    GenStats stats;
};

/**
 * Generate the full interleaved trace for @p profile.
 *
 * Deterministic: equal profiles (including seed) produce identical
 * bundles, equal to draining a TraceStream. One worker per simulated
 * CPU, up to the host's hardware threads, generates that CPU's records;
 * the calling thread is one of the workers.
 */
TraceBundle generateTrace(const WorkloadProfile &profile);

/**
 * Nested working-set address sampler.
 *
 * Levels are prefixes of a single region: level i covers the first
 * levels[i].bytes of the region, and is chosen with probability
 * proportional to levels[i].weight. Sampling a level picks a uniformly
 * random block inside it. Smaller levels are hit more often, giving an
 * approximately concave miss-ratio-vs-cache-size curve whose knees sit
 * at the level sizes.
 */
class NestedWorkingSetSampler
{
  public:
    NestedWorkingSetSampler(std::vector<WorkingSetLevel> levels,
                            std::uint32_t block_bytes,
                            std::uint32_t region_base);

    /** Draw one virtual byte address. */
    std::uint32_t sample(Rng &rng) const;

    /** Size in bytes of the largest level. */
    std::uint32_t maxBytes() const { return _levels.back().bytes; }

  private:
    std::vector<WorkingSetLevel> _levels;
    std::vector<double> _weights;
    double _weightTotal = 0.0;
    /** Blocks in each level (at least one), parallel to _levels. */
    std::vector<std::uint32_t> _blocks;
    std::uint32_t _blockBytes;
    std::uint32_t _regionBase;
};

} // namespace vrc

#endif // VRC_TRACE_GENERATOR_HH
