/**
 * @file
 * Replacement policy selection for TagStore.
 *
 * The policy picks a victim way within one set. LRU and FIFO are driven
 * by per-line stamps maintained by the tag store; Random draws from a
 * deterministic per-store Rng.
 */

#ifndef VRC_CACHE_REPLACEMENT_HH
#define VRC_CACHE_REPLACEMENT_HH

#include <cstdint>

namespace vrc
{

/** Available replacement policies. */
enum class ReplPolicy : std::uint8_t
{
    LRU,    ///< least recently used (stamp updated on every touch)
    FIFO,   ///< oldest insertion (stamp updated on fill only)
    Random  ///< uniformly random valid way
};

/** Printable policy name. */
inline const char *
replPolicyName(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::LRU:
        return "LRU";
      case ReplPolicy::FIFO:
        return "FIFO";
      case ReplPolicy::Random:
        return "Random";
    }
    return "?";
}

} // namespace vrc

#endif // VRC_CACHE_REPLACEMENT_HH
