/**
 * @file
 * Deliberate-bug switches for checker validation.
 *
 * A checker that never fires is indistinguishable from one that works.
 * These flags let a test (or `vrc-fuzz --smoke`) flip a single known
 * invariant update inside a hierarchy and assert that the coherence
 * oracle reports the resulting corruption. They are a setting of one
 * machine (HierarchyParams::mutations), so a mutated machine can run
 * beside correct ones, and default to off, so normal runs are
 * unaffected.
 */

#ifndef VRC_CORE_MUTATION_HH
#define VRC_CORE_MUTATION_HH

namespace vrc
{

/** Switchable deliberate bugs (all off by default). */
struct MutationFlags
{
    /**
     * Skip setting the inclusion bit when a level-2 hit refills a
     * level-1 copy (VrHierarchy::handleRHit). The R-cache then thinks
     * the V-cache holds nothing, so a later replacement will drop the
     * line without killing the level-1 child -- exactly the class of
     * bookkeeping bug the oracle's linkage check exists to catch.
     */
    bool dropInclusionUpdate = false;
};

} // namespace vrc

#endif // VRC_CORE_MUTATION_HH
