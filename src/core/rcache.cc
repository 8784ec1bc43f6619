#include "core/rcache.hh"

#include "base/bitops.hh"
#include "base/log.hh"

namespace vrc
{

std::size_t
RCache::footprint(const CacheParams &params, std::uint32_t l1_block)
{
    const CacheGeometry g = params.geometry();
    const std::size_t subs =
        std::size_t{g.numBlocks()} * (params.blockBytes / l1_block);
    return Store::footprint(g, params.policy) +
           Arena::footprint(subs * sizeof(RSubentry));
}

RCache::RCache(const CacheParams &params, std::uint32_t l1_block,
               std::uint64_t seed, Arena *arena)
    : _ownArena(arena ? 0 : footprint(params, l1_block)),
      _tags(params.geometry(), params.policy, seed,
            arena ? arena : &_ownArena),
      _l1Block(l1_block), _subCount(params.blockBytes / l1_block)
{
    panicIfNot(params.blockBytes % l1_block == 0 && _subCount >= 1,
               "level-2 block size must be a multiple of level-1's");
    panicIfNot(isPowerOfTwo(_subCount), "sub-block count not a power of 2");
    _tags.setProtection(params.protection);
    Arena &a = arena ? *arena : _ownArena;
    _subs = a.allocArray<RSubentry>(
        std::size_t{_tags.geometry().numBlocks()} * _subCount);
}

} // namespace vrc
