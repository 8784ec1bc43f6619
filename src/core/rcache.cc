#include "core/rcache.hh"

#include "base/bitops.hh"
#include "base/log.hh"

namespace vrc
{

RCache::RCache(const CacheParams &params, std::uint32_t l1_block,
               std::uint64_t seed, Arena *arena)
    : _tags(CacheGeometry(params.sizeBytes, params.blockBytes,
                          params.assoc),
            params.policy, seed, arena),
      _l1Block(l1_block), _subCount(params.blockBytes / l1_block)
{
    panicIfNot(params.blockBytes % l1_block == 0 && _subCount >= 1,
               "level-2 block size must be a multiple of level-1's");
    panicIfNot(isPowerOfTwo(_subCount), "sub-block count not a power of 2");
    _tags.setProtection(params.protection);
    const std::size_t n =
        std::size_t{_tags.geometry().numBlocks()} * _subCount;
    if (arena) {
        _subs = arena->allocArray<RSubentry>(n);
    } else {
        _owned = std::make_unique<RSubentry[]>(n);
        _subs = _owned.get();
    }
}

} // namespace vrc
