#include "core/vcache.hh"

#include "base/bitops.hh"
#include "base/log.hh"

namespace vrc
{

VCache::VCache(const CacheParams &params, std::uint64_t seed,
               Arena *arena)
    : _tags(params.geometry(), params.policy, seed, arena)
{
    _tags.setProtection(params.protection);
}

void
VCache::retag(LineRef slot, VirtAddr va)
{
    Line l = _tags.line(slot);
    panicIfNot(l.valid, "retag of an empty V-cache line");
    panicIfNot(_tags.geometry().setIndex(va.value()) == slot.set,
               "retag must stay within the set");
    l.tag = _tags.geometry().tag(va.value());
    l.meta.swappedValid = false;
    _tags.touch(slot);
}

void
VCache::markAllSwapped()
{
    _tags.forEachLine([](LineRef, Line &l) {
        if (l.valid)
            l.meta.swappedValid = true;
    });
}

} // namespace vrc
