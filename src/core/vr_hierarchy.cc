#include "core/vr_hierarchy.hh"

#include <algorithm>
#include <vector>

#include "base/bitops.hh"
#include "base/log.hh"

namespace vrc
{

VrHierarchy::VrHierarchy(const HierarchyParams &params,
                         AddressSpaceManager &spaces, SharedBus &bus,
                         bool l1_virtual, SynonymOrg synonym_org)
    : CacheHierarchy(params, spaces, bus, true,
                     HierarchyStats::Every | HierarchyStats::VirtualReal |
                         (synonym_org == SynonymOrg::ReverseLookup
                              ? HierarchyStats::Rlt
                              : 0),
                     arenaBytes(params)),
      _l1Virtual(l1_virtual),
      _r(params.l2, params.l1.blockBytes, 0x2ca1e, &_arena)
{
    const CacheParams l1 = l1CacheParams(params);
    for (unsigned i = 0; i < l1Count(); ++i) {
        _l1[i] = std::make_unique<VCache>(l1, i ? 0x1f1f : 0xdada, &_arena);
        // Virtual level-1 tags translate behind the cache (no per-access
        // translation cost); physical tags (R-R mode) pay the slowdown.
        _l1[i]->setTranslationFree(l1_virtual);
    }
    _dir = makeSynonymDirectory(synonym_org, params, _l1, l1Count(), _r);
    _backInvalidate = [this](PhysAddr pa, const SynonymChild &child) {
        backInvalidateChild(pa, child);
    };

    _wb.setDrainHandler(
        [this](const WriteBufferEntry &e) { onWriteBufferDrain(e); });

    // The R-cache directory covers everything this hierarchy can snoop
    // on (inclusion holds for both V-R and R-R modes), so the bus may
    // skip us whenever our presence bit is clear.
    setCpuId(bus.attach(
        this, SnoopAgentInfo{true, &_n[Stat::Snoops],
                             &_n[Stat::SnoopMisses]}));
}

std::size_t
VrHierarchy::arenaBytes(const HierarchyParams &params)
{
    return l1Count(params) * VCache::footprint(l1CacheParams(params)) +
           RCache::footprint(params.l2, params.l1.blockBytes);
}

void
VrHierarchy::onWriteBufferDrain(const WriteBufferEntry &entry)
{
    // The write-back completes: the R-cache copy absorbs the data. The
    // parent line must still be present -- every path that could remove
    // it (R-cache eviction, bus invalidation) extracts pending buffer
    // entries first.
    auto rref = _r.probe(PhysAddr(entry.physBlockAddr));
    panicIfNot(rref.has_value(),
               "write-buffer drain with no parent R-cache line");
    RSubentry &s = _r.sub(*rref, PhysAddr(entry.physBlockAddr));
    panicIfNot(s.buffer, "drained entry had no buffer bit set");
    s.buffer = false;
    s.vdirty = false;
    _r.line(*rref).meta.rdirty = true;
    ++_n[Stat::WritebackCompletions];
    emitEvent(EventKind::WritebackComplete, _refIndex, 0,
              entry.physBlockAddr);
}

void
VrHierarchy::evictVVictim(VCache &vc, LineRef slot)
{
    VCache::Line victim = vc.line(slot);
    if (!victim.valid)
        return;

    PhysAddr pa(victim.meta.physBlockAddr);
    auto rref = _r.probe(pa);
    panicIfNot(rref.has_value(), "V-cache victim has no R-cache parent");
    RSubentry &s = _r.sub(*rref, pa);
    panicIfNot(s.inclusion, "V-cache victim's inclusion bit not set");

    s.inclusion = false;
    _dir->unlink(pa);
    if (victim.meta.dirty) {
        // Park the block in the write buffer; the buffer bit marks the
        // data as still owned by the level-1 complex.
        s.buffer = true;
        if (_wb.push(victim.meta.physBlockAddr, _refIndex))
            ++_n[Stat::WbStalls];
        ++_n[Stat::Writebacks];
        emitEvent(EventKind::WritebackParked, _refIndex, 0,
                  victim.meta.physBlockAddr);
        if (victim.meta.swappedValid) {
            ++_n[Stat::SwappedWritebacks];
            emitEvent(EventKind::SwappedWriteback, _refIndex, 0,
                      victim.meta.physBlockAddr);
        }
        noteWriteBack(_refIndex);
    } else {
        s.vdirty = false;
    }
    vc.invalidate(slot);
}

std::pair<VCache *, LineRef>
VrHierarchy::directoryChild(PhysAddr pa) const
{
    auto child = _dir->lookup(pa);
    panicIfNot(child.has_value(), "dangling inclusion pointer");
    VCache *vc = _l1[child->l1Index].get();
    auto ref = vc->findOccupied(child->childAddrBlock);
    panicIfNot(ref.has_value(), "dangling inclusion pointer");
    return {vc, *ref};
}

void
VrHierarchy::backInvalidateChild(PhysAddr pa, const SynonymChild &child)
{
    // A bounded directory ran out of room for a new link: the victim
    // link's level-1 copy must leave the level-1 complex so the
    // directory stays authoritative. Dirty data parks in the write
    // buffer exactly like a replacement eviction (the buffer bit keeps
    // the parent alive until the drain); evictVVictim ends by
    // unlinking the victim from the directory, freeing its slot.
    VCache &oc = *_l1[child.l1Index];
    auto ref = oc.findOccupied(child.childAddrBlock);
    panicIfNot(ref.has_value(),
               "directory conflict victim has no level-1 line");
    evictVVictim(oc, *ref);
    ++_n[Stat::RltConflictInvalidations];
    ++_n[Stat::L1CoherenceMsgs];
    emitEvent(EventKind::RltConflictInvalidation, _refIndex,
              child.childAddrBlock, pa.value());
}

AccessOutcome
VrHierarchy::access(const MemAccess &acc)
{
    beginRef(acc.type);

    unsigned ci = l1IndexFor(acc.type);
    VCache &vc = *_l1[ci];

    // In V-R mode level 1 is looked up with the virtual address (the
    // TLB access proceeds concurrently in hardware and is aborted on a
    // hit). In R-R mode the translation must complete first -- that is
    // precisely the access-time penalty Figures 4-6 study.
    VirtAddr l1_key = acc.va;
    std::optional<PhysAddr> pa;
    if (!_l1Virtual) {
        pa = translate(acc);
        l1_key = VirtAddr(pa->value());
    }

    // 1. Level-1 lookup.
    if (auto hit = vc.lookup(l1_key)) {
        VCache::Line l = vc.line(*hit);
        if (acc.type == RefType::Write && !l.meta.dirty) {
            // Write hit on a clean block: wait for invack from the
            // R-cache (clearing coherence with other copies first).
            PhysAddr block(l.meta.physBlockAddr);
            auto rref = _r.probe(block);
            panicIfNot(rref.has_value(), "clean V block lost its parent");
            if (writeCoherence(block, _r.line(*rref).meta.state)) {
                _r.sub(*rref, block).vdirty = true;
                l.meta.dirty = true;
            }
            // Otherwise (write-update to a shared block) the data went
            // out on the bus and to memory: the copy stays clean.
        }
        noteL1Hit(acc.type);
        emitEvent(EventKind::L1Hit, _refIndex, l1_key.value(),
                  l.meta.physBlockAddr);
        return AccessOutcome::L1Hit;
    }

    // 2. Level-1 miss: commit the replacement, then translate.
    LineRef slot = vc.victimFor(l1_key);
    evictVVictim(vc, slot);

    if (!pa)
        pa = translate(acc);
    PhysAddr pa_block(l1Block(pa->value()));

    // 3. R-cache access.
    if (auto rref = _r.lookup(pa_block))
        return handleRHit(acc.type, l1_key, ci, slot, *rref, pa_block);
    return handleRMiss(acc.type, l1_key, ci, slot, pa_block);
}

AccessOutcome
VrHierarchy::handleRHit(RefType type, VirtAddr l1_key, unsigned ci,
                        LineRef slot, LineRef rref, PhysAddr pa)
{
    VCache &vc = *_l1[ci];
    RCache::Line rline = _r.line(rref);
    RSubentry &s = _r.sub(rref, pa);
    std::uint32_t va_block = l1Block(l1_key.value());

    AccessOutcome outcome;
    LineRef data_slot = slot;

    if (s.inclusion) {
        // Synonym: the block lives in a level-1 cache under another
        // virtual address (or under the same address, swapped out).
        auto link = _dir->lookup(pa);
        panicIfNot(link.has_value(), "dangling inclusion pointer");
        VCache &oc = *_l1[link->l1Index];
        auto child = oc.findOccupied(link->childAddrBlock);
        panicIfNot(child.has_value(), "dangling inclusion pointer");
        bool same_place = (link->l1Index == ci) &&
            (oc.setIndex(VirtAddr(link->childAddrBlock)) ==
             vc.setIndex(l1_key));
        if (same_place) {
            // sameset: re-tag in place, no data movement.
            oc.retag(*child, l1_key);
            data_slot = *child;
            ++_n[Stat::SynonymSameset];
            emitEvent(EventKind::SynonymSameset, _refIndex,
                      l1_key.value(), pa.value());
        } else {
            // move: relocate the block into the new slot.
            bool was_dirty = oc.line(*child).meta.dirty;
            oc.invalidate(*child);
            vc.install(slot, l1_key, pa.value(), was_dirty);
            ++_n[Stat::SynonymMoves];
            emitEvent(EventKind::SynonymMove, _refIndex,
                      l1_key.value(), pa.value());
        }
        // Retarget the existing link in place (same physical block, so
        // a bounded directory can never take a conflict here).
        _dir->link(pa, ci, va_block, _backInvalidate);
        ++_n[Stat::SynonymHits];
        outcome = AccessOutcome::SynonymHit;
    } else if (s.buffer) {
        // The block sits in the write buffer (for a direct-mapped
        // V-cache this is the paper's sameset case with a dirty
        // replaced block): cancel the write-back and pull it back.
        auto pulled = _wb.remove(pa.value());
        panicIfNot(pulled.has_value(), "buffer bit with no buffer entry");
        s.buffer = false;
        vc.install(slot, l1_key, pa.value(), true);
        s.inclusion = true;
        _dir->link(pa, ci, va_block, _backInvalidate);
        panicIfNot(s.vdirty, "buffered block lost its vdirty bit");
        ++_n[Stat::WritebackCancels];
        emitEvent(EventKind::WritebackCancel, _refIndex,
                  l1_key.value(), pa.value());
        ++_n[Stat::SynonymHits];
        ++_n[Stat::SynonymFromBuffer];
        outcome = AccessOutcome::SynonymHit;
    } else {
        // Plain second-level hit: data supply to the V-cache.
        vc.install(slot, l1_key, pa.value(), false);
        s.inclusion = !_params.mutations.dropInclusionUpdate;
        _dir->link(pa, ci, va_block, _backInvalidate);
        s.vdirty = false;
        ++_n[Stat::L2Hits];
        emitEvent(EventKind::L2Hit, _refIndex, l1_key.value(),
                  pa.value());
        outcome = AccessOutcome::L2Hit;
    }

    if (type == RefType::Write) {
        if (writeCoherence(pa, rline.meta.state)) {
            s.vdirty = true;
            // data_slot is always in vc: the sameset branch requires
            // the synonym to live in the same (target) cache and set.
            vc.line(data_slot).meta.dirty = true;
        } else {
            // Write-update to a shared block: propagated, stays clean.
            s.vdirty = false;
            vc.line(data_slot).meta.dirty = false;
        }
    }
    return outcome;
}

AccessOutcome
VrHierarchy::handleRMiss(RefType type, VirtAddr l1_key, unsigned ci,
                         LineRef slot, PhysAddr pa)
{
    VCache &vc = *_l1[ci];
    PhysAddr pa_line(l2Block(pa.value()));

    auto [rslot, forced] = _r.victimFor(pa_line);
    if (_r.line(rslot).valid)
        evictRLine(rslot, forced);

    CoherenceState st;
    bool dirty = busFill(type, pa_line, st);

    RCache::Line rline = _r.install(rslot, pa_line, st);
    _bus.noteBlockCached(cpuId(), pa_line.value());
    RSubentry &s = _r.sub(rslot, pa);
    std::uint32_t va_block = l1Block(l1_key.value());

    vc.install(slot, l1_key, pa.value(), dirty);
    s.inclusion = true;
    _dir->link(pa, ci, va_block, _backInvalidate);
    s.vdirty = dirty;
    rline.meta.rdirty = false;
    emitEvent(EventKind::Miss, _refIndex, l1_key.value(), pa.value());
    return AccessOutcome::Miss;
}

void
VrHierarchy::evictRLine(LineRef rslot, bool forced)
{
    RCache::Line rline = _r.line(rslot);
    std::uint32_t line_addr = _r.lineAddr(rslot);
    bool dirty_data = rline.meta.rdirty;

    for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
        RSubentry &s = _r.sub(rslot, i);
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        if (s.buffer) {
            // Complete the parked write-back straight to memory.
            auto e = _wb.remove(sub_addr);
            panicIfNot(e.has_value(), "buffer bit with no buffer entry");
            s.buffer = false;
            dirty_data = true;
        }
        if (s.inclusion) {
            // Relaxed replacement fallback: kill the level-1 child.
            PhysAddr sub_pa(sub_addr);
            auto link = _dir->lookup(sub_pa);
            panicIfNot(link.has_value(), "dangling inclusion pointer");
            VCache &oc = *_l1[link->l1Index];
            auto child = oc.findOccupied(link->childAddrBlock);
            panicIfNot(child.has_value(), "dangling inclusion pointer");
            if (oc.line(*child).meta.dirty)
                dirty_data = true;
            oc.invalidate(*child);
            s.inclusion = false;
            _dir->unlink(sub_pa);
            ++_n[Stat::InclusionInvalidations];
            ++_n[Stat::L1CoherenceMsgs];
            emitEvent(EventKind::InclusionInvalidation, _refIndex,
                      link->childAddrBlock, sub_addr);
            panicIfNot(forced,
                       "children evicted on a non-forced replacement");
        }
        s.vdirty = false;
    }
    if (dirty_data)
        ++_n[Stat::MemoryWrites];
    emitEvent(EventKind::L2Evict, _refIndex, 0, line_addr);
    _r.invalidate(rslot);
    _bus.noteBlockUncached(cpuId(), line_addr);
    if (forced)
        ++_n[Stat::ForcedRReplacements];
}

// ===== soft-error recovery (the strike path is CacheHierarchy's) =====

void
VrHierarchy::strikeL1(unsigned ci, Stat site, std::uint64_t h)
{
    VCache &vc = *_l1[ci];
    LineRef ref = faultTarget(vc.tags(), h);
    VCache::Line l = vc.line(ref);
    PhysAddr pa(l.meta.physBlockAddr);
    if (!strikeDetected(vc.tags(), ref, site, h, vc.lineVAddr(ref),
                        pa.value())) {
        return;
    }
    auto rref = _r.probe(pa);
    panicIfNot(rref.has_value(),
               "detected-corrupt V line has no R-cache parent");
    if (l.meta.dirty) {
        // The only current copy of the data is lost. Unlink the line so
        // the machine state the campaign quarantines (or the fuzzer
        // keeps driving) is still coherent.
        RSubentry &s = _r.sub(*rref, pa);
        s.inclusion = false;
        s.vdirty = false;
        _dir->unlink(pa);
        machineCheck(vc.tags(), ref, pa.value(),
                     "uncorrectable soft error in a dirty level-1 line");
    }
    // Inclusion guarantees the line an R-cache parent, and the r-pointer
    // (plus the page offset) addresses it without translating: hardware
    // invalidates the corrupt line and refetches it from the parent.
    // The cost is one extra level-2 access, no bus traffic. This is the
    // cheap-recovery story inclusion buys the V-R design.
    refetchStruck(false, vc.lineVAddr(ref), pa.value());
}

void
VrHierarchy::strikeL2(Stat site, std::uint64_t h)
{
    LineRef rref = faultTarget(_r.tags(), h);
    std::uint32_t line_addr = _r.lineAddr(rref);
    if (!strikeDetected(_r.tags(), rref, site, h, 0, line_addr))
        return;

    bool dirty_below = _r.line(rref).meta.rdirty;
    for (std::uint32_t i = 0; i < _r.subCount(); ++i)
        dirty_below |= _r.sub(rref, i).vdirty;
    if (dirty_below) {
        // The line shields dirty data (its own or a child's) behind
        // array bits that can no longer be trusted: writing any of it
        // back would propagate corruption, so the whole line and its
        // children are dropped and the loss reported.
        for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
            RSubentry &s = _r.sub(rref, i);
            std::uint32_t sub_addr = _r.subBlockAddr(rref, i);
            if (s.buffer) {
                auto e = _wb.remove(sub_addr);
                panicIfNot(e.has_value(),
                           "buffer bit with no buffer entry");
                s.buffer = false;
            }
            if (s.inclusion) {
                auto [oc, child] = directoryChild(PhysAddr(sub_addr));
                oc->invalidate(child);
                s.inclusion = false;
                _dir->unlink(PhysAddr(sub_addr));
            }
            s.vdirty = false;
        }
        _bus.noteBlockUncached(cpuId(), line_addr);
        machineCheck(_r.tags(), rref, line_addr,
                     "uncorrectable soft error in a level-2 line "
                     "covering dirty data");
    }
    // Nothing below the line is dirty, so memory holds current data:
    // refetch the line over the bus. Clean level-1 children hold
    // identical content and survive. The snoop-filter presence bits
    // were derived from the now-suspect directory, so they are
    // scrubbed and rebuilt.
    refetchStruck(true, 0, line_addr);
    _bus.clearPresence(cpuId());
    _r.tags().forEachLine([&](LineRef ref, const RCache::Line &l) {
        if (l.valid)
            _bus.noteBlockCached(cpuId(), _r.lineAddr(ref));
    });
    ++_n.show(Stat::PresenceScrubs);
}

void
VrHierarchy::contextSwitch(ProcessId new_pid)
{
    (void)new_pid;  // level-1 tags carry no process id
    if (_l1Virtual) {
        // Virtual tags are ambiguous across processes: swap-invalidate
        // everything; dirty blocks write back lazily on replacement.
        for (unsigned i = 0; i < l1Count(); ++i)
            _l1[i]->markAllSwapped();
    }
    // Physical tags (R-R mode) stay valid across switches.
    ++_n[Stat::ContextSwitches];
    emitEvent(EventKind::ContextSwitch, _refIndex);
}

SnoopResult
VrHierarchy::snoopReadMiss(LineRef rref)
{
    SnoopResult res;
    RCache::Line rline = _r.line(rref);
    std::uint32_t line_addr = _r.lineAddr(rref);
    res.sharedAck = true;

    for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
        RSubentry &s = _r.sub(rref, i);
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        if (s.inclusion && s.vdirty) {
            // flush(v-pointer): the V-cache supplies, stays valid clean.
            auto [oc, child] = directoryChild(PhysAddr(sub_addr));
            oc->line(child).meta.dirty = false;
            s.vdirty = false;
            res.suppliedData = true;
            ++_n[Stat::L1CoherenceMsgs];
            ++_n[Stat::L1Flushes];
            ++_n[Stat::MemoryWrites];
            emitEvent(EventKind::L1Flush, _refIndex,
                      oc->lineVAddr(child), sub_addr);
        } else if (s.buffer && s.vdirty) {
            // flush(buffer): the write buffer supplies; entry retires.
            auto e = _wb.remove(sub_addr);
            panicIfNot(e.has_value(), "buffer bit with no buffer entry");
            s.buffer = false;
            s.vdirty = false;
            res.suppliedData = true;
            ++_n[Stat::L1CoherenceMsgs];
            ++_n[Stat::BufferFlushes];
            ++_n[Stat::MemoryWrites];
            emitEvent(EventKind::BufferFlush, _refIndex, 0, sub_addr);
        }
    }
    if (rline.meta.rdirty) {
        rline.meta.rdirty = false;
        res.suppliedData = true;
        ++_n[Stat::MemoryWrites];
    }
    rline.meta.state = CoherenceState::Shared;
    return res;
}

void
VrHierarchy::snoopInvalidate(LineRef rref)
{
    std::uint32_t line_addr = _r.lineAddr(rref);

    for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
        RSubentry &s = _r.sub(rref, i);
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        if (s.inclusion) {
            auto [oc, child] = directoryChild(PhysAddr(sub_addr));
            std::uint32_t child_block = oc->lineVAddr(child);
            oc->invalidate(child);
            s.inclusion = false;
            _dir->unlink(PhysAddr(sub_addr));
            ++_n[Stat::L1CoherenceMsgs];
            ++_n[Stat::L1Invalidations];
            emitEvent(EventKind::L1Invalidation, _refIndex,
                      child_block, sub_addr);
        }
        if (s.buffer) {
            // invalidation(buffer): the parked write-back is obsolete.
            auto e = _wb.remove(sub_addr);
            panicIfNot(e.has_value(), "buffer bit with no buffer entry");
            s.buffer = false;
            ++_n[Stat::L1CoherenceMsgs];
            ++_n[Stat::BufferInvalidations];
            emitEvent(EventKind::BufferInvalidation, _refIndex, 0,
                      sub_addr);
        }
    }
    _r.invalidate(rref);
    _bus.noteBlockUncached(cpuId(), line_addr);
}

SnoopResult
VrHierarchy::snoopUpdate(LineRef rref)
{
    // A foreign write-update: every copy absorbs the new data in
    // place. Memory was updated on the bus, so nothing here is dirty
    // any more; the line stays valid and shared. The R-cache still
    // shields level 1: the update percolates only to an actual child.
    SnoopResult res;
    res.sharedAck = true;
    RCache::Line rline = _r.line(rref);
    rline.meta.state = CoherenceState::Shared;
    rline.meta.rdirty = false;

    for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
        RSubentry &s = _r.sub(rref, i);
        if (s.inclusion) {
            auto [oc, child] =
                directoryChild(PhysAddr(_r.subBlockAddr(rref, i)));
            oc->line(child).meta.dirty = false;
            s.vdirty = false;
            ++_n[Stat::L1CoherenceMsgs];
            ++_n[Stat::L1Updates];
            emitEvent(EventKind::L1Update, _refIndex,
                      oc->lineVAddr(child), _r.lineAddr(rref));
        }
        // A buffered (dirty) copy implies we held the block Private, in
        // which case no foreign writer can exist: nothing to do here.
    }
    return res;
}

SnoopResult
VrHierarchy::snoop(const BusTransaction &tx)
{
    SnoopResult res;
    auto rref = _r.probe(tx.blockAddr);
    ++_n[Stat::Snoops];
    if (!rref) {
        ++_n[Stat::SnoopMisses];
        return res;
    }
    ++_n[Stat::SnoopHits];

    switch (tx.op) {
      case BusOp::ReadMiss:
        res = snoopReadMiss(*rref);
        break;
      case BusOp::Invalidate:
        snoopInvalidate(*rref);
        break;
      case BusOp::ReadModWrite:
        res = snoopReadMiss(*rref);
        snoopInvalidate(*rref);
        res.sharedAck = false;  // nothing survives an invalidation
        break;
      case BusOp::Update:
        res = snoopUpdate(*rref);
        break;
    }
    return res;
}

BlockProbe
VrHierarchy::probeBlock(PhysAddr l2_line) const
{
    BlockProbe p;
    std::uint32_t line_addr = l2Block(l2_line.value());

    auto rref = _r.probe(PhysAddr(line_addr));
    if (rref) {
        const RCache::Line &rl = _r.line(*rref);
        p.l2Present = true;
        p.state = rl.meta.state;
        p.l2Dirty = rl.meta.rdirty;
    }

    // Scan the level-1 caches by physical link, deliberately not by the
    // inclusion pointers: the oracle's job is to cross-check the two.
    std::vector<std::uint32_t> copies(_r.subCount(), 0);
    std::vector<std::uint8_t> sub_dirty(_r.subCount(), 0);
    for (unsigned ci = 0; ci < l1Count(); ++ci) {
        _l1[ci]->tags().forEachLine(
            [&](LineRef, const VCache::Line &l) {
                if (!l.valid ||
                    l2Block(l.meta.physBlockAddr) != line_addr) {
                    return;
                }
                std::uint32_t sub =
                    (l.meta.physBlockAddr - line_addr) /
                    _params.l1.blockBytes;
                copies[sub] += 1;
                p.l1Copies += 1;
                p.anyL1Dirty |= l.meta.dirty;
                sub_dirty[sub] |= l.meta.dirty ? 1 : 0;
            });
    }

    for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        bool parked = _wb.contains(sub_addr);
        p.buffered += parked ? 1 : 0;
        p.maxAliases = std::max(p.maxAliases, copies[i]);

        bool incl = false, buf = false, vdirty = false;
        if (rref) {
            const RSubentry &s = _r.sub(*rref, i);
            incl = s.inclusion;
            buf = s.buffer;
            vdirty = s.vdirty;
        }
        // The directory bits must agree with the physical scan: every
        // level-1 copy needs its inclusion bit, every parked write-back
        // its buffer bit, and vice versa.
        if (incl != (copies[i] > 0) || buf != parked)
            p.linkageOk = false;
        if (buf && !vdirty)
            p.linkageOk = false;
        if (incl && copies[i] == 1 && vdirty != (sub_dirty[i] != 0))
            p.linkageOk = false;
    }
    return p;
}

void
VrHierarchy::forEachCachedLine(
    const std::function<void(PhysAddr)> &fn) const
{
    // Inclusion: the R-cache directory covers every level-1 copy and
    // every parked write-back (buffer bits keep the parent alive), so
    // enumerating the second level enumerates everything we hold.
    _r.tags().forEachLine([&](LineRef ref, const RCache::Line &l) {
        if (l.valid)
            fn(PhysAddr(_r.lineAddr(ref)));
    });
}

void
VrHierarchy::checkInvariants() const
{
    // Level-1 -> level-2 direction: every valid V line has a parent
    // whose inclusion bit is set and a directory link naming exactly
    // this line, whatever the directory organization.
    for (unsigned ci = 0; ci < l1Count(); ++ci) {
        const VCache &vc = *_l1[ci];
        vc.tags().forEachLine([&](LineRef ref, const VCache::Line &l) {
            if (!l.valid)
                return;
            PhysAddr pa(l.meta.physBlockAddr);
            auto rref = _r.probe(pa);
            panicIfNot(rref.has_value(),
                       "inclusion violated: V block with no parent");
            const RSubentry &s = _r.sub(*rref, pa);
            panicIfNot(s.inclusion, "parent inclusion bit clear");
            auto link = _dir->lookup(pa);
            panicIfNot(link.has_value(),
                       "V block with no directory link");
            panicIfNot(link->l1Index == ci,
                       "directory points at the wrong L1");
            panicIfNot(link->childAddrBlock == vc.lineVAddr(ref),
                       "directory names the wrong child");
            panicIfNot(s.vdirty == l.meta.dirty,
                       "vdirty bit out of sync with the child");
            if (l.meta.dirty) {
                panicIfNot(_r.line(*rref).meta.state ==
                               CoherenceState::Private,
                           "dirty child in a non-private line");
            }
        });
    }

    // Level-2 -> level-1 direction, plus buffer-bit consistency.
    _r.tags().forEachLine(
        [&](LineRef rref, const RCache::Line &rl) {
            if (!rl.valid)
                return;
            for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
                const RSubentry &s = _r.sub(rref, i);
                std::uint32_t sub_addr =
                    _r.lineAddr(rref) + i * _params.l1.blockBytes;
                panicIfNot(!(s.inclusion && s.buffer),
                           "block both in V-cache and write buffer");
                if (s.inclusion) {
                    auto link = _dir->lookup(PhysAddr(sub_addr));
                    panicIfNot(link.has_value(),
                               "inclusion bit with no directory link");
                    const VCache &oc = *_l1[link->l1Index];
                    auto child = oc.findOccupied(link->childAddrBlock);
                    panicIfNot(child.has_value(),
                               "inclusion bit with no child");
                    panicIfNot(oc.line(*child).meta.physBlockAddr ==
                                   sub_addr,
                               "child links to a different block");
                }
                if (s.buffer) {
                    panicIfNot(_wb.contains(sub_addr),
                               "buffer bit with no write-buffer entry");
                    panicIfNot(s.vdirty,
                               "buffered block must be marked vdirty");
                }
            }
        });

    // Directory -> hierarchy direction: every live link points at a
    // present parent subentry with its inclusion bit set and at an
    // occupied level-1 line holding that block (a bounded directory
    // must never retain links for departed children).
    _dir->forEachLink([&](PhysAddr pa, const SynonymChild &child) {
        auto rref = _r.probe(pa);
        panicIfNot(rref.has_value(), "directory link with no parent");
        panicIfNot(_r.sub(*rref, pa).inclusion,
                   "directory link without an inclusion bit");
        const VCache &oc = *_l1[child.l1Index];
        auto ref = oc.findOccupied(child.childAddrBlock);
        panicIfNot(ref.has_value(), "directory link with no child");
        panicIfNot(oc.line(*ref).meta.physBlockAddr == pa.value(),
                   "directory link to a child of a different block");
    });

    // Organization-specific invariants (architected pointer-bit
    // reconstruction for the paper's scheme; set-uniqueness for the
    // reverse-lookup table).
    _dir->checkInvariants();
}

} // namespace vrc
