#include "core/vr_hierarchy.hh"

#include <algorithm>
#include <vector>

#include "base/bitops.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "core/mutation.hh"
#include "vm/addr_space.hh"

namespace vrc
{

VrHierarchy::VrHierarchy(const HierarchyParams &params,
                         AddressSpaceManager &spaces, SharedBus &bus,
                         bool l1_virtual, SynonymOrg synonym_org)
    : _params(params), _spaces(spaces), _bus(bus), _l1Virtual(l1_virtual),
      _r(params.l2, params.l1.blockBytes, 0x2ca1e, &_arena),
      _wb(params.writeBufferDepth, params.writeBufferDrainLatency),
      _tlb(params.tlbEntries, params.tlbAssoc)
{
    CacheParams l1 = params.l1;
    if (params.splitL1) {
        panicIfNot(l1.sizeBytes >= 2 * l1.blockBytes,
                   "split level-1 cache too small");
        l1.sizeBytes /= 2;  // equal I and D halves, as in the paper
        _l1[0] = std::make_unique<VCache>(l1, 0xdada, &_arena);
        _l1[1] = std::make_unique<VCache>(l1, 0x1f1f, &_arena);
    } else {
        _l1[0] = std::make_unique<VCache>(l1, 0xdada, &_arena);
    }
    _dir = makeSynonymDirectory(synonym_org, params, _l1, l1Count(), _r);
    _backInvalidate = [this](PhysAddr pa, const SynonymChild &child) {
        backInvalidateChild(pa, child);
    };
    // Virtual level-1 tags translate behind the cache (no per-access
    // translation cost); physical tags (R-R mode) pay the slowdown.
    for (auto &vc : _l1) {
        if (vc)
            vc->setTranslationFree(l1_virtual);
    }

    _wb.setDrainHandler(
        [this](const WriteBufferEntry &e) { onWriteBufferDrain(e); });

    StatGroup &sg = stats();
    _c.writebackCompletions = &sg.handle("writeback_completions");
    _c.wbStalls = &sg.handle("wb_stalls");
    _c.writebacks = &sg.handle("writebacks");
    _c.swappedWritebacks = &sg.handle("swapped_writebacks");
    _c.synonymSameset = &sg.handle("synonym_sameset");
    _c.synonymMoves = &sg.handle("synonym_moves");
    _c.synonymHits = &sg.handle("synonym_hits");
    _c.synonymFromBuffer = &sg.handle("synonym_from_buffer");
    _c.writebackCancels = &sg.handle("writeback_cancels");
    _c.l2Hits = &sg.handle("l2_hits");
    _c.invalidationsSent = &sg.handle("invalidations_sent");
    _c.updatesSent = &sg.handle("updates_sent");
    _c.memoryWrites = &sg.handle("memory_writes");
    _c.misses = &sg.handle("misses");
    _c.fillsFromCache = &sg.handle("fills_from_cache");
    _c.fillsFromMemory = &sg.handle("fills_from_memory");
    _c.inclusionInvalidations = &sg.handle("inclusion_invalidations");
    _c.l1CoherenceMsgs = &sg.handle("l1_coherence_msgs");
    _c.forcedRReplacements = &sg.handle("forced_r_replacements");
    _c.contextSwitches = &sg.handle("context_switches");
    _c.snoops = &sg.handle("snoops");
    _c.snoopMisses = &sg.handle("snoop_misses");
    _c.snoopHits = &sg.handle("snoop_hits");
    _c.l1Flushes = &sg.handle("l1_flushes");
    _c.bufferFlushes = &sg.handle("buffer_flushes");
    _c.l1Invalidations = &sg.handle("l1_invalidations");
    _c.bufferInvalidations = &sg.handle("buffer_invalidations");
    _c.l1Updates = &sg.handle("l1_updates");
    _c.tlbShootdowns = &sg.handle("tlb_shootdowns");
    if (synonym_org == SynonymOrg::ReverseLookup) {
        _c.rltConflictInvalidations =
            &sg.handle("rlt_conflict_invalidations");
    }

    // The R-cache directory covers everything this hierarchy can snoop
    // on (inclusion holds for both V-R and R-R modes), so the bus may
    // skip us whenever our presence bit is clear.
    setCpuId(bus.attach(
        this, SnoopAgentInfo{true, _c.snoops, _c.snoopMisses}));
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
    (*_c.writebackCompletions)++;
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
            (*_c.wbStalls)++;
        (*_c.writebacks)++;
        emitEvent(EventKind::WritebackParked, _refIndex, 0,
                  victim.meta.physBlockAddr);
        if (victim.meta.swappedValid) {
            (*_c.swappedWritebacks)++;
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
    (*_c.rltConflictInvalidations)++;
    (*_c.l1CoherenceMsgs)++;
    emitEvent(EventKind::RltConflictInvalidation, _refIndex,
              child.childAddrBlock, pa.value());
}

AccessOutcome
VrHierarchy::access(const MemAccess &acc)
{
    ++_refIndex;
    _wb.tick(_refIndex);
    noteRef(acc.type);
    if (softErrorsArmed())
        maybeInjectSoftErrors();

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
            if (resolveWriteCoherence(_r.line(*rref), block)) {
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

PhysAddr
VrHierarchy::translate(const MemAccess &acc)
{
    Ppn ppn = _tlb.translate(acc.pid, acc.va.vpn(_params.pageSize),
                             _spaces);
    return makePhysAddr(ppn, acc.va.pageOffset(_params.pageSize),
                        _params.pageSize);
}

bool
VrHierarchy::resolveWriteCoherence(RCache::Line rline, PhysAddr pa)
{
    if (rline.meta.state != CoherenceState::Shared) {
        // Exclusive: silent upgrade, the write stays local and dirty.
        rline.meta.state = CoherenceState::Private;
        return true;
    }
    if (_params.protocol == CoherencePolicy::WriteInvalidate) {
        _bus.broadcast(BusTransaction{
            BusOp::Invalidate, PhysAddr(l2Block(pa.value())), cpuId()});
        (*_c.invalidationsSent)++;
        rline.meta.state = CoherenceState::Private;
        return true;
    }
    // Write-update: broadcast the new data; every copy (and memory)
    // absorbs it, so our block stays clean. If nobody acknowledged
    // sharing, downgrade to Private so later writes stay local
    // (Firefly's shared-line optimization).
    BusResult br = _bus.broadcast(BusTransaction{
        BusOp::Update, PhysAddr(l2Block(pa.value())), cpuId()});
    (*_c.updatesSent)++;
    (*_c.memoryWrites)++;  // bus write-through
    rline.meta.state =
        br.shared ? CoherenceState::Shared : CoherenceState::Private;
    return false;
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
            (*_c.synonymSameset)++;
            emitEvent(EventKind::SynonymSameset, _refIndex,
                      l1_key.value(), pa.value());
        } else {
            // move: relocate the block into the new slot.
            bool was_dirty = oc.line(*child).meta.dirty;
            oc.invalidate(*child);
            vc.install(slot, l1_key, pa.value(), was_dirty);
            (*_c.synonymMoves)++;
            emitEvent(EventKind::SynonymMove, _refIndex,
                      l1_key.value(), pa.value());
        }
        // Retarget the existing link in place (same physical block, so
        // a bounded directory can never take a conflict here).
        _dir->link(pa, ci, va_block, _backInvalidate);
        (*_c.synonymHits)++;
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
        (*_c.writebackCancels)++;
        emitEvent(EventKind::WritebackCancel, _refIndex,
                  l1_key.value(), pa.value());
        (*_c.synonymHits)++;
        (*_c.synonymFromBuffer)++;
        outcome = AccessOutcome::SynonymHit;
    } else {
        // Plain second-level hit: data supply to the V-cache.
        vc.install(slot, l1_key, pa.value(), false);
        s.inclusion = !mutationFlags().dropInclusionUpdate;
        _dir->link(pa, ci, va_block, _backInvalidate);
        s.vdirty = false;
        (*_c.l2Hits)++;
        emitEvent(EventKind::L2Hit, _refIndex, l1_key.value(),
                  pa.value());
        outcome = AccessOutcome::L2Hit;
    }

    if (type == RefType::Write) {
        if (resolveWriteCoherence(rline, pa)) {
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

    bool is_write = type == RefType::Write;
    bool update_protocol =
        _params.protocol == CoherencePolicy::WriteUpdate;

    // Write misses: invalidation protocols fetch with intent to modify;
    // update protocols fetch normally and then broadcast the new data
    // if anyone else holds the block.
    BusOp op = (is_write && !update_protocol) ? BusOp::ReadModWrite
                                              : BusOp::ReadMiss;
    BusResult br =
        _bus.broadcast(BusTransaction{op, pa_line, cpuId()});
    (*_c.misses)++;
    if (br.suppliedByCache)
        (*_c.fillsFromCache)++;
    else
        (*_c.fillsFromMemory)++;

    CoherenceState st;
    bool dirty = is_write;
    if (is_write && !update_protocol) {
        st = CoherenceState::Private;  // read-modified-write: exclusive
    } else {
        st = br.shared ? CoherenceState::Shared : CoherenceState::Private;
        if (is_write && br.shared) {
            // Propagate the write to the other copies and memory.
            _bus.broadcast(
                BusTransaction{BusOp::Update, pa_line, cpuId()});
            (*_c.updatesSent)++;
            (*_c.memoryWrites)++;
            dirty = false;
        }
    }

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
            (*_c.inclusionInvalidations)++;
            (*_c.l1CoherenceMsgs)++;
            emitEvent(EventKind::InclusionInvalidation, _refIndex,
                      link->childAddrBlock, sub_addr);
            panicIfNot(forced,
                       "children evicted on a non-forced replacement");
        }
        s.vdirty = false;
    }
    if (dirty_data)
        (*_c.memoryWrites)++;
    emitEvent(EventKind::L2Evict, _refIndex, 0, line_addr);
    _r.invalidate(rslot);
    _bus.noteBlockUncached(cpuId(), line_addr);
    if (forced)
        (*_c.forcedRReplacements)++;
}

// ===== soft-error strikes and recovery ==============================
//
// The model is state-preserving: a strike corrupts *array bits*, not
// the data the simulator tracks, and every successful recovery refetches
// bit-identical content -- so with strikes confined to recoverable
// sites, all architectural statistics stay equal to an unarmed run and
// only the soft_* counters, the recovery events and the real extra bus
// transactions differ. That is also what makes the coherence oracle's
// job tractable: post-recovery state *is* pre-fault state.

void
VrHierarchy::maybeInjectSoftErrors()
{
    const SoftErrorConfig &sc = softErrorConfig();
    const std::uint64_t cpu = cpuId();
    if (softErrorDecision("l1-tag", cpu, _refIndex, sc.tag)) {
        strikeL1("soft_faults_tag",
                 softErrorHash("l1-tag-cell", cpu, _refIndex));
    }
    if (softErrorDecision("l2-state", cpu, _refIndex, sc.state)) {
        strikeL2("soft_faults_state",
                 softErrorHash("l2-state-cell", cpu, _refIndex));
    }
    if (softErrorDecision("meta-ptr", cpu, _refIndex, sc.ptr)) {
        // Pointer metadata lives on both sides of the hierarchy: the
        // V-cache r-pointer array or an R-cache subentry (v-pointer,
        // inclusion bits), chosen by one more hash bit.
        std::uint64_t h = softErrorHash("meta-ptr-cell", cpu, _refIndex);
        if (h & 1)
            strikeL1("soft_faults_ptr", h >> 1);
        else
            strikeL2("soft_faults_ptr", h >> 1);
    }
}

void
VrHierarchy::strikeL1(const char *ctr, std::uint64_t h)
{
    unsigned ci = static_cast<unsigned>((h >> 7) % l1Count());
    VCache &vc = *_l1[ci];
    LineRef ref = vc.faultTarget(h >> 9);
    softCounter(ctr)++;
    VCache::Line l = vc.line(ref);
    if (!l.valid) {
        // The struck cell holds no line: architecturally masked.
        softCounter("soft_masked")++;
        return;
    }
    switch (vc.tags().absorbFault(softErrorFlips(h))) {
      case FaultOutcome::Silent:
        softCounter("soft_silent")++;
        return;
      case FaultOutcome::Corrected:
        softCounter("soft_corrected")++;
        emitEvent(EventKind::FaultCorrected, _refIndex,
                  vc.lineVAddr(ref), l.meta.physBlockAddr);
        return;
      case FaultOutcome::Detected:
        break;
    }
    softCounter("soft_detected")++;
    emitEvent(EventKind::FaultDetected, _refIndex, vc.lineVAddr(ref),
              l.meta.physBlockAddr);
    if (l.meta.dirty)
        machineCheckV(ci, ref);
    recoverVLine(ci, ref);
}

void
VrHierarchy::strikeL2(const char *ctr, std::uint64_t h)
{
    LineRef rref = _r.faultTarget(h >> 9);
    softCounter(ctr)++;
    RCache::Line rl = _r.line(rref);
    if (!rl.valid) {
        softCounter("soft_masked")++;
        return;
    }
    std::uint32_t line_addr = _r.lineAddr(rref);
    switch (_r.tags().absorbFault(softErrorFlips(h))) {
      case FaultOutcome::Silent:
        softCounter("soft_silent")++;
        return;
      case FaultOutcome::Corrected:
        softCounter("soft_corrected")++;
        emitEvent(EventKind::FaultCorrected, _refIndex, 0, line_addr);
        return;
      case FaultOutcome::Detected:
        break;
    }
    softCounter("soft_detected")++;
    emitEvent(EventKind::FaultDetected, _refIndex, 0, line_addr);

    bool dirty_below = rl.meta.rdirty;
    for (std::uint32_t i = 0; i < _r.subCount(); ++i)
        dirty_below |= _r.sub(rref, i).vdirty;
    if (dirty_below)
        machineCheckR(rref);
    recoverRLine(rref);
}

void
VrHierarchy::recoverVLine(unsigned ci, LineRef ref)
{
    // Inclusion guarantees the line has an R-cache parent, and the
    // r-pointer (plus the page offset) addresses it without translating:
    // hardware invalidates the corrupt line and refetches it from the
    // parent. The refetched bits are identical to what the strike hit,
    // so architectural state is unchanged -- the cost is one extra
    // level-2 access, no bus traffic. This is the cheap-recovery story
    // inclusion buys the V-R design.
    VCache &vc = *_l1[ci];
    VCache::Line l = vc.line(ref);
    PhysAddr pa(l.meta.physBlockAddr);
    auto rref = _r.probe(pa);
    panicIfNot(rref.has_value(),
               "detected-corrupt V line has no R-cache parent");
    softCounter("soft_recovered")++;
    softCounter("soft_refetches_l2")++;
    emitEvent(EventKind::FaultCorrected, _refIndex, vc.lineVAddr(ref),
              pa.value());
}

void
VrHierarchy::recoverRLine(LineRef rref)
{
    // Nothing below the line is dirty, so memory holds current data:
    // refetch the same physical line over the bus. Clean level-1
    // children hold identical content and survive; the directory
    // subentries are rebuilt by walking the children's reverse links.
    // The snoop-filter presence bits were derived from the now-suspect
    // directory, so they are scrubbed and rebuilt too.
    std::uint32_t line_addr = _r.lineAddr(rref);
    softCounter("soft_recovered")++;
    softCounter("soft_refetches_bus")++;
    _bus.broadcast(
        BusTransaction{BusOp::ReadMiss, PhysAddr(line_addr), cpuId()});
    rebuildPresence();
    emitEvent(EventKind::FaultCorrected, _refIndex, 0, line_addr);
}

void
VrHierarchy::machineCheckV(unsigned ci, LineRef ref)
{
    // A dirty line with uncorrectable array bits: the only current copy
    // of the data is lost. Unlink it so the machine state the campaign
    // quarantines (or the fuzzer keeps driving) is still coherent.
    VCache &vc = *_l1[ci];
    VCache::Line l = vc.line(ref);
    PhysAddr pa(l.meta.physBlockAddr);
    auto rref = _r.probe(pa);
    panicIfNot(rref.has_value(), "machine-checked V line has no parent");
    RSubentry &s = _r.sub(*rref, pa);
    s.inclusion = false;
    s.vdirty = false;
    _dir->unlink(pa);
    vc.tags().noteUncorrectable();
    vc.invalidate(ref);
    softCounter("machine_checks")++;
    emitEvent(EventKind::FaultUnrecoverable, _refIndex, 0, pa.value());
    throw FaultUnrecoverable(
        "uncorrectable soft error in a dirty level-1 line");
}

void
VrHierarchy::machineCheckR(LineRef rref)
{
    // The line shields dirty data (its own or a child's) behind array
    // bits that can no longer be trusted: writing any of it back would
    // propagate corruption, so the whole line and its children are
    // dropped and the loss reported.
    std::uint32_t line_addr = _r.lineAddr(rref);
    for (std::uint32_t i = 0; i < _r.subCount(); ++i) {
        RSubentry &s = _r.sub(rref, i);
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        if (s.buffer) {
            auto e = _wb.remove(sub_addr);
            panicIfNot(e.has_value(), "buffer bit with no buffer entry");
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
    _r.tags().noteUncorrectable();
    _r.invalidate(rref);
    _bus.noteBlockUncached(cpuId(), line_addr);
    softCounter("machine_checks")++;
    emitEvent(EventKind::FaultUnrecoverable, _refIndex, 0, line_addr);
    throw FaultUnrecoverable(
        "uncorrectable soft error in a level-2 line covering dirty data");
}

void
VrHierarchy::rebuildPresence()
{
    _bus.clearPresence(cpuId());
    _r.tags().forEachLine([&](LineRef ref, const RCache::Line &l) {
        if (l.valid)
            _bus.noteBlockCached(cpuId(), _r.lineAddr(ref));
    });
    softCounter("presence_scrubs")++;
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
    (*_c.contextSwitches)++;
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
            (*_c.l1CoherenceMsgs)++;
            (*_c.l1Flushes)++;
            (*_c.memoryWrites)++;
            emitEvent(EventKind::L1Flush, _refIndex,
                      oc->lineVAddr(child), sub_addr);
        } else if (s.buffer && s.vdirty) {
            // flush(buffer): the write buffer supplies; entry retires.
            auto e = _wb.remove(sub_addr);
            panicIfNot(e.has_value(), "buffer bit with no buffer entry");
            s.buffer = false;
            s.vdirty = false;
            res.suppliedData = true;
            (*_c.l1CoherenceMsgs)++;
            (*_c.bufferFlushes)++;
            (*_c.memoryWrites)++;
            emitEvent(EventKind::BufferFlush, _refIndex, 0, sub_addr);
        }
    }
    if (rline.meta.rdirty) {
        rline.meta.rdirty = false;
        res.suppliedData = true;
        (*_c.memoryWrites)++;
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
            (*_c.l1CoherenceMsgs)++;
            (*_c.l1Invalidations)++;
            emitEvent(EventKind::L1Invalidation, _refIndex,
                      child_block, sub_addr);
        }
        if (s.buffer) {
            // invalidation(buffer): the parked write-back is obsolete.
            auto e = _wb.remove(sub_addr);
            panicIfNot(e.has_value(), "buffer bit with no buffer entry");
            s.buffer = false;
            (*_c.l1CoherenceMsgs)++;
            (*_c.bufferInvalidations)++;
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
            (*_c.l1CoherenceMsgs)++;
            (*_c.l1Updates)++;
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
    (*_c.snoops)++;
    if (!rref) {
        (*_c.snoopMisses)++;
        return res;
    }
    (*_c.snoopHits)++;

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
