#include "core/rr_hierarchy.hh"

#include <algorithm>

#include "base/log.hh"

namespace vrc
{

RrNoInclHierarchy::RrNoInclHierarchy(const HierarchyParams &params,
                                     AddressSpaceManager &spaces,
                                     SharedBus &bus)
    : CacheHierarchy(params, spaces, bus, false,
                     HierarchyStats::Every | HierarchyStats::NoInclusion,
                     arenaBytes(params)),
      _l2(params.l2.geometry(), params.l2.policy, 0xbeef, &_arena)
{
    const CacheParams l1 = l1CacheParams(params);
    for (unsigned i = 0; i < l1Count(); ++i) {
        _l1[i] = std::make_unique<L1Store>(l1.geometry(), l1.policy,
                                           i ? 0xbbbb : 0xaaaa, &_arena);
        _l1[i]->setProtection(l1.protection);
    }
    _l2.setProtection(params.l2.protection);
    _wb.setDrainHandler(
        [this](const WriteBufferEntry &e) { onWriteBufferDrain(e); });

    // Without inclusion the second level cannot prove what the first
    // level holds, so this hierarchy must see every bus transaction:
    // attach unfilterable (this is the paper's disturbance baseline).
    setCpuId(bus.attach(this));
}

std::size_t
RrNoInclHierarchy::arenaBytes(const HierarchyParams &params)
{
    const CacheParams l1 = l1CacheParams(params);
    return l1Count(params) * L1Store::footprint(l1.geometry(), l1.policy) +
           L2Store::footprint(params.l2.geometry(), params.l2.policy);
}

void
RrNoInclHierarchy::onWriteBufferDrain(const WriteBufferEntry &entry)
{
    // Without inclusion the level-2 cache may or may not still hold the
    // line; absorb the data there if it does, else write memory.
    if (auto l2ref = _l2.find(entry.physBlockAddr)) {
        _l2.line(*l2ref).meta.rdirty = true;
        ++_n[Stat::WritebackCompletions];
    } else {
        ++_n[Stat::MemoryWrites];
        ++_n[Stat::WritebacksBypassingL2];
    }
}

// ===== soft-error recovery (the strike path is CacheHierarchy's) =====

void
RrNoInclHierarchy::strikeL1(unsigned ci, Stat site, std::uint64_t h)
{
    L1Store &store = *_l1[ci];
    LineRef ref = faultTarget(store, h);
    std::uint32_t block_addr = store.lineAddr(ref);
    if (!strikeDetected(store, ref, site, h, block_addr, block_addr))
        return;
    if (store.line(ref).meta.dirty) {
        // No inclusion parent: the dirty data existed nowhere else.
        machineCheck(store, ref, block_addr,
                     "uncorrectable soft error in a dirty level-1 line "
                     "(no inclusion parent)");
    }
    // Clean: level 2 *may* still hold the line -- nothing guarantees
    // it. Probe; on absence pay a full bus refetch.
    refetchStruck(!_l2.find(block_addr), block_addr, block_addr);
}

void
RrNoInclHierarchy::strikeL2(Stat site, std::uint64_t h)
{
    LineRef ref = faultTarget(_l2, h);
    std::uint32_t line_addr = _l2.lineAddr(ref);
    if (!strikeDetected(_l2, ref, site, h, 0, line_addr))
        return;
    if (_l2.line(ref).meta.rdirty) {
        machineCheck(_l2, ref, line_addr,
                     "uncorrectable soft error in a dirty level-2 line");
    }
    refetchStruck(true, 0, line_addr);
}

AccessOutcome
RrNoInclHierarchy::access(const MemAccess &acc)
{
    beginRef(acc.type);

    PhysAddr pa = translate(acc);
    std::uint32_t pa_block = l1Block(pa.value());
    unsigned ci = l1IndexFor(acc.type);
    L1Store &store = *_l1[ci];

    // 1. Level-1 lookup (physical).
    if (auto hit = store.find(pa_block)) {
        store.touch(*hit);
        L1Store::Line l = store.line(*hit);
        if (acc.type == RefType::Write && !l.meta.dirty) {
            l.meta.dirty = writeCoherence(pa, l.meta.state);
            // Keep the level-2 state consistent when it has the line.
            if (auto l2ref = _l2.find(pa_block))
                _l2.line(*l2ref).meta.state = l.meta.state;
        }
        noteL1Hit(acc.type);
        return AccessOutcome::L1Hit;
    }

    // 2. Level-1 miss: replace, parking a dirty victim.
    LineRef slot = store.victim(pa_block);
    L1Store::Line victim = store.line(slot);
    if (victim.valid && victim.meta.dirty) {
        if (_wb.push(store.lineAddr(slot), _refIndex))
            ++_n[Stat::WbStalls];
        ++_n[Stat::Writebacks];
        noteWriteBack(_refIndex);
    }
    store.invalidate(slot);

    // 2a. The block may be sitting in our own write buffer.
    if (auto pulled = _wb.remove(pa_block)) {
        L1Store::Line l = store.fill(slot, pa_block);
        l.meta.dirty = true;
        l.meta.state = CoherenceState::Private;
        ++_n[Stat::WritebackCancels];
        ++_n[Stat::L2Hits];
        ++_n[Stat::BufferPullbacks];
        return AccessOutcome::L2Hit;
    }

    // 3. Level-2 lookup.
    if (auto l2ref = _l2.find(pa_block)) {
        _l2.touch(*l2ref);
        L2Store::Line l2l = _l2.line(*l2ref);
        bool dirty = acc.type == RefType::Write &&
            writeCoherence(pa, l2l.meta.state);
        L1Store::Line l = store.fill(slot, pa_block);
        l.meta.dirty = dirty;
        l.meta.state = l2l.meta.state;
        ++_n[Stat::L2Hits];
        return AccessOutcome::L2Hit;
    }

    // 4. Miss in both levels: bus transaction and fills.
    std::uint32_t line_addr = l2Block(pa.value());
    LineRef l2slot = _l2.victim(line_addr);
    L2Store::Line l2victim = _l2.line(l2slot);
    if (l2victim.valid) {
        if (l2victim.meta.rdirty)
            ++_n[Stat::MemoryWrites];
        emitEvent(EventKind::L2Evict, _refIndex, 0,
                  _l2.lineAddr(l2slot));
    }
    _l2.invalidate(l2slot);

    CoherenceState st;
    bool dirty = busFill(acc.type, PhysAddr(line_addr), st);

    L2Store::Line l2l = _l2.fill(l2slot, line_addr);
    l2l.meta.state = st;
    l2l.meta.rdirty = false;

    L1Store::Line l = store.fill(slot, pa_block);
    l.meta.dirty = dirty;
    l.meta.state = st;
    return AccessOutcome::Miss;
}

void
RrNoInclHierarchy::contextSwitch(ProcessId new_pid)
{
    (void)new_pid;  // physical tags survive context switches
    ++_n[Stat::ContextSwitches];
}

SnoopResult
RrNoInclHierarchy::snoop(const BusTransaction &tx)
{
    SnoopResult res;
    std::uint32_t line_addr = l2Block(tx.blockAddr.value());
    std::uint32_t sub_count = _params.subBlocks();

    // Without inclusion every foreign transaction disturbs level 1:
    // the level-2 directory cannot prove absence.
    ++_n[Stat::L1CoherenceMsgs];
    ++_n[Stat::L1Probes];

    if (tx.op == BusOp::Update) {
        // Foreign write-update: refresh every copy in place; memory was
        // updated on the bus so nothing stays dirty.
        for (std::uint32_t i = 0; i < sub_count; ++i) {
            std::uint32_t sub_addr =
                line_addr + i * _params.l1.blockBytes;
            for (unsigned ci = 0; ci < l1Count(); ++ci) {
                if (auto hit = _l1[ci]->find(sub_addr)) {
                    L1Store::Line l = _l1[ci]->line(*hit);
                    l.meta.dirty = false;
                    l.meta.state = CoherenceState::Shared;
                    res.sharedAck = true;
                    ++_n[Stat::L1Updates];
                }
            }
        }
        if (auto l2ref = _l2.find(line_addr)) {
            L2Store::Line l2l = _l2.line(*l2ref);
            l2l.meta.rdirty = false;
            l2l.meta.state = CoherenceState::Shared;
            res.sharedAck = true;
        }
        return res;
    }

    bool read_part = tx.op != BusOp::Invalidate;
    bool inval_part = tx.op != BusOp::ReadMiss;

    for (std::uint32_t i = 0; i < sub_count; ++i) {
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        for (unsigned ci = 0; ci < l1Count(); ++ci) {
            auto hit = _l1[ci]->find(sub_addr);
            if (!hit)
                continue;
            L1Store::Line l = _l1[ci]->line(*hit);
            if (read_part) {
                res.sharedAck = true;
                if (l.meta.dirty) {
                    // Flush: supply the block and clean the copy.
                    l.meta.dirty = false;
                    res.suppliedData = true;
                    ++_n[Stat::L1Flushes];
                    ++_n[Stat::MemoryWrites];
                }
                l.meta.state = CoherenceState::Shared;
            }
            if (inval_part) {
                _l1[ci]->invalidate(*hit);
                ++_n[Stat::L1Invalidations];
            }
        }
        // The write buffer snoops too.
        if (read_part && _wb.contains(sub_addr)) {
            _wb.remove(sub_addr);
            res.suppliedData = true;
            ++_n[Stat::BufferFlushes];
            ++_n[Stat::MemoryWrites];
        } else if (inval_part && _wb.contains(sub_addr)) {
            _wb.remove(sub_addr);
            ++_n[Stat::BufferInvalidations];
        }
    }

    // Level 2 snoops independently.
    if (auto l2ref = _l2.find(line_addr)) {
        L2Store::Line l2l = _l2.line(*l2ref);
        if (read_part) {
            res.sharedAck = true;
            if (l2l.meta.rdirty) {
                l2l.meta.rdirty = false;
                res.suppliedData = true;
                ++_n[Stat::MemoryWrites];
            }
            l2l.meta.state = CoherenceState::Shared;
        }
        if (inval_part)
            _l2.invalidate(*l2ref);
    }
    if (inval_part)
        res.sharedAck = false;
    return res;
}

BlockProbe
RrNoInclHierarchy::probeBlock(PhysAddr l2_line) const
{
    BlockProbe p;
    std::uint32_t line_addr = l2Block(l2_line.value());

    if (auto l2ref = _l2.find(line_addr)) {
        const L2Store::Line l = _l2.line(*l2ref);
        p.l2Present = true;
        p.state = l.meta.state;
        p.l2Dirty = l.meta.rdirty;
    }

    bool any_private = false;
    for (std::uint32_t i = 0; i < _params.subBlocks(); ++i) {
        std::uint32_t sub_addr = line_addr + i * _params.l1.blockBytes;
        std::uint32_t copies = 0;
        for (unsigned ci = 0; ci < l1Count(); ++ci) {
            auto hit = _l1[ci]->find(sub_addr);
            if (!hit)
                continue;
            const L1Store::Line l = _l1[ci]->line(*hit);
            copies += 1;
            p.l1Copies += 1;
            p.anyL1Dirty |= l.meta.dirty;
            any_private |= l.meta.state == CoherenceState::Private;
        }
        p.maxAliases = std::max(p.maxAliases, copies);
        if (_wb.contains(sub_addr))
            p.buffered += 1;
    }

    // Without inclusion each level keeps its own state; report the
    // strongest claim any copy makes (a parked dirty write-back implies
    // exclusive ownership too -- nothing else could have written it).
    if (any_private || p.state == CoherenceState::Private ||
        p.buffered > 0) {
        p.state = CoherenceState::Private;
    } else if (p.state == CoherenceState::Invalid && p.l1Copies > 0) {
        p.state = CoherenceState::Shared;
    }
    return p;
}

void
RrNoInclHierarchy::forEachCachedLine(
    const std::function<void(PhysAddr)> &fn) const
{
    // No inclusion: each structure must be enumerated separately.
    _l2.forEachLine([&](LineRef ref, const L2Store::Line &l) {
        if (l.valid)
            fn(PhysAddr(_l2.lineAddr(ref)));
    });
    for (unsigned ci = 0; ci < l1Count(); ++ci) {
        _l1[ci]->forEachLine([&](LineRef ref, const L1Store::Line &l) {
            if (l.valid)
                fn(PhysAddr(l2Block(_l1[ci]->lineAddr(ref))));
        });
    }
    _wb.forEachEntry([&](const WriteBufferEntry &e) {
        fn(PhysAddr(l2Block(e.physBlockAddr)));
    });
}

void
RrNoInclHierarchy::checkInvariants() const
{
    for (unsigned ci = 0; ci < l1Count(); ++ci) {
        _l1[ci]->forEachLine([&](LineRef ref, const L1Store::Line &l) {
            if (!l.valid)
                return;
            panicIfNot(l.meta.state != CoherenceState::Invalid,
                       "valid L1 line with invalid coherence state");
            if (l.meta.dirty) {
                panicIfNot(l.meta.state == CoherenceState::Private,
                           "dirty L1 line must be private");
            }
            // A block is never both live in this L1 and parked in the
            // write buffer (pull-back removes the parked entry first).
            // Exception: with split I/D halves and no inclusion
            // tracking, code that is also written (self-modifying, or
            // adversarial synthetic soup) can sit stale in the I-half
            // while the D-half's dirty copy is parked -- real split
            // non-inclusive machines have the same incoherence, which
            // is why the paper assumes no self-modifying code.
            if (!_params.splitL1) {
                panicIfNot(!_wb.contains(_l1[ci]->lineAddr(ref)),
                           "block both in L1 and in the write buffer");
            }
        });
    }
    _l2.forEachLine([&](LineRef, const L2Store::Line &l) {
        if (!l.valid)
            return;
        panicIfNot(l.meta.state != CoherenceState::Invalid,
                   "valid L2 line with invalid coherence state");
    });
}

} // namespace vrc
