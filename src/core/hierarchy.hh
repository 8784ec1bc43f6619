/**
 * @file
 * Abstract interface of a per-processor two-level cache hierarchy, and
 * the skeleton its two implementations share.
 *
 * Both the paper's virtual-real hierarchy and the real-real baselines
 * implement this interface, so the multiprocessor simulator and the
 * experiments treat them uniformly. A hierarchy is also a bus Snooper.
 * The base class owns what every organization has: the parameters, the
 * write buffer and TLB, the per-CPU arena, the per-reference prologue,
 * the bus-side coherence helpers, the shared counters and the
 * soft-error strike path.
 */

#ifndef VRC_CORE_HIERARCHY_HH
#define VRC_CORE_HIERARCHY_HH

#include <algorithm>
#include <cstdint>
#include <functional>

#include "base/addr.hh"
#include "base/arena.hh"
#include "base/counter.hh"
#include "base/fault.hh"
#include "base/histogram.hh"
#include "base/types.hh"
#include "cache/tag_store.hh"
#include "cache/write_buffer.hh"
#include "coherence/bus.hh"
#include "coherence/protocol.hh"
#include "coherence/snoop.hh"
#include "core/clock.hh"
#include "core/config.hh"
#include "core/events.hh"
#include "core/timing.hh"
#include "trace/record.hh"
#include "vm/tlb.hh"

namespace vrc
{

class AddressSpaceManager;

/** One processor-side memory access. */
struct MemAccess
{
    RefType type = RefType::Read;
    VirtAddr va;
    ProcessId pid = 0;
};

/** Where an access was satisfied. */
enum class AccessOutcome : std::uint8_t
{
    L1Hit,      ///< hit in the level-1 cache
    L2Hit,      ///< missed level 1, hit level 2 (no synonym involved)
    SynonymHit, ///< missed level 1, level 2 found the block elsewhere in
                ///< level 1 (cost == L2Hit per the paper)
    Miss        ///< missed both levels; went to the bus
};

/** Printable outcome name. */
inline const char *
accessOutcomeName(AccessOutcome o)
{
    switch (o) {
      case AccessOutcome::L1Hit:
        return "l1-hit";
      case AccessOutcome::L2Hit:
        return "l2-hit";
      case AccessOutcome::SynonymHit:
        return "synonym-hit";
      case AccessOutcome::Miss:
        return "miss";
    }
    return "?";
}

/**
 * Snapshot of everything one hierarchy holds of a single second-level
 * line, gathered by probeBlock() for the external coherence oracle
 * (src/check). Read-only and side-effect free: probing never touches
 * replacement state or statistics.
 */
struct BlockProbe
{
    bool l2Present = false; ///< line resident in the second level
    CoherenceState state = CoherenceState::Invalid; ///< coherence state
    bool l2Dirty = false;   ///< second-level copy is dirty
    std::uint32_t l1Copies = 0; ///< level-1 copies over all sub-blocks
    std::uint32_t maxAliases = 0; ///< most L1 copies of any one sub-block
    std::uint32_t buffered = 0; ///< sub-blocks parked in the write buffer
    bool anyL1Dirty = false;    ///< some level-1 copy is dirty
    bool linkageOk = true;      ///< pointer/inclusion bookkeeping agrees

    /** The hierarchy holds the line in any form. */
    bool holdsAny() const { return l2Present || l1Copies > 0 ||
            buffered > 0; }

    /** Some copy carries modified data not yet in memory. */
    bool anyDirty() const { return l2Dirty || anyL1Dirty ||
            buffered > 0; }
};

/**
 * A private two-level cache hierarchy attached to one processor and to
 * the shared bus.
 *
 * Statistics contract (counters in stats()). Every organization
 * registers these at construction, so experiments aggregate uniformly:
 *
 *   refs, refs_instr, refs_read, refs_write
 *   l1_hits, l1_hits_instr, l1_hits_read, l1_hits_write
 *   l2_hits, misses, fills_from_cache, fills_from_memory
 *   l1_coherence_msgs        -- messages percolated to level 1
 *   l1_flushes, l1_invalidations, l1_updates
 *   buffer_flushes, buffer_invalidations
 *   writebacks, writeback_cancels, writeback_completions, wb_stalls
 *   invalidations_sent, updates_sent, memory_writes
 *   context_switches, tlb_shootdowns
 *
 * VrHierarchy (vr, rr-incl, vr-rlt) adds synonym_hits,
 * synonym_sameset, synonym_moves, synonym_from_buffer,
 * swapped_writebacks, inclusion_invalidations (L2 replacements that
 * killed L1 children), forced_r_replacements and snoops, snoop_hits,
 * snoop_misses; vr-rlt also rlt_conflict_invalidations.
 * RrNoInclHierarchy adds l1_probes, buffer_pullbacks and
 * writebacks_bypassing_l2. A key an organization never registers reads
 * 0 through value(). The soft-error counters (soft_*, machine_checks,
 * presence_scrubs) are created on first use, so a run that never
 * strikes reports exactly the unarmed statistics.
 */
class CacheHierarchy : public Snooper
{
  public:
    ~CacheHierarchy() override = default;

    CacheHierarchy(const CacheHierarchy &) = delete;
    CacheHierarchy &operator=(const CacheHierarchy &) = delete;

    /** Process one memory reference from the local processor. */
    virtual AccessOutcome access(const MemAccess &acc) = 0;

    /** The local processor switched to process @p new_pid. */
    virtual void contextSwitch(ProcessId new_pid) = 0;

    /**
     * Verify internal invariants (inclusion, pointer linkage, unique
     * V-cache copies). panic()s on violation. Used by property tests.
     */
    virtual void checkInvariants() const = 0;

    /**
     * Per-reference level cost (in t1 units) a reference with outcome
     * @p o charges under @p p. Composed from the hierarchy's own
     * caches, so organization-specific effects -- the V-cache's
     * translation-free t1 versus a physically-tagged level 1 paying
     * the translation slowdown -- are reported by the level that
     * causes them. Pure accounting: must not disturb any state.
     */
    virtual Tick levelCost(AccessOutcome o,
                           const TimingParams &p) const = 0;

    /**
     * Report everything this hierarchy holds of the second-level line at
     * @p l2_line (a physical address anywhere inside the line). Pure
     * observation for the coherence oracle; must not disturb state.
     */
    virtual BlockProbe probeBlock(PhysAddr l2_line) const = 0;

    /**
     * Invoke @p fn with the physical address of every second-level line
     * for which this hierarchy holds data in any structure (second
     * level, level-1 copies, or parked write-backs). Addresses may
     * repeat; the oracle dedupes.
     */
    virtual void
    forEachCachedLine(const std::function<void(PhysAddr)> &fn) const = 0;

    /**
     * Drop the cached translation for (pid, vpn): the OS changed the
     * mapping (TLB shootdown). Cache contents are reconciled separately
     * through the coherent physical level (MpSimulator::remapPage).
     */
    void
    tlbShootdown(ProcessId pid, Vpn vpn)
    {
        if (_tlb.invalidate(pid, vpn))
            (*_c.tlbShootdowns)++;
    }

    /** Number of level-1 caches (1 unified, 2 split). */
    unsigned l1Count() const { return l1Count(_params); }

    const HierarchyParams &params() const { return _params; }

    /** The per-CPU arena the caches' arrays are carved from. */
    const Arena &arena() const { return _arena; }

    WriteBuffer &writeBuffer() { return _wb; }
    const WriteBuffer &writeBuffer() const { return _wb; }

    Tlb &tlb() { return _tlb; }

    /** Local references processed so far (the hierarchy's clock). */
    std::uint64_t refIndex() const { return _refIndex; }

    /** Identifier on the bus. */
    CpuId cpuId() const { return _cpuId; }
    void setCpuId(CpuId id) { _cpuId = id; }

    /** Statistics (see the class comment for the counter contract). */
    StatGroup &stats() { return _stats; }
    const StatGroup &stats() const { return _stats; }

    /** Level-1 hit ratio over all references. */
    double
    h1() const
    {
        auto refs = _stats.value("refs");
        return refs ? static_cast<double>(_stats.value("l1_hits")) /
                static_cast<double>(refs)
                    : 0.0;
    }

    /**
     * Level-2 local hit ratio: hits at level 2 (including synonym hits,
     * which cost the same) over level-1 misses.
     */
    double
    h2() const
    {
        auto refs = _stats.value("refs");
        auto l1_hits = _stats.value("l1_hits");
        auto l1_misses = refs - l1_hits;
        if (l1_misses == 0)
            return 0.0;
        return static_cast<double>(_stats.value("l2_hits") +
                                   _stats.value("synonym_hits")) /
            static_cast<double>(l1_misses);
    }

    /** L1 hit ratio restricted to one reference type. */
    double
    h1ForType(RefType t) const
    {
        auto refs = _refsByType[static_cast<int>(t)]->value();
        if (refs == 0)
            return 0.0;
        return static_cast<double>(
                   _hitsByType[static_cast<int>(t)]->value()) /
            static_cast<double>(refs);
    }

    /**
     * Distribution of distances (in local references) between successive
     * write-back events, the paper's Table 3 measurement.
     */
    const Histogram &writeBackIntervals() const { return _wbIntervals; }

    /**
     * Attach (or detach with nullptr) an event observer. With no
     * observer attached, event emission costs one branch.
     */
    void setObserver(EventObserver *obs) { _observer = obs; }

    /** Reset all statistics counters (e.g. after a warm-up window). */
    void
    resetStats()
    {
        _stats.reset();
        _wbIntervals.clear();
        _lastWriteBackRef = 0;
        _sawWriteBack = false;
    }

  protected:
    /**
     * @param params       cache geometry and policy parameters
     * @param spaces       machine-wide address spaces (shared by all CPUs)
     * @param bus          the shared snooping bus (the subclass attaches)
     * @param pointer_meta the organization keeps r-/v-pointer metadata,
     *                     which the meta-ptr soft-error site strikes
     * @param arena_bytes  capacity of the arena: the sum of the
     *                     footprints of every cache the subclass carves
     */
    CacheHierarchy(const HierarchyParams &params, AddressSpaceManager &spaces,
                   SharedBus &bus, bool pointer_meta,
                   std::size_t arena_bytes)
        : _params(params), _spaces(spaces), _bus(bus),
          _arena(arena_bytes),
          _wb(params.writeBufferDepth, params.writeBufferDrainLatency),
          _tlb(params.tlbEntries, params.tlbAssoc),
          _pointerMeta(pointer_meta), _stats("hierarchy"),
          _wbIntervals(10), _refsCtr(&_stats.counter("refs")),
          _l1HitsCtr(&_stats.counter("l1_hits")),
          _refsByType{&_stats.counter("refs_instr"),
                      &_stats.counter("refs_read"),
                      &_stats.counter("refs_write")},
          _hitsByType{&_stats.counter("l1_hits_instr"),
                      &_stats.counter("l1_hits_read"),
                      &_stats.counter("l1_hits_write")}
    {
        _c.writebackCompletions = &_stats.handle("writeback_completions");
        _c.wbStalls = &_stats.handle("wb_stalls");
        _c.writebacks = &_stats.handle("writebacks");
        _c.writebackCancels = &_stats.handle("writeback_cancels");
        _c.l2Hits = &_stats.handle("l2_hits");
        _c.invalidationsSent = &_stats.handle("invalidations_sent");
        _c.updatesSent = &_stats.handle("updates_sent");
        _c.memoryWrites = &_stats.handle("memory_writes");
        _c.misses = &_stats.handle("misses");
        _c.fillsFromCache = &_stats.handle("fills_from_cache");
        _c.fillsFromMemory = &_stats.handle("fills_from_memory");
        _c.l1CoherenceMsgs = &_stats.handle("l1_coherence_msgs");
        _c.contextSwitches = &_stats.handle("context_switches");
        _c.l1Flushes = &_stats.handle("l1_flushes");
        _c.bufferFlushes = &_stats.handle("buffer_flushes");
        _c.l1Invalidations = &_stats.handle("l1_invalidations");
        _c.bufferInvalidations = &_stats.handle("buffer_invalidations");
        _c.l1Updates = &_stats.handle("l1_updates");
        _c.tlbShootdowns = &_stats.handle("tlb_shootdowns");
    }

    /**
     * Per-reference prologue: advance the local clock, let the write
     * buffer drain, count the reference, then schedule this
     * reference's soft-error strikes when the model is armed.
     */
    void
    beginRef(RefType t)
    {
        ++_refIndex;
        _wb.tick(_refIndex);
        noteRef(t);
        // Cold: keeps the strike schedule out of the inlined hot path.
        if (_params.softErrors.armed()) [[unlikely]]
            maybeInjectSoftErrors();
    }

    /** Number of level-1 caches @p params builds (1 unified, 2 split). */
    static unsigned
    l1Count(const HierarchyParams &params)
    {
        return params.splitL1 ? 2 : 1;
    }

    /**
     * Parameters of one level-1 cache: a split level 1 has equal I and
     * D halves, as in the paper.
     */
    static CacheParams
    l1CacheParams(const HierarchyParams &params)
    {
        CacheParams l1 = params.l1;
        if (params.splitL1) {
            panicIfNot(l1.sizeBytes >= 2 * l1.blockBytes,
                       "split level-1 cache too small");
            l1.sizeBytes /= 2;
        }
        return l1;
    }

    /** Which L1 serves a reference type (0 = data/unified, 1 = instr). */
    unsigned
    l1IndexFor(RefType t) const
    {
        return (_params.splitL1 && t == RefType::Instr) ? 1 : 0;
    }

    /** Align to the level-1 block size. */
    std::uint32_t
    l1Block(std::uint32_t addr) const
    {
        return addr & ~(_params.l1.blockBytes - 1);
    }

    /** Align to the level-2 line size. */
    std::uint32_t
    l2Block(std::uint32_t addr) const
    {
        return addr & ~(_params.l2.blockBytes - 1);
    }

    /** Translate via the TLB (demand-allocating on first touch). */
    PhysAddr
    translate(const MemAccess &acc)
    {
        Ppn ppn = _tlb.translate(acc.pid, acc.va.vpn(_params.pageSize),
                                 _spaces);
        return makePhysAddr(ppn, acc.va.pageOffset(_params.pageSize),
                            _params.pageSize);
    }

    /**
     * Clear coherence for a local write to a copy of @p pa whose
     * coherence state is @p state (updated in place). Exclusive copies
     * upgrade silently. A Shared copy follows the protocol:
     * write-invalidate invalidates the other copies and takes the line
     * Private; write-update broadcasts the data to every copy and
     * memory, and stays Shared only if someone acknowledged sharing
     * (Firefly's shared-line optimization).
     *
     * @return true if the local copy should be marked dirty (the write
     *         stayed local); false if it was propagated and stays clean.
     */
    bool
    writeCoherence(PhysAddr pa, CoherenceState &state)
    {
        if (state != CoherenceState::Shared) {
            state = CoherenceState::Private;
            return true;
        }
        const PhysAddr line(l2Block(pa.value()));
        if (_params.protocol == CoherencePolicy::WriteInvalidate) {
            _bus.broadcast(
                BusTransaction{BusOp::Invalidate, line, cpuId()});
            (*_c.invalidationsSent)++;
            state = CoherenceState::Private;
            return true;
        }
        BusResult br =
            _bus.broadcast(BusTransaction{BusOp::Update, line, cpuId()});
        (*_c.updatesSent)++;
        (*_c.memoryWrites)++; // bus write-through
        state = br.shared ? CoherenceState::Shared : CoherenceState::Private;
        return false;
    }

    /**
     * Fetch @p line over the bus for a reference of type @p type that
     * missed both levels, counting the miss and where the data came
     * from. Invalidation protocols fetch a write with intent to modify;
     * update protocols fetch normally and then broadcast the new data
     * if anyone else holds the line.
     *
     * @param state out: the filled line's coherence state.
     * @return true if the local copy is dirty.
     */
    bool
    busFill(RefType type, PhysAddr line, CoherenceState &state)
    {
        const bool is_write = type == RefType::Write;
        const bool update_protocol =
            _params.protocol == CoherencePolicy::WriteUpdate;
        BusOp op = (is_write && !update_protocol) ? BusOp::ReadModWrite
                                                  : BusOp::ReadMiss;
        BusResult br = _bus.broadcast(BusTransaction{op, line, cpuId()});
        (*_c.misses)++;
        if (br.suppliedByCache)
            (*_c.fillsFromCache)++;
        else
            (*_c.fillsFromMemory)++;

        if (is_write && !update_protocol) {
            state = CoherenceState::Private; // read-modified-write
            return true;
        }
        state = br.shared ? CoherenceState::Shared : CoherenceState::Private;
        if (is_write && br.shared) {
            // Propagate the write to the other copies and memory.
            _bus.broadcast(BusTransaction{BusOp::Update, line, cpuId()});
            (*_c.updatesSent)++;
            (*_c.memoryWrites)++;
            return false;
        }
        return is_write;
    }

    // --- soft-error strikes (base/fault.hh) --------------------------
    //
    // One strike path for every organization. The base schedules each
    // reference's strikes, picks the struck cell and classifies the
    // outcome; a subclass names the struck array (strikeL1/strikeL2)
    // and supplies its own recovery for a detected line: refetch it
    // from level 2 or over the bus, rebuild what it shielded, or
    // machine-check when it held the only copy of dirty data.
    //
    // The model is state-preserving: a strike corrupts *array bits*,
    // not the data the simulator tracks, and every successful recovery
    // refetches bit-identical content -- so with strikes confined to
    // recoverable sites, all architectural statistics stay equal to an
    // unarmed run and only the soft_* counters, the recovery events and
    // the real extra bus transactions differ.

    /** Strike level-1 cache @p ci; @p site names the site counter. */
    virtual void strikeL1(unsigned ci, const char *site,
                          std::uint64_t h) = 0;

    /** Strike the level-2 array. */
    virtual void strikeL2(const char *site, std::uint64_t h) = 0;

    /** The line a strike with hash @p h lands on (may be empty). */
    template <typename Store>
    static LineRef
    faultTarget(const Store &store, std::uint64_t h)
    {
        const CacheGeometry &g = store.geometry();
        h >>= 9;
        return LineRef{static_cast<std::uint32_t>(h % g.numSets()),
                       static_cast<std::uint32_t>((h / g.numSets()) %
                                                  g.assoc())};
    }

    /**
     * Count a strike on line @p ref of @p store under @p site and
     * classify it: masked (the cell holds no line), silent, corrected
     * in place, or detected. @p va / @p pa address the line in the
     * emitted events.
     *
     * @return true when the check logic detected the strike on a valid
     *         line: the caller must recover the line or machineCheck().
     */
    template <typename Store>
    bool
    strikeDetected(Store &store, LineRef ref, const char *site,
                   std::uint64_t h, std::uint32_t va, std::uint32_t pa)
    {
        softCounter(site)++;
        if (!store.line(ref).valid) {
            softCounter("soft_masked")++;
            return false;
        }
        switch (store.absorbFault(softErrorFlips(h))) {
          case FaultOutcome::Silent:
            softCounter("soft_silent")++;
            return false;
          case FaultOutcome::Corrected:
            softCounter("soft_corrected")++;
            emitEvent(EventKind::FaultCorrected, _refIndex, va, pa);
            return false;
          case FaultOutcome::Detected:
            break;
        }
        softCounter("soft_detected")++;
        emitEvent(EventKind::FaultDetected, _refIndex, va, pa);
        return true;
    }

    /**
     * Recover a detected-corrupt clean line by refetching it: from
     * level 2 (no bus traffic) or, when @p over_bus, with a bus read of
     * its level-2 line. The refetched bits equal what the strike hit.
     */
    void
    refetchStruck(bool over_bus, std::uint32_t va, std::uint32_t pa)
    {
        softCounter("soft_recovered")++;
        if (over_bus) {
            softCounter("soft_refetches_bus")++;
            _bus.broadcast(BusTransaction{
                BusOp::ReadMiss, PhysAddr(l2Block(pa)), cpuId()});
        } else {
            softCounter("soft_refetches_l2")++;
        }
        emitEvent(EventKind::FaultCorrected, _refIndex, va, pa);
    }

    /**
     * Machine check: line @p ref of @p store (physical block @p pa) took
     * a detected strike while holding or shielding dirty data, whose
     * only current copy is lost. The caller has already unlinked what
     * referenced the line, so the surviving state stays coherent; this
     * drops the line, reports the loss and halts with @p why.
     */
    template <typename Store>
    [[noreturn]] void
    machineCheck(Store &store, LineRef ref, std::uint32_t pa,
                 const char *why)
    {
        store.noteUncorrectable();
        store.invalidate(ref);
        softCounter("machine_checks")++;
        emitEvent(EventKind::FaultUnrecoverable, _refIndex, 0, pa);
        throw FaultUnrecoverable(why);
    }

    /** Lazily created soft-error counter (see the stats contract). */
    Counter &softCounter(const char *name) { return _stats.counter(name); }

    /** Count one reference of type @p t. */
    void
    noteRef(RefType t)
    {
        (*_refsCtr)++;
        (*_refsByType[static_cast<int>(t)])++;
    }

    /** Count one L1 hit of type @p t. */
    void
    noteL1Hit(RefType t)
    {
        (*_l1HitsCtr)++;
        (*_hitsByType[static_cast<int>(t)])++;
    }

    /** Record a write-back event for the interval histogram. */
    void
    noteWriteBack(std::uint64_t ref_index)
    {
        if (_lastWriteBackRef != 0 || _sawWriteBack)
            _wbIntervals.record(ref_index - _lastWriteBackRef);
        _lastWriteBackRef = ref_index;
        _sawWriteBack = true;
    }

    /** Emit an event to the attached observer, if any. */
    void
    emitEvent(EventKind kind, std::uint64_t ref_index,
              std::uint32_t vaddr = 0, std::uint32_t paddr = 0)
    {
        if (_observer) {
            _observer->onEvent(
                HierarchyEvent{kind, _cpuId, ref_index, vaddr, paddr});
        }
    }

    HierarchyParams _params;
    AddressSpaceManager &_spaces;
    SharedBus &_bus;

    /**
     * Per-CPU arena: every tag-store array of the subclass is carved
     * from this one allocation, sized exactly from the geometry, so the
     * metadata this CPU touches on each reference stays contiguous. A
     * base member, so it is built before and destroyed after the
     * caches it backs.
     */
    Arena _arena;
    WriteBuffer _wb;
    Tlb _tlb;
    std::uint64_t _refIndex = 0;

    /**
     * Stats handles shared by every organization, resolved once at
     * construction (StatGroup handle contract): the access and snoop
     * paths increment through these and never perform a string-keyed
     * lookup.
     */
    struct Counters
    {
        Counter *writebackCompletions;
        Counter *wbStalls;
        Counter *writebacks;
        Counter *writebackCancels;
        Counter *l2Hits;
        Counter *invalidationsSent;
        Counter *updatesSent;
        Counter *memoryWrites;
        Counter *misses;
        Counter *fillsFromCache;
        Counter *fillsFromMemory;
        Counter *l1CoherenceMsgs;
        Counter *contextSwitches;
        Counter *l1Flushes;
        Counter *bufferFlushes;
        Counter *l1Invalidations;
        Counter *bufferInvalidations;
        Counter *l1Updates;
        Counter *tlbShootdowns;
    };
    Counters _c;

  private:
    /** Schedule this reference's array strikes (pure seed hash). */
    void
    maybeInjectSoftErrors()
    {
        const SoftErrorConfig &sc = _params.softErrors;
        const std::uint64_t cpu = cpuId();
        auto l1_of = [this](std::uint64_t h) {
            return static_cast<unsigned>((h >> 7) % l1Count());
        };
        if (sc.strikes("l1-tag", cpu, _refIndex, sc.tag)) {
            std::uint64_t h = sc.hash("l1-tag-cell", cpu, _refIndex);
            strikeL1(l1_of(h), "soft_faults_tag", h);
        }
        if (sc.strikes("l2-state", cpu, _refIndex, sc.state)) {
            strikeL2("soft_faults_state",
                     sc.hash("l2-state-cell", cpu, _refIndex));
        }
        if (_pointerMeta &&
            sc.strikes("meta-ptr", cpu, _refIndex, sc.ptr)) {
            // Pointer metadata lives on both sides of the hierarchy: the
            // V-cache r-pointer array or an R-cache subentry (v-pointer,
            // inclusion bits), chosen by one more hash bit.
            std::uint64_t h = sc.hash("meta-ptr-cell", cpu, _refIndex);
            if (h & 1)
                strikeL1(l1_of(h >> 1), "soft_faults_ptr", h >> 1);
            else
                strikeL2("soft_faults_ptr", h >> 1);
        }
    }

    bool _pointerMeta;
    CpuId _cpuId = invalidCpu;
    EventObserver *_observer = nullptr;
    StatGroup _stats;
    Histogram _wbIntervals;
    Counter *_refsCtr;
    Counter *_l1HitsCtr;
    Counter *_refsByType[3];
    Counter *_hitsByType[3];
    std::uint64_t _lastWriteBackRef = 0;
    bool _sawWriteBack = false;
};

} // namespace vrc

#endif // VRC_CORE_HIERARCHY_HH
