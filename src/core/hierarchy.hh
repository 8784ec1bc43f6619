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
 * The counter table of every hierarchy, one X(enumerator, name, shown
 * by) row per counter in name byte order. The third column says which
 * organizations show the counter from construction on (the
 * HierarchyStats kinds), so a key an organization never shows is absent
 * from its reports and reads 0 through value(). The soft-error rows
 * (soft_*, machine_checks, presence_scrubs) show from their first
 * increment on, so a run that never strikes reports exactly the
 * unarmed statistics.
 */
#define VRC_HIERARCHY_STATS(X)                                         \
    X(BufferFlushes, "buffer_flushes", Every)                          \
    X(BufferInvalidations, "buffer_invalidations", Every)              \
    X(BufferPullbacks, "buffer_pullbacks", NoInclusion)                \
    X(ContextSwitches, "context_switches", Every)                      \
    X(FillsFromCache, "fills_from_cache", Every)                       \
    X(FillsFromMemory, "fills_from_memory", Every)                     \
    X(ForcedRReplacements, "forced_r_replacements", VirtualReal)       \
    X(InclusionInvalidations, "inclusion_invalidations", VirtualReal)  \
    X(InvalidationsSent, "invalidations_sent", Every)                  \
    X(L1CoherenceMsgs, "l1_coherence_msgs", Every)                     \
    X(L1Flushes, "l1_flushes", Every)                                  \
    X(L1Hits, "l1_hits", Every)                                        \
    X(L1HitsInstr, "l1_hits_instr", Every)                             \
    X(L1HitsRead, "l1_hits_read", Every)                               \
    X(L1HitsWrite, "l1_hits_write", Every)                             \
    X(L1Invalidations, "l1_invalidations", Every)                      \
    X(L1Probes, "l1_probes", NoInclusion)                              \
    X(L1Updates, "l1_updates", Every)                                  \
    X(L2Hits, "l2_hits", Every)                                        \
    X(MachineChecks, "machine_checks", OnFirstUse)                     \
    X(MemoryWrites, "memory_writes", Every)                            \
    X(Misses, "misses", Every)                                         \
    X(PresenceScrubs, "presence_scrubs", OnFirstUse)                   \
    X(Refs, "refs", Every)                                             \
    X(RefsInstr, "refs_instr", Every)                                  \
    X(RefsRead, "refs_read", Every)                                    \
    X(RefsWrite, "refs_write", Every)                                  \
    X(RltConflictInvalidations, "rlt_conflict_invalidations", Rlt)     \
    X(SnoopHits, "snoop_hits", VirtualReal)                            \
    X(SnoopMisses, "snoop_misses", VirtualReal)                        \
    X(Snoops, "snoops", VirtualReal)                                   \
    X(SoftCorrected, "soft_corrected", OnFirstUse)                     \
    X(SoftDetected, "soft_detected", OnFirstUse)                       \
    X(SoftFaultsPtr, "soft_faults_ptr", OnFirstUse)                    \
    X(SoftFaultsState, "soft_faults_state", OnFirstUse)                \
    X(SoftFaultsTag, "soft_faults_tag", OnFirstUse)                    \
    X(SoftMasked, "soft_masked", OnFirstUse)                           \
    X(SoftRecovered, "soft_recovered", OnFirstUse)                     \
    X(SoftRefetchesBus, "soft_refetches_bus", OnFirstUse)              \
    X(SoftRefetchesL2, "soft_refetches_l2", OnFirstUse)                \
    X(SoftSilent, "soft_silent", OnFirstUse)                           \
    X(SwappedWritebacks, "swapped_writebacks", VirtualReal)            \
    X(SynonymFromBuffer, "synonym_from_buffer", VirtualReal)           \
    X(SynonymHits, "synonym_hits", VirtualReal)                        \
    X(SynonymMoves, "synonym_moves", VirtualReal)                      \
    X(SynonymSameset, "synonym_sameset", VirtualReal)                  \
    X(TlbShootdowns, "tlb_shootdowns", Every)                          \
    X(UpdatesSent, "updates_sent", Every)                              \
    X(WbStalls, "wb_stalls", Every)                                    \
    X(WritebackCancels, "writeback_cancels", Every)                    \
    X(WritebackCompletions, "writeback_completions", Every)            \
    X(Writebacks, "writebacks", Every)                                 \
    X(WritebacksBypassingL2, "writebacks_bypassing_l2", NoInclusion)

/** The per-CPU hierarchy counters (VRC_HIERARCHY_STATS). */
struct HierarchyStats
{
    // Organization kinds, the bits of StatRow::shownBy.
    static constexpr std::uint32_t OnFirstUse = 0;
    static constexpr std::uint32_t Every = 1;         ///< all four
    static constexpr std::uint32_t VirtualReal = 2;   ///< vr, rr, vr-rlt
    static constexpr std::uint32_t Rlt = 4;           ///< vr-rlt
    static constexpr std::uint32_t NoInclusion = 8;   ///< rr-noincl

    VRC_STAT_TABLE(VRC_HIERARCHY_STATS)
};
using HierarchyStat = HierarchyStats::Stat;

/**
 * A private two-level cache hierarchy attached to one processor and to
 * the shared bus. Its counters are HierarchyStats; stats() reads them.
 */
class CacheHierarchy : public Snooper
{
  public:
    using Stat = HierarchyStat;

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
            ++_n[Stat::TlbShootdowns];
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

    /** The counters (HierarchyStats). */
    const StatGroup<HierarchyStats> &stats() const { return _n; }

    /** Level-1 hit ratio over all references. */
    double
    h1() const
    {
        auto refs = _n[Stat::Refs];
        return refs ? static_cast<double>(_n[Stat::L1Hits]) /
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
        auto l1_misses = _n[Stat::Refs] - _n[Stat::L1Hits];
        if (l1_misses == 0)
            return 0.0;
        return static_cast<double>(_n[Stat::L2Hits] +
                                   _n[Stat::SynonymHits]) /
            static_cast<double>(l1_misses);
    }

    /** The refs_* and l1_hits_* counters, indexed by RefType. */
    static constexpr Stat kRefsByType[] = {Stat::RefsInstr, Stat::RefsRead,
                                           Stat::RefsWrite};
    static constexpr Stat kL1HitsByType[] = {
        Stat::L1HitsInstr, Stat::L1HitsRead, Stat::L1HitsWrite};

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
        _n.reset();
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
     * @param shown        the HierarchyStats kinds it shows
     * @param arena_bytes  capacity of the arena: the sum of the
     *                     footprints of every cache the subclass carves
     */
    CacheHierarchy(const HierarchyParams &params, AddressSpaceManager &spaces,
                   SharedBus &bus, bool pointer_meta, std::uint32_t shown,
                   std::size_t arena_bytes)
        : _params(params), _spaces(spaces), _bus(bus),
          _arena(arena_bytes),
          _wb(params.writeBufferDepth, params.writeBufferDrainLatency),
          _tlb(params.tlbEntries, params.tlbAssoc), _n(shown),
          _pointerMeta(pointer_meta), _wbIntervals(10)
    {
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
            ++_n[Stat::InvalidationsSent];
            state = CoherenceState::Private;
            return true;
        }
        BusResult br =
            _bus.broadcast(BusTransaction{BusOp::Update, line, cpuId()});
        ++_n[Stat::UpdatesSent];
        ++_n[Stat::MemoryWrites]; // bus write-through
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
        ++_n[Stat::Misses];
        if (br.suppliedByCache)
            ++_n[Stat::FillsFromCache];
        else
            ++_n[Stat::FillsFromMemory];

        if (is_write && !update_protocol) {
            state = CoherenceState::Private; // read-modified-write
            return true;
        }
        state = br.shared ? CoherenceState::Shared : CoherenceState::Private;
        if (is_write && br.shared) {
            // Propagate the write to the other copies and memory.
            _bus.broadcast(BusTransaction{BusOp::Update, line, cpuId()});
            ++_n[Stat::UpdatesSent];
            ++_n[Stat::MemoryWrites];
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

    /** Strike level-1 cache @p ci; @p site is the site counter. */
    virtual void strikeL1(unsigned ci, Stat site, std::uint64_t h) = 0;

    /** Strike the level-2 array. */
    virtual void strikeL2(Stat site, std::uint64_t h) = 0;

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
    strikeDetected(Store &store, LineRef ref, Stat site,
                   std::uint64_t h, std::uint32_t va, std::uint32_t pa)
    {
        ++_n.show(site);
        if (!store.line(ref).valid) {
            ++_n.show(Stat::SoftMasked);
            return false;
        }
        switch (store.absorbFault(softErrorFlips(h))) {
          case FaultOutcome::Silent:
            ++_n.show(Stat::SoftSilent);
            return false;
          case FaultOutcome::Corrected:
            ++_n.show(Stat::SoftCorrected);
            emitEvent(EventKind::FaultCorrected, _refIndex, va, pa);
            return false;
          case FaultOutcome::Detected:
            break;
        }
        ++_n.show(Stat::SoftDetected);
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
        ++_n.show(Stat::SoftRecovered);
        if (over_bus) {
            ++_n.show(Stat::SoftRefetchesBus);
            _bus.broadcast(BusTransaction{
                BusOp::ReadMiss, PhysAddr(l2Block(pa)), cpuId()});
        } else {
            ++_n.show(Stat::SoftRefetchesL2);
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
        ++_n.show(Stat::MachineChecks);
        emitEvent(EventKind::FaultUnrecoverable, _refIndex, 0, pa);
        throw FaultUnrecoverable(why);
    }

    /** Count one reference of type @p t. */
    void
    noteRef(RefType t)
    {
        ++_n[Stat::Refs];
        ++_n[kRefsByType[static_cast<int>(t)]];
    }

    /** Count one L1 hit of type @p t. */
    void
    noteL1Hit(RefType t)
    {
        ++_n[Stat::L1Hits];
        ++_n[kL1HitsByType[static_cast<int>(t)]];
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

    /** The counters; subclasses increment them directly. */
    StatGroup<HierarchyStats> _n;

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
            strikeL1(l1_of(h), Stat::SoftFaultsTag, h);
        }
        if (sc.strikes("l2-state", cpu, _refIndex, sc.state)) {
            strikeL2(Stat::SoftFaultsState,
                     sc.hash("l2-state-cell", cpu, _refIndex));
        }
        if (_pointerMeta &&
            sc.strikes("meta-ptr", cpu, _refIndex, sc.ptr)) {
            // Pointer metadata lives on both sides of the hierarchy: the
            // V-cache r-pointer array or an R-cache subentry (v-pointer,
            // inclusion bits), chosen by one more hash bit.
            std::uint64_t h = sc.hash("meta-ptr-cell", cpu, _refIndex);
            if (h & 1)
                strikeL1(l1_of(h >> 1), Stat::SoftFaultsPtr, h >> 1);
            else
                strikeL2(Stat::SoftFaultsPtr, h >> 1);
        }
    }

    bool _pointerMeta;
    CpuId _cpuId = invalidCpu;
    EventObserver *_observer = nullptr;
    Histogram _wbIntervals;
    std::uint64_t _lastWriteBackRef = 0;
    bool _sawWriteBack = false;
};

} // namespace vrc

#endif // VRC_CORE_HIERARCHY_HH
