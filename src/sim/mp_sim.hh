/**
 * @file
 * Trace-driven shared-bus multiprocessor simulator.
 *
 * One private two-level hierarchy per CPU (Figure 1), all attached to
 * one snooping bus and sharing the machine's address spaces. The
 * simulator replays an interleaved trace, dispatching each record to
 * its CPU's hierarchy and delivering context-switch markers.
 */

#ifndef VRC_SIM_MP_SIM_HH
#define VRC_SIM_MP_SIM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "coherence/bus.hh"
#include "coherence/bus_arbiter.hh"
#include "core/clock.hh"
#include "core/timing.hh"
#include "core/config.hh"
#include "core/factory.hh"
#include "core/hierarchy.hh"
#include "trace/record.hh"
#include "trace/workload.hh"
#include "vm/addr_space.hh"

namespace vrc
{

class TraceStream;

/** Whole-machine configuration. */
struct MachineConfig
{
    HierarchyKind kind = HierarchyKind::VirtualReal;
    HierarchyParams hierarchy;
    std::uint32_t physPages = 1u << 18;

    /** Run checkInvariants() every N references (0 disables). */
    std::uint64_t invariantPeriod = 0;

    /**
     * Access costs used for measured (counted) access-time accounting:
     * every reference contributes effectiveT1(), t2 or tm depending on
     * where it hit. The analytic Section-4 equation over the measured
     * hit ratios must agree exactly with this accounting.
     */
    TimingParams timing;

    /**
     * Timing engine selection. Analytic (the default) keeps the
     * paper's post-hoc accounting only. Cycle layers the
     * cycle-approximate engine on top: per-CPU clocks advance by the
     * level costs the hierarchies report, and every bus transaction
     * must win the single shared bus through the BusArbiter,
     * serializing against all CPUs and charging queueing delay plus a
     * per-type service time. (In cycle mode `timing.tm` is the memory
     * latency excluding the bus, which is modeled explicitly.)
     * Architectural counters are bit-identical across modes: timing is
     * pure accounting layered on the functional model.
     */
    TimingMode timingMode = TimingMode::Analytic;

    /** Bus service times for the cycle engine (ignored in analytic). */
    BusTimingParams busTiming;
};

/** A shared-bus multiprocessor built from per-CPU cache hierarchies. */
class MpSimulator
{
  public:
    /**
     * Build the machine for a workload: @p profile determines the CPU
     * count and the shared-segment layout (setupAddressSpaces).
     */
    MpSimulator(const MachineConfig &config,
                const WorkloadProfile &profile);

    /** Replay @p records (appending to any earlier run). */
    void run(const std::vector<TraceRecord> &records);

    /**
     * Replay records straight from a generator without materializing
     * the trace (peak-RSS saver for the 3.3M-reference workloads).
     *
     * Decoding runs on a producer thread that fills a bounded ring of
     * 4096-record batches while the calling thread replays them in
     * order through runBatch(), so every counter is identical to
     * run(const std::vector<TraceRecord>&) over the materialized trace.
     *
     * Exceptions: if replay throws (e.g. FaultUnrecoverable), decoding
     * stops, the producer is joined and the exception propagates. If
     * decoding throws, the batches decoded before it are replayed
     * first, then the producer's exception propagates. Either way no
     * thread outlives the call. The machine state is that of the
     * serial loop at the same throw, but @p stream may have been
     * decoded up to one ring (4 batches) past the last record replayed.
     */
    void run(TraceStream &stream);

    /**
     * Replay @p n records: the hierarchy type is resolved from the
     * machine kind once per call, so the per-reference dispatch inside
     * the loop is a direct (inlinable) call instead of a virtual one.
     * Every replay path -- run(), step(), the experiment helpers --
     * ends here. Panics on a record naming an unknown CPU.
     */
    void runBatch(const TraceRecord *records, std::size_t n);

    /**
     * Process a single record: a one-record runBatch(), for callers
     * that interleave replay with remaps or checks.
     */
    void step(const TraceRecord &r) { runBatch(&r, 1); }

    CacheHierarchy &hierarchy(CpuId cpu) { return *_cpus.at(cpu); }
    const CacheHierarchy &hierarchy(CpuId cpu) const
    {
        return *_cpus.at(cpu);
    }

    std::uint32_t cpuCount() const
    {
        return static_cast<std::uint32_t>(_cpus.size());
    }

    SharedBus &bus() { return _bus; }
    const SharedBus &bus() const { return _bus; }
    AddressSpaceManager &spaces() { return _spaces; }

    /** Machine-wide level-1 hit ratio (all CPUs, all reference types). */
    double h1() const;

    /** Machine-wide local level-2 hit ratio. */
    double h2() const;

    /** Machine-wide level-1 hit ratio for one reference type. */
    double h1ForType(RefType t) const;

    /** Sum of one hierarchy counter over all CPUs. */
    std::uint64_t totalCounter(HierarchyStat s) const;

    /** Sum of a named hierarchy counter over all CPUs (0 if unknown). */
    std::uint64_t totalCounter(std::string_view name) const;

    /** References processed (memory references only). */
    std::uint64_t refsProcessed() const { return _refs; }

    /** Accumulated access cost (in t1 units) over all references. */
    double cycles() const { return _cycles; }

    /** Active timing engine. */
    TimingMode timingMode() const { return _config.timingMode; }

    /** Per-CPU clock under the cycle engine (0 in analytic mode). */
    double
    cpuClock(CpuId cpu) const
    {
        return cpu < _clocks.size() ? _clocks[cpu].now() : 0.0;
    }

    /** Full clock (accumulator breakdown) of one CPU (cycle engine). */
    const CpuClock &
    clock(CpuId cpu) const
    {
        // In analytic mode the clocks never advance; hand back a shared
        // zero clock so report code can stay mode-agnostic.
        static const CpuClock zero{};
        return cpu < _clocks.size() ? _clocks[cpu] : zero;
    }

    /** The bus arbiter, or nullptr in analytic mode. */
    const BusArbiter *arbiter() const { return _arbiter.get(); }

    /** Total time the bus spent serving transactions. */
    double busBusyTime() const
    {
        return _arbiter ? _arbiter->busyTicks() : 0.0;
    }

    /** Total time requesters queued waiting for the bus. */
    double busWaitTime() const
    {
        return _arbiter ? _arbiter->waitTicks() : 0.0;
    }

    /** Bus utilization: busy time over the simulated horizon. */
    double busUtilization() const;

    /**
     * Average per-reference latency under the cycle engine: every
     * CPU's elapsed clock (level costs + bus service + queueing) over
     * all references. In analytic mode this equals
     * measuredAccessTime(), and so it does under the cycle engine with
     * one CPU and a zero bus service table -- the closed-form
     * cross-check the tests and CI enforce.
     */
    double avgAccessCycles() const;

    /** Average per-reference bus queueing delay (t1 units). */
    double
    avgBusWait() const
    {
        return _refs && _arbiter
            ? _arbiter->waitTicks() / static_cast<double>(_refs)
            : 0.0;
    }

    /**
     * Measured average access time: counted cost per reference. Agrees
     * with avgAccessTime(h1(), h2(), config().timing) by construction.
     */
    double
    measuredAccessTime() const
    {
        return _refs ? _cycles / static_cast<double>(_refs) : 0.0;
    }

    const MachineConfig &config() const { return _config; }

    /** Run the invariant checks on every hierarchy now. */
    void checkInvariants() const;

    /**
     * Zero all statistics (per-CPU counters, bus counters, reference
     * and cycle accounting) while keeping cache/TLB contents: call
     * after a warm-up window so reported ratios cover steady state.
     */
    void resetStats();

    /**
     * OS-style page remap: change (pid, vpn) to map @p new_ppn.
     *
     * Demonstrates the paper's point that TLB coherence can be handled
     * at the second level: the old frame's cached copies are flushed
     * and invalidated machine-wide through ordinary (physical) bus
     * transactions, and every CPU's TLB entry is shot down -- nothing
     * touches a V-cache except through its own R-cache filter.
     */
    void remapPage(ProcessId pid, Vpn vpn, Ppn new_ppn);

  private:
    /** The typed replay loop behind runBatch(). */
    template <typename H>
    void replayTyped(const TraceRecord *records, std::size_t n);

    MachineConfig _config;
    AddressSpaceManager _spaces;
    SharedBus _bus;

    std::vector<std::unique_ptr<CacheHierarchy>> _cpus;
    std::uint64_t _refs = 0;
    double _cycles = 0.0;

    /**
     * Level costs by (cpu, outcome), resolved once at construction
     * from each hierarchy's levelCost() so the replay hot path never
     * pays a virtual call per reference.
     */
    std::vector<std::array<Tick, 4>> _costs;

    /** Cycle engine state (empty clocks / null arbiter in analytic). */
    std::vector<CpuClock> _clocks;
    std::unique_ptr<BusArbiter> _arbiter;
};

} // namespace vrc

#endif // VRC_SIM_MP_SIM_HH
