/**
 * @file
 * Google-benchmark microbenchmarks: raw throughput of the building
 * blocks (tag store, V-/R-cache searches, TLB, trace generation) and
 * end-to-end simulation speed for each organization, in references per
 * second.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cache/tag_store.hh"
#include "core/rcache.hh"
#include "core/vcache.hh"
#include "sim/experiment.hh"
#include "trace/trace_stream.hh"
#include "vm/tlb.hh"

namespace
{

using namespace vrc;

void
BM_TagStoreLookupHit(benchmark::State &state)
{
    TagStore<int> store(CacheGeometry(16 * 1024, 16, 1),
                        ReplPolicy::LRU);
    store.fill(store.victim(0x1230), 0x1230);
    for (auto _ : state) {
        auto ref = store.find(0x1230);
        benchmark::DoNotOptimize(ref);
    }
}
BENCHMARK(BM_TagStoreLookupHit);

/** Blocks the cache-level lookup benchmarks keep resident and cycle. */
constexpr std::uint32_t kResidentBlocks = 64;

/**
 * A V-cache hit through VCache::lookup, the search the replay makes on
 * every reference (16 KiB, 16 B blocks, direct-mapped, as the paper).
 * Unlike BM_TagStoreLookupHit this crosses the class's interface, so it
 * sees what returning the optional location costs. Only the set index
 * is kept live: pinning the whole optional in memory would add a
 * store/reload of its own to the loop.
 */
void
BM_VCacheLookupHit(benchmark::State &state)
{
    VCache vc(CacheParams{16 * 1024, 16, 1, ReplPolicy::LRU});
    for (std::uint32_t i = 0; i < kResidentBlocks; ++i) {
        VirtAddr va(0x10000 + i * 16);
        vc.install(vc.victimFor(va), va, 0x80000 + i * 16, false);
    }
    std::uint32_t i = 0;
    for (auto _ : state) {
        VirtAddr va(0x10000 + (i++ % kResidentBlocks) * 16);
        auto ref = vc.lookup(va);
        benchmark::DoNotOptimize(ref ? ref->set : ~0u);
    }
}
BENCHMARK(BM_VCacheLookupHit);

/**
 * A hit through RCache::probe, the recency-free search of every
 * level-1 miss, percolation and snoop (256 KiB, 16 B blocks).
 */
void
BM_RCacheProbe(benchmark::State &state)
{
    RCache rc(CacheParams{256 * 1024, 16, 1, ReplPolicy::LRU}, 16);
    for (std::uint32_t i = 0; i < kResidentBlocks; ++i) {
        PhysAddr pa(0x80000 + i * 16);
        rc.install(rc.victimFor(pa).first, pa, CoherenceState::Private);
    }
    std::uint32_t i = 0;
    for (auto _ : state) {
        PhysAddr pa(0x80000 + (i++ % kResidentBlocks) * 16);
        auto ref = rc.probe(pa);
        benchmark::DoNotOptimize(ref ? ref->set : ~0u);
    }
}
BENCHMARK(BM_RCacheProbe);

void
BM_TagStoreFillEvict(benchmark::State &state)
{
    TagStore<int> store(CacheGeometry(16 * 1024, 16, 4),
                        ReplPolicy::LRU);
    std::uint32_t addr = 0;
    for (auto _ : state) {
        LineRef slot = store.victim(addr);
        store.fill(slot, addr);
        addr += 16 * 1024 + 16; // new tag, rotating sets
    }
}
BENCHMARK(BM_TagStoreFillEvict);

void
BM_TlbTranslate(benchmark::State &state)
{
    AddressSpaceManager spaces(4096);
    Tlb tlb(256, 4);
    std::uint32_t vpn = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.translate(0, vpn % 512, spaces));
        ++vpn;
    }
}
BENCHMARK(BM_TlbTranslate);

/**
 * Materialized pops of state.range(0) references. generateTrace() runs
 * one worker per CPU, so this is timed in real time: CPU time sums the
 * workers and would hide the parallel gain.
 */
void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadProfile p = popsProfile();
    p.totalRefs = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        TraceBundle b = generateTrace(p);
        benchmark::DoNotOptimize(b.records.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)
    ->Arg(50'000)
    ->Arg(static_cast<std::int64_t>(popsProfile().totalRefs))
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** Streamed decode of pops at CPU count state.range(0), no trace held. */
void
BM_TraceStream(benchmark::State &state)
{
    WorkloadProfile p = popsProfile();
    p.numCpus = static_cast<std::uint32_t>(state.range(0));
    p.totalRefs = 200'000;
    std::vector<TraceRecord> batch(4096);
    std::int64_t records = 0;
    for (auto _ : state) {
        TraceStream stream(p);
        while (std::size_t n = stream.nextBatch(batch.data(), batch.size()))
            records += static_cast<std::int64_t>(n);
        benchmark::DoNotOptimize(batch.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(records);
}
BENCHMARK(BM_TraceStream)->Arg(4)->Arg(16);

/**
 * Streamed pops on 16 CPUs through MpSimulator::run(TraceStream&) at
 * the contention geometry (512 B / 64 K, cycle engine): decode on the
 * producer thread overlaps replay on this one.
 */
void
BM_StreamReplay(benchmark::State &state)
{
    WorkloadProfile p = popsProfile();
    p.numCpus = 16;
    p.totalRefs = 200'000;
    MachineConfig mc = makeMachineConfig(HierarchyKind::VirtualReal, 512,
                                         64 * 1024, p.pageSize);
    mc.timingMode = TimingMode::Cycle;
    std::int64_t refs = 0;
    for (auto _ : state) {
        TraceStream stream(p);
        MpSimulator sim(mc, p);
        sim.run(stream);
        benchmark::DoNotOptimize(sim.cycles());
        refs += static_cast<std::int64_t>(sim.refsProcessed());
    }
    state.SetItemsProcessed(refs);
}
BENCHMARK(BM_StreamReplay)->Unit(benchmark::kMillisecond)->UseRealTime();

const TraceBundle &
microBundle()
{
    static TraceBundle bundle = [] {
        WorkloadProfile p = popsProfile();
        p.totalRefs = 100'000;
        return generateTrace(p);
    }();
    return bundle;
}

void
simulateKind(benchmark::State &state, HierarchyKind kind)
{
    const TraceBundle &bundle = microBundle();
    for (auto _ : state) {
        SimSummary s =
            runSimulationJob(bundle, SimJob{kind, 16 * 1024, 256 * 1024});
        benchmark::DoNotOptimize(s.h1);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(bundle.records.size()));
}

void
BM_SimulateVR(benchmark::State &state)
{
    simulateKind(state, HierarchyKind::VirtualReal);
}
BENCHMARK(BM_SimulateVR);

void
BM_SimulateRRIncl(benchmark::State &state)
{
    simulateKind(state, HierarchyKind::RealRealIncl);
}
BENCHMARK(BM_SimulateRRIncl);

void
BM_SimulateRRNoIncl(benchmark::State &state)
{
    simulateKind(state, HierarchyKind::RealRealNoIncl);
}
BENCHMARK(BM_SimulateRRNoIncl);

void
BM_SimulateVRSplit(benchmark::State &state)
{
    const TraceBundle &bundle = microBundle();
    for (auto _ : state) {
        SimSummary s = runSimulationJob(
            bundle, SimJob{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024,
                           true});
        benchmark::DoNotOptimize(s.h1);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(bundle.records.size()));
}
BENCHMARK(BM_SimulateVRSplit);

/**
 * The unit `--serve` pays per segment: build an MpSimulator (vr,
 * 16K/256K, pops), replay one 16384-record segment, destroy it. Timed
 * in real time so construction and teardown count in full.
 */
void
BM_ColdSegment(benchmark::State &state)
{
    constexpr std::size_t kSegment = 16384;
    const TraceBundle &bundle = microBundle();
    const MachineConfig mc =
        makeMachineConfig(HierarchyKind::VirtualReal, 16 * 1024,
                          256 * 1024, bundle.profile.pageSize);
    for (auto _ : state) {
        MpSimulator sim(mc, bundle.profile);
        sim.runBatch(bundle.records.data(), kSegment);
        benchmark::DoNotOptimize(sim.refsProcessed());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSegment));
}
BENCHMARK(BM_ColdSegment)->Unit(benchmark::kMicrosecond)->UseRealTime();

/**
 * Building and destroying one MpSimulator over pops, with no replay:
 * each organization at the contention shape (16 CPUs, 512 B / 64 KiB,
 * cycle engine), and vr at the serve shape (4 CPUs, 16 / 256 KiB).
 */
void
BM_MpSimulatorConstruct(benchmark::State &state, HierarchyKind kind,
                        std::uint32_t cpus)
{
    const bool serve = cpus == 4;
    WorkloadProfile p = popsProfile();
    p.numCpus = cpus;
    MachineConfig mc = makeMachineConfig(kind, serve ? 16 * 1024 : 512,
                                         serve ? 256 * 1024 : 64 * 1024,
                                         p.pageSize);
    mc.timingMode = serve ? TimingMode::Analytic : TimingMode::Cycle;
    for (auto _ : state) {
        MpSimulator sim(mc, p);
        benchmark::DoNotOptimize(sim.refsProcessed());
    }
}
BENCHMARK_CAPTURE(BM_MpSimulatorConstruct, vr, HierarchyKind::VirtualReal, 16);
BENCHMARK_CAPTURE(BM_MpSimulatorConstruct, rr_incl,
                  HierarchyKind::RealRealIncl, 16);
BENCHMARK_CAPTURE(BM_MpSimulatorConstruct, rr_noincl,
                  HierarchyKind::RealRealNoIncl, 16);
BENCHMARK_CAPTURE(BM_MpSimulatorConstruct, vr_rlt,
                  HierarchyKind::VirtualRealRlt, 16);
BENCHMARK_CAPTURE(BM_MpSimulatorConstruct, vr_serve,
                  HierarchyKind::VirtualReal, 4);

} // namespace

BENCHMARK_MAIN();
