#include "sim/experiment.hh"

#include <algorithm>

#include "base/bitops.hh"
#include "sim/parallel_runner.hh"

namespace vrc
{

MachineConfig
makeMachineConfig(HierarchyKind kind, std::uint32_t l1_size,
                  std::uint32_t l2_size, std::uint32_t page_size,
                  bool split)
{
    MachineConfig mc;
    mc.kind = kind;
    mc.hierarchy.pageSize = page_size;
    mc.hierarchy.l1.sizeBytes = l1_size;
    mc.hierarchy.l2.sizeBytes = l2_size;
    mc.hierarchy.splitL1 = split;
    return mc;
}

Status
checkCacheSizes(const MachineConfig &mc)
{
    const HierarchyParams &h = mc.hierarchy;
    const CacheParams *levels[] = {&h.l1, &h.l2};
    for (unsigned l = 0; l < 2; ++l) {
        const CacheParams &c = *levels[l];
        std::uint64_t least = std::uint64_t{c.blockBytes} * c.assoc *
                              (l == 0 && h.splitL1 ? 2 : 1);
        if (l == 1) // the synonym r-pointer spans level-2 pages
            least = std::max<std::uint64_t>(least, h.pageSize);
        if (!isPowerOfTwo(c.sizeBytes) || c.sizeBytes < least ||
            c.sizeBytes > kMaxCacheBytes)
            return makeError(ErrorKind::Bounds, "level-", l + 1,
                             " cache size ", c.sizeBytes,
                             " must be a power of two from ", least,
                             " to ", kMaxCacheBytes, " bytes");
    }
    return okStatus();
}

SimSummary
summarizeSimulation(const MpSimulator &sim, const SimJob &job)
{
    SimSummary s;
    s.kind = job.kind;
    s.l1Size = job.l1Size;
    s.l2Size = job.l2Size;
    s.split = job.split;
    s.h1 = sim.h1();
    s.h2 = sim.h2();
    s.h1Instr = sim.h1ForType(RefType::Instr);
    s.h1Read = sim.h1ForType(RefType::Read);
    s.h1Write = sim.h1ForType(RefType::Write);
    using Stat = HierarchyStat;
    for (CpuId c = 0; c < sim.cpuCount(); ++c) {
        s.l1MsgsPerCpu.push_back(
            sim.hierarchy(c).stats()[Stat::L1CoherenceMsgs]);
    }
    s.inclusionInvalidations = sim.totalCounter(Stat::InclusionInvalidations);
    s.synonymHits = sim.totalCounter(Stat::SynonymHits);
    s.synonymMoves = sim.totalCounter(Stat::SynonymMoves);
    s.writebackCancels = sim.totalCounter(Stat::WritebackCancels);
    s.swappedWritebacks = sim.totalCounter(Stat::SwappedWritebacks);
    s.writeBufferStalls = sim.totalCounter(Stat::WbStalls);
    s.busTransactions = sim.bus().transactions();
    s.memoryWrites = sim.totalCounter(Stat::MemoryWrites);
    s.refs = sim.refsProcessed();
    s.timingMode = sim.timingMode();
    s.avgAccessTime = sim.measuredAccessTime();
    s.avgAccessCycles = sim.avgAccessCycles();
    s.busUtilization = sim.busUtilization();
    s.avgBusWait = sim.avgBusWait();
    return s;
}

SimSummary
runSimulationJob(const TraceBundle &bundle, const SimJob &job)
{
    return runSimulationCancellable(bundle, job, CancelToken{});
}

MachineConfig
jobMachineConfig(const SimJob &job, std::uint32_t page_size)
{
    MachineConfig mc = makeMachineConfig(job.kind, job.l1Size, job.l2Size,
                                         page_size, job.split);
    mc.invariantPeriod = job.invariantPeriod;
    mc.timingMode = job.timingMode;
    return mc;
}

void
replayCancellable(MpSimulator &sim, const std::vector<TraceRecord> &records,
                  const CancelToken &token)
{
    constexpr std::size_t chunk = 8192;
    for (std::size_t done = 0;;) {
        if (token.cancelled())
            throw ErrorException(makeError(
                ErrorKind::Cancelled, "simulation cancelled after ",
                done, " of ", records.size(), " records"));
        if (done == records.size())
            return;
        std::size_t n = std::min(chunk, records.size() - done);
        sim.runBatch(records.data() + done, n);
        done += n;
    }
}

SimSummary
runSimulationCancellable(const TraceBundle &bundle, const SimJob &job,
                         const CancelToken &token)
{
    MpSimulator sim(jobMachineConfig(job, bundle.profile.pageSize),
                    bundle.profile);
    replayCancellable(sim, bundle.records, token);
    return summarizeSimulation(sim, job);
}

std::vector<SimSummary>
runSimulations(const TraceBundle &bundle, const std::vector<SimJob> &jobs,
               unsigned threads)
{
    ParallelRunner pool(threads);
    return pool.map(jobs.size(), [&](std::size_t i) {
        return runSimulationJob(bundle, jobs[i]);
    });
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
paperSizePairs()
{
    return {{4 * 1024, 64 * 1024},
            {8 * 1024, 128 * 1024},
            {16 * 1024, 256 * 1024}};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
smallSizePairs()
{
    return {{512, 64 * 1024}, {1024, 128 * 1024}, {2048, 256 * 1024}};
}

} // namespace vrc
