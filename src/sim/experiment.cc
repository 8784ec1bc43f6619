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
checkMachineConfig(const MachineConfig &mc)
{
    auto bad = [](const std::string &flag, const auto &...what) -> Status {
        return makeErrorAt(ErrorKind::Bounds, flag, 0, what...);
    };
    const HierarchyParams &h = mc.hierarchy;
    if (!isPowerOfTwo(h.pageSize))
        return bad("", "page size ", h.pageSize, " must be a power of two");
    const CacheParams *levels[] = {&h.l1, &h.l2};
    for (unsigned l = 0; l < 2; ++l) {
        const CacheParams &c = *levels[l];
        const std::string n = std::to_string(l + 1);
        if (!isPowerOfTwo(c.blockBytes))
            return bad("--block" + n, "level-", n, " block size ",
                       c.blockBytes, " must be a power of two");
        if (!isPowerOfTwo(c.assoc))
            return bad("--assoc" + n, "level-", n, " associativity ",
                       c.assoc, " must be a power of two");
        const std::uint64_t one_set = std::uint64_t{c.blockBytes} *
                                      c.assoc *
                                      (l == 0 && h.splitL1 ? 2 : 1);
        // At level 2 the synonym r-pointer spans whole pages.
        const std::uint64_t least =
            l == 1 ? std::max<std::uint64_t>(one_set, h.pageSize) : one_set;
        if (!isPowerOfTwo(c.sizeBytes) || c.sizeBytes < least ||
            c.sizeBytes > kMaxCacheBytes)
            return bad("--l" + n, "level-", n, " cache size ", c.sizeBytes,
                       " must be a power of two from ", least, " to ",
                       kMaxCacheBytes, " bytes");
        // One set of 1-byte blocks leaves the tag store no spare tag
        // value for its empty-way sentinel.
        if (c.blockBytes == 1 && c.sizeBytes == one_set)
            return bad("--block" + n, "level-", n,
                       " blocks of 1 byte need more than one set");
    }
    // Only the R-cache splits its blocks into level-1 sub-blocks.
    if (mc.kind != HierarchyKind::RealRealNoIncl &&
        h.l2.blockBytes < h.l1.blockBytes)
        return bad("--block2", "level-2 block size ", h.l2.blockBytes,
                   " must be a multiple of level-1's ", h.l1.blockBytes);
    if (h.rltAssoc == 0)
        return bad("--rlt-assoc", "RLT associativity must be at least 1");
    if (h.rltEntries % h.rltAssoc != 0 ||
        !isPowerOfTwo(h.rltEntries / h.rltAssoc) ||
        h.rltEntries > kMaxRltEntries)
        return bad("--rlt-entries", "RLT of ", h.rltEntries,
                   " entries must hold a power-of-two number of ",
                   h.rltAssoc, "-way sets, at most ", kMaxRltEntries,
                   " entries");
    return okStatus();
}

Status
checkTraceCpus(const std::vector<TraceRecord> &records,
               const WorkloadProfile &profile)
{
    for (const TraceRecord &r : records)
        if (r.cpu >= profile.numCpus)
            return makeError(ErrorKind::Bounds, "record cpu ",
                             unsigned(r.cpu), " out of range for profile ",
                             profile.name, " (", profile.numCpus,
                             " cpus)");
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
