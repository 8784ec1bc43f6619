#include "trace/generator.hh"

#include "trace/trace_stream.hh"

#include <algorithm>
#include <cmath>

#include "base/bitops.hh"
#include "base/log.hh"
#include "vm/addr_space.hh"

namespace vrc
{

// ---------------------------------------------------------------------
// NestedWorkingSetSampler
// ---------------------------------------------------------------------

NestedWorkingSetSampler::NestedWorkingSetSampler(
    std::vector<WorkingSetLevel> levels, std::uint32_t block_bytes,
    std::uint32_t region_base)
    : _levels(std::move(levels)), _blockBytes(block_bytes),
      _regionBase(region_base)
{
    panicIfNot(!_levels.empty(), "sampler needs at least one level");
    std::sort(_levels.begin(), _levels.end(),
              [](const auto &a, const auto &b) { return a.bytes < b.bytes; });
    for (const auto &l : _levels) {
        _weights.push_back(l.weight);
        _blocks.push_back(std::max<std::uint32_t>(1, l.bytes / _blockBytes));
    }
    _weightTotal = Rng::weightTotal(_weights);
}

std::uint32_t
NestedWorkingSetSampler::sample(Rng &rng) const
{
    std::size_t li = rng.weighted(_weights, _weightTotal);
    std::uint32_t block = static_cast<std::uint32_t>(rng.below(_blocks[li]));
    std::uint32_t offset = static_cast<std::uint32_t>(
        rng.below(_blockBytes)) & ~3u;
    return _regionBase + block * _blockBytes + offset;
}

// ---------------------------------------------------------------------
// Address-space setup shared by generator and simulator
// ---------------------------------------------------------------------

namespace
{

std::uint32_t
textPages(const WorkloadProfile &p)
{
    std::uint64_t text_bytes =
        std::uint64_t{p.procCount} * p.procStride;
    return static_cast<std::uint32_t>(
        (text_bytes + p.pageSize - 1) / p.pageSize);
}

} // namespace

std::uint32_t
processCount(const WorkloadProfile &profile)
{
    return profile.numCpus * profile.processesPerCpu;
}

void
setupAddressSpaces(const WorkloadProfile &profile,
                   AddressSpaceManager &spaces)
{
    const std::uint32_t page = spaces.pageSize();
    panicIfNot(page == profile.pageSize,
               "profile/page-size mismatch between trace and simulator");

    SegmentId text = spaces.createSegment(
        textPages(profile), VirtualLayout::textBase / page);
    SegmentId shared = spaces.createSegment(
        profile.sharedPages, VirtualLayout::sharedBase / page);

    const std::uint32_t nproc = processCount(profile);
    for (ProcessId pid = 0; pid < nproc; ++pid) {
        spaces.attachSegment(pid, text, VirtualLayout::textBase / page);
        spaces.attachSegment(pid, shared,
                             VirtualLayout::sharedBase / page);
        spaces.attachSegment(
            pid, shared,
            VirtualLayout::aliasBase(pid, profile.sharedPages, page) /
                page);
    }
}

// ---------------------------------------------------------------------
// Generator internals
// ---------------------------------------------------------------------

namespace
{

/** Zipf-weighted procedure popularity. */
std::vector<double>
zipfWeights(std::uint32_t count, double theta)
{
    std::vector<double> w(count);
    for (std::uint32_t i = 0; i < count; ++i)
        w[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    return w;
}

/** Execution state of one simulated process. */
struct ProcessState
{
    ProcessId pid = 0;
    std::uint32_t pc = VirtualLayout::textBase;
    std::uint32_t procEntry = VirtualLayout::textBase;
    std::uint32_t sp = VirtualLayout::stackBase + 0x8000;
    /** Last private data address touched (temporal-reuse source). */
    std::uint32_t lastData = VirtualLayout::privateDataBase;
    /** Current shared block being worked on (0 = none yet). */
    std::uint32_t lastShared = 0;
    /** Return address + frame size for each live call. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> callStack;
};

/** Data reads per instruction fetch. */
double
readsPerInstr(const WorkloadProfile &p)
{
    return p.instrFrac > 0 ? p.readFrac / p.instrFrac : 0;
}

/** Writes per instruction fetch beyond those of call bursts. */
double
bgWritesPerInstr(const WorkloadProfile &p)
{
    double writes_per_instr =
        p.instrFrac > 0 ? p.writeFrac / p.instrFrac : 0;
    double burst_mean = (p.callWritesMin + p.callWritesMax) / 2.0;
    return std::max(0.0, writes_per_instr - p.callProb * burst_mean);
}

/**
 * A per-instruction rate split as the historical draw loop
 * `for (x = rate; x >= 1 || chance(x); x -= 1)` consumes it: whole
 * unconditional references, then one Bernoulli draw on what is left.
 */
struct RefRate
{
    explicit RefRate(double rate)
    {
        double x = rate;
        for (; x >= 1.0; x -= 1.0)
            whole += 1;
        extra = Rng::threshold(x);
    }

    std::uint32_t whole = 0;
    Rng::Threshold extra;
};

/**
 * Everything an engine derives from the profile alone, built once per
 * stream and shared by its CPUs. Every fixed probability the engines
 * test is held as its Rng::threshold, so each test is a raw draw and
 * one integer compare rather than a real conversion.
 */
struct ProfileTables
{
    explicit ProfileTables(const WorkloadProfile &p)
        : procWeights(zipfWeights(p.procCount, p.procZipfTheta)),
          procWeightTotal(Rng::weightTotal(procWeights)),
          dataSampler(p.dataLevels, p.dataBlockBytes,
                      VirtualLayout::privateDataBase),
          sharedSampler(
              // A small, hot, actively contended region (locks,
              // frequently updated shared state) in front of the full
              // segment: this is what keeps shared blocks resident in
              // several level-1 caches at once, producing genuine
              // coherence percolation (Tables 11-13).
              {{8 * p.dataBlockBytes, 0.60},
               {std::max<std::uint32_t>(p.sharedPages * p.pageSize / 16,
                                        64 * p.dataBlockBytes),
                0.22},
               {p.sharedPages * p.pageSize, 0.18}},
              p.dataBlockBytes, 0),
          reads(readsPerInstr(p)), bgWrites(bgWritesPerInstr(p)),
          loopBack(Rng::threshold(p.loopBackProb)),
          call(Rng::threshold(p.callProb)),
          ret(Rng::threshold(p.returnProb)),
          shortCall(Rng::threshold(0.002)),
          hotspot(Rng::threshold(p.hotspotFrac)),
          repeat(Rng::threshold(p.repeatFrac)),
          seq(Rng::threshold(p.seqFrac)),
          stackRead(Rng::threshold(p.stackReadFrac)),
          shared(Rng::threshold(p.sharedFrac)),
          sharedWrite(Rng::threshold(p.sharedWriteFrac)),
          sharedRepeat(Rng::threshold(p.sharedRepeatFrac)),
          alias(Rng::threshold(p.aliasFrac))
    {
    }

    std::vector<double> procWeights;
    double procWeightTotal;
    NestedWorkingSetSampler dataSampler;
    NestedWorkingSetSampler sharedSampler;
    RefRate reads, bgWrites;
    Rng::Threshold loopBack, call, ret, shortCall;
    Rng::Threshold hotspot, repeat, seq, stackRead;
    Rng::Threshold shared, sharedWrite, sharedRepeat, alias;
};

/** Per-CPU generation engine: emits one TraceRecord per step. */
class CpuEngine
{
  public:
    CpuEngine(const WorkloadProfile &p, const ProfileTables &tables,
              CpuId cpu, Rng rng, GenStats &stats)
        : _p(p), _tables(tables), _cpu(cpu), _rng(std::move(rng)),
          _stats(stats)
    {
        for (std::uint32_t k = 0; k < p.processesPerCpu; ++k) {
            ProcessState ps;
            ps.pid = cpu * p.processesPerCpu + k;
            // Desynchronize processes so CPUs don't run in lockstep.
            ps.procEntry = procEntryAddr(
                static_cast<std::uint32_t>(_rng.below(p.procCount)));
            ps.pc = ps.procEntry;
            _procs.push_back(ps);
        }
    }

    ProcessId activePid() const { return _procs[_active].pid; }

    /** Rotate to the next process; returns the new pid. */
    ProcessId
    contextSwitch()
    {
        _active = (_active + 1) % _procs.size();
        _stats.contextSwitches += 1;
        return activePid();
    }

    /** Produce the next memory reference for the active process. */
    TraceRecord
    next()
    {
        if (_pendingHead < _pending.size()) {
            TraceRecord r = _pending[_pendingHead++];
            note(r);
            return r;
        }
        _pending.clear();
        _pendingHead = 0;
        ProcessState &ps = _procs[_active];
        TraceRecord instr =
            makeRef(_cpu, RefType::Instr, ps.pid, VirtAddr(ps.pc));
        stepControlFlow(ps);
        scheduleDataRefs(ps);
        note(instr);
        return instr;
    }

  private:
    std::uint32_t
    procEntryAddr(std::uint32_t proc_index) const
    {
        return VirtualLayout::textBase + proc_index * _p.procStride;
    }

    void
    note(const TraceRecord &r)
    {
        switch (r.type) {
          case RefType::Instr:
            _stats.totalInstr += 1;
            break;
          case RefType::Read:
            _stats.totalReads += 1;
            break;
          case RefType::Write:
            _stats.totalWrites += 1;
            break;
          default:
            break;
        }
    }

    /** Advance the PC: sequential fetch, loops, calls and returns. */
    void
    stepControlFlow(ProcessState &ps)
    {
        ps.pc += 4;
        bool past_end = ps.pc >= ps.procEntry + _p.procStride;

        if (!past_end && _rng.chance(_tables.loopBack)) {
            std::uint32_t span = static_cast<std::uint32_t>(
                _rng.range(8, std::max<std::uint32_t>(8, _p.loopSpanBytes)));
            span &= ~3u;
            ps.pc = std::max(ps.procEntry, ps.pc - span);
            return;
        }

        if (!past_end && ps.callStack.size() < _p.maxCallDepth &&
            _rng.chance(_tables.call)) {
            doCall(ps);
            return;
        }

        if (past_end || (!ps.callStack.empty() &&
                         _rng.chance(_tables.ret))) {
            doReturn(ps);
            return;
        }
    }

    void
    doCall(ProcessState &ps)
    {
        std::uint32_t writes = static_cast<std::uint32_t>(
            _rng.range(_p.callWritesMin, _p.callWritesMax));
        // The paper's Table 1 shows a small residue of 1..5-write calls.
        if (_rng.chance(_tables.shortCall))
            writes = static_cast<std::uint32_t>(_rng.range(1, 5));

        std::uint32_t frame = writes * 4;
        if (ps.sp < VirtualLayout::stackBase + frame + 256)
            ps.sp = VirtualLayout::stackBase + 0x8000; // stack reset guard
        for (std::uint32_t i = 0; i < writes; ++i) {
            ps.sp -= 4;
            _pending.push_back(
                makeRef(_cpu, RefType::Write, ps.pid, VirtAddr(ps.sp)));
        }
        _stats.totalCalls += 1;
        _stats.callWrites.record(writes);
        _stats.callWriteCount += writes;

        ps.callStack.emplace_back(ps.pc, frame);
        std::uint32_t callee = static_cast<std::uint32_t>(
            _rng.weighted(_tables.procWeights,
                          _tables.procWeightTotal));
        ps.procEntry = procEntryAddr(callee);
        ps.pc = ps.procEntry;
    }

    void
    doReturn(ProcessState &ps)
    {
        if (ps.callStack.empty()) {
            // Main loop wrapped around: restart a fresh top procedure.
            std::uint32_t callee = static_cast<std::uint32_t>(
                _rng.weighted(_tables.procWeights,
                              _tables.procWeightTotal));
            ps.procEntry = procEntryAddr(callee);
            ps.pc = ps.procEntry;
            return;
        }
        auto [ret_pc, frame] = ps.callStack.back();
        ps.callStack.pop_back();
        ps.sp += frame;
        ps.pc = ret_pc;
        // Recover the enclosing procedure entry from the return address.
        std::uint32_t idx =
            (ret_pc - VirtualLayout::textBase) / _p.procStride;
        ps.procEntry = procEntryAddr(idx);
    }

    /** Queue the data references associated with one instruction. */
    void
    scheduleDataRefs(ProcessState &ps)
    {
        // The whole references draw their addresses before the extra
        // reference's Bernoulli draw, as the historical loop did.
        for (std::uint32_t i = 0; i < _tables.reads.whole; ++i)
            pushRead(ps);
        if (_rng.chance(_tables.reads.extra))
            pushRead(ps);
        for (std::uint32_t i = 0; i < _tables.bgWrites.whole; ++i)
            pushWrite(ps);
        if (_rng.chance(_tables.bgWrites.extra))
            pushWrite(ps);
    }

    void
    pushRead(ProcessState &ps)
    {
        _pending.push_back(
            makeRef(_cpu, RefType::Read, ps.pid, VirtAddr(readAddr(ps))));
    }

    void
    pushWrite(ProcessState &ps)
    {
        _pending.push_back(
            makeRef(_cpu, RefType::Write, ps.pid, VirtAddr(writeAddr(ps))));
    }

    /** One block of the globally hot, constantly polled set. */
    std::uint32_t
    hotspotAddr()
    {
        // The hotspot lives at the tail of the shared segment, away
        // from the contended-region levels at its head.
        std::uint32_t limit = _p.sharedPages * _p.pageSize;
        std::uint32_t block = static_cast<std::uint32_t>(
            _rng.below(std::max<std::uint32_t>(1, _p.hotspotBlocks)));
        return VirtualLayout::sharedBase + limit -
            (block + 1) * _p.dataBlockBytes;
    }

    std::uint32_t
    sharedAddr(ProcessState &ps)
    {
        // Bursty sharing: keep working on the current shared block for
        // a while before moving on, as real producer/consumer and
        // shared-structure code does.
        if (ps.lastShared != 0 && _rng.chance(_tables.sharedRepeat))
            return ps.lastShared;
        std::uint32_t offset = _tables.sharedSampler.sample(_rng);
        std::uint32_t limit = _p.sharedPages * _p.pageSize;
        offset %= limit;
        if (_rng.chance(_tables.alias)) {
            ps.lastShared = VirtualLayout::aliasBase(
                                ps.pid, _p.sharedPages, _p.pageSize) +
                offset;
        } else {
            ps.lastShared = VirtualLayout::sharedBase + offset;
        }
        return ps.lastShared;
    }

    std::uint32_t
    readAddr(ProcessState &ps)
    {
        if (_rng.chance(_tables.hotspot))
            return hotspotAddr();
        if (_rng.chance(_tables.repeat))
            return ps.lastData;
        if (_rng.chance(_tables.seq)) {
            ps.lastData += 4;  // array walk continues
            return ps.lastData;
        }
        if (_rng.chance(_tables.stackRead))
            return ps.sp + static_cast<std::uint32_t>(_rng.below(16)) * 4;
        if (_rng.chance(_tables.shared))
            return sharedAddr(ps);
        ps.lastData = _tables.dataSampler.sample(_rng);
        return ps.lastData;
    }

    std::uint32_t
    writeAddr(ProcessState &ps)
    {
        if (_rng.chance(_tables.hotspot))
            return hotspotAddr();
        if (_rng.chance(_tables.repeat))
            return ps.lastData;
        if (_rng.chance(_tables.seq)) {
            ps.lastData += 4;
            return ps.lastData;
        }
        if (_rng.chance(_tables.shared) &&
            _rng.chance(_tables.sharedWrite))
            return sharedAddr(ps);
        ps.lastData = _tables.dataSampler.sample(_rng);
        return ps.lastData;
    }

    const WorkloadProfile &_p;
    const ProfileTables &_tables;
    CpuId _cpu;
    Rng _rng;
    GenStats &_stats;
    std::vector<ProcessState> _procs;
    std::size_t _active = 0;
    /** Data references of the last instruction, drained from the head. */
    std::vector<TraceRecord> _pending;
    std::size_t _pendingHead = 0;
};

} // namespace

// ---------------------------------------------------------------------
// TraceStream: incremental generation
// ---------------------------------------------------------------------

/**
 * Streaming state: the per-CPU engines plus the round-robin interleave
 * cursor. The emission order is identical to the historical
 * generateTrace() loop: CPUs are visited round-robin; a visit first
 * emits a due context-switch marker, then one engine record.
 */
struct TraceStream::Impl
{
    explicit Impl(const WorkloadProfile &p)
        : profile(p), tables(profile), perCpu(p.totalRefs / p.numCpus),
          nextSwitch(p.numCpus, 0), switchInterval(p.numCpus, 0),
          switchesLeft(p.numCpus, 0), emitted(p.numCpus, 0)
    {
        panicIfNot(profile.numCpus >= 1, "need at least one CPU");
        panicIfNot(std::abs(profile.instrFrac + profile.readFrac +
                            profile.writeFrac - 1.0) < 0.05,
                   "reference mix should sum to ~1");
        Rng root(profile.seed);
        engines.reserve(profile.numCpus);
        for (CpuId c = 0; c < profile.numCpus; ++c)
            engines.emplace_back(profile, tables, c, root.fork(), genStats);

        // Spread context switches across CPUs, remainder to low CPUs.
        for (CpuId c = 0; c < profile.numCpus; ++c) {
            std::uint32_t n = profile.contextSwitches / profile.numCpus +
                (c < profile.contextSwitches % profile.numCpus ? 1 : 0);
            switchesLeft[c] = n;
            switchInterval[c] = n > 0 ? perCpu / (n + 1) : 0;
            nextSwitch[c] = switchInterval[c];
            // A switch goes out only ahead of one of the CPU's records:
            // all n when they are spaced apart, else one per record.
            expected += perCpu + std::min<std::uint64_t>(n, perCpu);
        }
    }

    bool
    next(TraceRecord &out)
    {
        if (owedEngineRecord) {
            // The context-switch marker for this CPU just went out; the
            // engine record of the same visit follows.
            owedEngineRecord = false;
            out = engines[cursor].next();
            emitted[cursor] += 1;
            advance();
            produced += 1;
            return true;
        }
        for (std::uint32_t scanned = 0; scanned < profile.numCpus;
             ++scanned) {
            CpuId c = cursor;
            if (emitted[c] >= perCpu) {
                advance();
                continue;
            }
            if (switchesLeft[c] > 0 && emitted[c] >= nextSwitch[c]) {
                ProcessId new_pid = engines[c].contextSwitch();
                switchesLeft[c] -= 1;
                nextSwitch[c] += switchInterval[c];
                owedEngineRecord = true;
                out = makeContextSwitch(c, new_pid);
                produced += 1;
                return true;
            }
            out = engines[c].next();
            emitted[c] += 1;
            advance();
            produced += 1;
            return true;
        }
        return false;
    }

    void
    advance()
    {
        if (++cursor == profile.numCpus)
            cursor = 0;
    }

    WorkloadProfile profile;
    ProfileTables tables;
    GenStats genStats;
    std::vector<CpuEngine> engines;
    std::uint64_t perCpu;
    std::vector<std::uint64_t> nextSwitch;
    std::vector<std::uint64_t> switchInterval;
    std::vector<std::uint32_t> switchesLeft;
    std::vector<std::uint64_t> emitted;
    CpuId cursor = 0;
    bool owedEngineRecord = false;
    std::uint64_t produced = 0;
    /** Records the stream emits in all: engine records plus switches. */
    std::uint64_t expected = 0;
};

TraceStream::TraceStream(const WorkloadProfile &profile)
    : _impl(std::make_unique<Impl>(profile))
{
}

TraceStream::~TraceStream() = default;
TraceStream::TraceStream(TraceStream &&) noexcept = default;
TraceStream &TraceStream::operator=(TraceStream &&) noexcept = default;

bool
TraceStream::next(TraceRecord &out)
{
    return _impl->next(out);
}

std::size_t
TraceStream::nextBatch(TraceRecord *out, std::size_t cap)
{
    Impl &impl = *_impl;
    std::size_t n = 0;
    while (n < cap && impl.next(out[n]))
        ++n;
    return n;
}

std::uint64_t
TraceStream::produced() const
{
    return _impl->produced;
}

std::uint64_t
TraceStream::expectedTotal() const
{
    return _impl->expected;
}

const WorkloadProfile &
TraceStream::profile() const
{
    return _impl->profile;
}

const GenStats &
TraceStream::stats() const
{
    return _impl->genStats;
}

TraceBundle
generateTrace(const WorkloadProfile &profile)
{
    TraceBundle bundle;
    bundle.profile = profile;
    TraceStream stream(profile);
    bundle.records.reserve(stream.expectedTotal());

    TraceRecord r;
    while (stream.next(r))
        bundle.records.push_back(r);
    bundle.stats = stream.stats();
    return bundle;
}

} // namespace vrc
