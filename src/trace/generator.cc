#include "trace/generator.hh"

#include "trace/trace_stream.hh"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

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

/**
 * When one CPU's context switches go out, counted in the CPU's own
 * engine records. A switch marker goes out just ahead of a record, so
 * n switches over m records are spaced m / (n + 1) records apart; when
 * that spacing is 0 they precede the first min(n, m) records instead.
 * The schedule depends only on counts, never on draws, which is what
 * lets generateTrace() place every record in closed form.
 */
class SwitchSchedule
{
  public:
    SwitchSchedule(std::uint64_t records, std::uint32_t switches)
        : _interval(records / (std::uint64_t{switches} + 1)),
          _count(std::min<std::uint64_t>(switches, records))
    {
    }

    /** Switches that actually go out. */
    std::uint64_t count() const { return _count; }

    /** True if a switch marker goes out just ahead of record @p e. */
    bool
    before(std::uint64_t e) const
    {
        if (_interval == 0)
            return e < _count;
        return e != 0 && e % _interval == 0 && e / _interval <= _count;
    }

    /** Switches that went out ahead of records 0 .. e-1. */
    std::uint64_t
    countBefore(std::uint64_t e) const
    {
        if (_interval == 0)
            return std::min(e, _count);
        return e == 0 ? 0 : std::min(_count, (e - 1) / _interval);
    }

  private:
    std::uint64_t _interval;
    std::uint64_t _count;
};

void
checkProfile(const WorkloadProfile &p)
{
    panicIfNot(p.numCpus >= 1, "need at least one CPU");
    panicIfNot(std::abs(p.instrFrac + p.readFrac + p.writeFrac - 1.0) <
                   0.05,
               "reference mix should sum to ~1");
}

/** Engine records each CPU emits: the remainder is never generated. */
std::uint64_t
recordsPerCpu(const WorkloadProfile &p)
{
    return p.totalRefs / p.numCpus;
}

/** Each CPU's switch schedule; the remainder goes to low CPUs. */
std::vector<SwitchSchedule>
switchSchedules(const WorkloadProfile &p)
{
    std::vector<SwitchSchedule> out;
    out.reserve(p.numCpus);
    for (CpuId c = 0; c < p.numCpus; ++c)
        out.emplace_back(recordsPerCpu(p),
                         p.contextSwitches / p.numCpus +
                             (c < p.contextSwitches % p.numCpus ? 1 : 0));
    return out;
}

/** Each CPU's Rng, forked from the profile seed in CPU order. */
std::vector<Rng>
cpuRngs(const WorkloadProfile &p)
{
    Rng root(p.seed);
    std::vector<Rng> out;
    out.reserve(p.numCpus);
    for (CpuId c = 0; c < p.numCpus; ++c)
        out.push_back(root.fork());
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// TraceStream: incremental generation
// ---------------------------------------------------------------------

/**
 * Streaming state: the per-CPU engines plus the round-robin interleave
 * cursor. Round r visits every CPU in order; a visit first emits the
 * CPU's context-switch marker if its schedule has one due before its
 * record r, then that engine record. Every CPU emits the same number of
 * engine records, so all of them finish in the same round.
 */
struct TraceStream::Impl
{
    explicit Impl(const WorkloadProfile &p)
        : profile(p), tables(profile)
    {
        checkProfile(profile);
        rounds = recordsPerCpu(profile);
        schedules = switchSchedules(profile);
        std::vector<Rng> rngs = cpuRngs(profile);
        engines.reserve(profile.numCpus);
        for (CpuId c = 0; c < profile.numCpus; ++c) {
            engines.emplace_back(profile, tables, c, std::move(rngs[c]),
                                 genStats);
            expected += rounds + schedules[c].count();
        }
    }

    bool
    next(TraceRecord &out)
    {
        if (round == rounds)
            return false;
        if (!owedEngineRecord && schedules[cursor].before(round)) {
            // The engine record of the same visit follows.
            owedEngineRecord = true;
            out = makeContextSwitch(cursor, engines[cursor].contextSwitch());
        } else {
            owedEngineRecord = false;
            out = engines[cursor].next();
            if (++cursor == profile.numCpus) {
                cursor = 0;
                ++round;
            }
        }
        produced += 1;
        return true;
    }

    WorkloadProfile profile;
    ProfileTables tables;
    GenStats genStats;
    std::vector<CpuEngine> engines;
    std::uint64_t rounds = 0;
    std::vector<SwitchSchedule> schedules;
    std::uint64_t round = 0;
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

// ---------------------------------------------------------------------
// generateTrace: one worker per CPU
// ---------------------------------------------------------------------

namespace
{

/**
 * Rounds staged per block. A CPU emits at most one switch per record,
 * so its staged block holds at most 2 * 65536 records: 1 MiB.
 */
constexpr std::uint64_t kBlockRounds = 65536;

/** One CPU's engine, statistics and staged block, built by its worker. */
struct alignas(64) CpuLane
{
    CpuLane(const WorkloadProfile &p, const ProfileTables &tables,
            CpuId c, Rng rng, const SwitchSchedule &sched)
        : engine(p, tables, c, std::move(rng), stats), schedule(sched),
          cpu(c),
          staged(std::min(kBlockRounds, recordsPerCpu(p)) +
                 std::min(kBlockRounds, sched.count()))
    {
    }

    // The engine keeps a reference to stats: a lane never moves.
    CpuLane(const CpuLane &) = delete;
    CpuLane &operator=(const CpuLane &) = delete;

    /** Stage this CPU's records of rounds [r0, r1), switches inline. */
    void
    stage(std::uint64_t r0, std::uint64_t r1)
    {
        TraceRecord *w = staged.data();
        for (std::uint64_t r = r0; r < r1; ++r) {
            if (schedule.before(r))
                *w++ = makeContextSwitch(cpu, engine.contextSwitch());
            *w++ = engine.next();
        }
    }

    /** Where round @p r starts in a block staged from round @p r0. */
    const TraceRecord *
    at(std::uint64_t r0, std::uint64_t r) const
    {
        return staged.data() + (r - r0) + schedule.countBefore(r) -
            schedule.countBefore(r0);
    }

    GenStats stats;
    CpuEngine engine;
    const SwitchSchedule &schedule;
    CpuId cpu;
    std::vector<TraceRecord> staged;
};

} // namespace

TraceBundle
generateTrace(const WorkloadProfile &profile)
{
    checkProfile(profile);
    const std::uint32_t ncpu = profile.numCpus;
    const ProfileTables tables(profile);
    const std::uint64_t rounds = recordsPerCpu(profile);
    const std::vector<SwitchSchedule> schedules = switchSchedules(profile);
    std::vector<Rng> rngs = cpuRngs(profile);

    // Round r starts after r records of every CPU and every switch that
    // went out before them.
    auto roundStart = [&](std::uint64_t r) {
        std::uint64_t at = r * ncpu;
        for (const SwitchSchedule &s : schedules)
            at += s.countBefore(r);
        return at;
    };

    TraceBundle bundle;
    bundle.profile = profile;

    const std::uint32_t workers = std::min(
        ncpu, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::unique_ptr<CpuLane>> lanes(ncpu);
    std::barrier sync(workers);
    // A worker that throws stops working but keeps arriving; all of
    // them see the flag after the next barrier and leave together, and
    // the caller rethrows the lowest worker's exception.
    std::vector<std::exception_ptr> errors(workers);
    std::atomic<bool> failed{false};

    // Worker w owns CPUs w, w + workers, ...: it builds their engines on
    // its own thread, then per block stages their records and, once
    // every CPU is staged, interleaves its 1/workers slice of the
    // block's rounds into the output.
    auto work = [&](std::uint32_t w) {
        auto guarded = [&](auto &&fn) {
            if (errors[w])
                return;
            try {
                fn();
            } catch (...) {
                errors[w] = std::current_exception();
                failed = true;
            }
        };
        std::vector<const TraceRecord *> in;
        guarded([&] {
            for (CpuId c = w; c < ncpu; c += workers)
                lanes[c] = std::make_unique<CpuLane>(
                    profile, tables, c, std::move(rngs[c]), schedules[c]);
            in.resize(ncpu);
            // Sized after the caller's own lanes, so their buffers sit
            // below the trace in the heap. Allocated above it, their
            // freed space splits the heap and the next trace of a
            // sweep no longer fits below (+15 MiB peak RSS measured).
            if (w == 0)
                bundle.records.resize(roundStart(rounds));
        });
        for (std::uint64_t r0 = 0; r0 < rounds; r0 += kBlockRounds) {
            const std::uint64_t r1 = std::min(rounds, r0 + kBlockRounds);
            guarded([&] {
                for (CpuId c = w; c < ncpu; c += workers)
                    lanes[c]->stage(r0, r1);
            });
            sync.arrive_and_wait();
            if (failed)
                break;

            const std::uint64_t s0 = r0 + (r1 - r0) * w / workers;
            const std::uint64_t s1 = r0 + (r1 - r0) * (w + 1) / workers;
            for (CpuId c = 0; c < ncpu; ++c)
                in[c] = lanes[c]->at(r0, s0);
            TraceRecord *out = bundle.records.data() + roundStart(s0);
            for (std::uint64_t r = s0; r < s1; ++r) {
                for (CpuId c = 0; c < ncpu; ++c) {
                    const TraceRecord rec = *in[c]++;
                    *out++ = rec;
                    if (rec.type == RefType::ContextSwitch)
                        *out++ = *in[c]++;
                }
            }
            sync.arrive_and_wait();
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    for (std::uint32_t w = 1; w < workers; ++w)
        helpers.emplace_back(work, w);
    work(0);
    for (std::thread &t : helpers)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    for (const auto &lane : lanes)
        bundle.stats.merge(lane->stats);
    return bundle;
}

} // namespace vrc
