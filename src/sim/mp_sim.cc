#include "sim/mp_sim.hh"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "base/log.hh"
#include "core/rr_hierarchy.hh"
#include "core/vr_hierarchy.hh"
#include "trace/generator.hh"
#include "trace/trace_stream.hh"

namespace vrc
{

namespace
{

/** Records decoded per streaming batch (32 KiB of TraceRecords). */
constexpr std::size_t kStreamBatch = 4096;

/** Batches the decode stage may run ahead of replay (128 KiB ring). */
constexpr std::size_t kRingSlots = 4;

/**
 * The decode stage of run(TraceStream&) and its bounded hand-off to
 * replay. Construction starts a producer thread that fills slot
 * `filled % kRingSlots` while fewer than kRingSlots batches await
 * replay; the consumer takes batch b with acquire(b) and hands its slot
 * back with release(). Destruction stops and joins the producer, so no
 * exit from run() leaves it running. The fields below the mutex are
 * guarded by it; a slot's records belong to whichever stage holds it
 * between the counter updates.
 */
class DecodeRing
{
  public:
    explicit DecodeRing(TraceStream &stream)
        : _producer([this, &stream] { produce(stream); })
    {
    }

    ~DecodeRing()
    {
        {
            std::lock_guard lock(_mutex);
            _stop = true;
        }
        _slotFreed.notify_one();
        _producer.join();
    }

    DecodeRing(const DecodeRing &) = delete;
    DecodeRing &operator=(const DecodeRing &) = delete;

    /**
     * Wait for batch @p b (batches are taken in order) and return its
     * record count; its records are at slot(b). Returns 0 once every
     * decoded batch has been taken and the stream ended, or rethrows
     * what stopped the producer if it failed.
     */
    std::size_t
    acquire(std::uint64_t b)
    {
        std::unique_lock lock(_mutex);
        _slotFilled.wait(lock, [&] { return b < _filled || _exhausted; });
        if (b < _filled)
            return _counts[b % kRingSlots];
        if (_error)
            std::rethrow_exception(_error);
        return 0;
    }

    /** Hand the oldest acquired slot back to the producer. */
    void
    release()
    {
        {
            std::lock_guard lock(_mutex);
            ++_replayed;
        }
        _slotFreed.notify_one();
    }

    TraceRecord *
    slot(std::uint64_t b)
    {
        return _records.get() + (b % kRingSlots) * kStreamBatch;
    }

  private:
    void
    produce(TraceStream &stream)
    {
        std::exception_ptr failure;
        try {
            for (std::uint64_t b = 0;; ++b) {
                {
                    std::unique_lock lock(_mutex);
                    _slotFreed.wait(lock, [&] {
                        return _stop || b - _replayed < kRingSlots;
                    });
                    if (_stop)
                        break;
                }
                std::size_t n = stream.nextBatch(slot(b), kStreamBatch);
                if (n == 0)
                    break;
                std::lock_guard lock(_mutex);
                _counts[b % kRingSlots] = n;
                ++_filled;
                _slotFilled.notify_one();
            }
        } catch (...) {
            failure = std::current_exception();
        }
        std::lock_guard lock(_mutex);
        _error = failure;
        _exhausted = true;
        _slotFilled.notify_one();
    }

    std::unique_ptr<TraceRecord[]> _records =
        std::make_unique_for_overwrite<TraceRecord[]>(kRingSlots *
                                                      kStreamBatch);

    std::mutex _mutex;
    std::condition_variable _slotFilled;
    std::condition_variable _slotFreed;
    std::array<std::size_t, kRingSlots> _counts{}; ///< records per slot
    std::uint64_t _filled = 0;   ///< batches decoded so far
    std::uint64_t _replayed = 0; ///< batches released by the consumer
    bool _exhausted = false;     ///< producer is done (end or error)
    bool _stop = false;          ///< consumer is gone: produce no more
    std::exception_ptr _error;   ///< what stopped the producer, if any

    /** Declared last: starts once every member above is ready. */
    std::thread _producer;
};

} // namespace

MpSimulator::MpSimulator(const MachineConfig &config,
                         const WorkloadProfile &profile)
    : _config(config),
      _spaces(profile.pageSize, config.physPages),
      _bus(config.hierarchy.softErrors)
{
    panicIfNot(config.hierarchy.pageSize == profile.pageSize,
               "hierarchy/profile page size mismatch");
    setupAddressSpaces(profile, _spaces);
    for (CpuId c = 0; c < profile.numCpus; ++c) {
        _cpus.push_back(
            makeHierarchy(config.kind, config.hierarchy, _spaces, _bus));
        panicIfNot(_cpus.back()->cpuId() == c,
                   "bus assigned an unexpected CPU id");
        // Resolve the per-outcome level costs once: the composition is
        // a pure function of the organization and the timing params.
        std::array<Tick, 4> costs{};
        for (int o = 0; o < 4; ++o) {
            costs[o] = _cpus.back()->levelCost(
                static_cast<AccessOutcome>(o), config.timing);
        }
        _costs.push_back(costs);
    }
    if (config.timingMode == TimingMode::Cycle) {
        _clocks.resize(profile.numCpus);
        _arbiter = std::make_unique<BusArbiter>(config.busTiming);
        _bus.setArbiter(_arbiter.get());
    }
}

template <typename H>
void
MpSimulator::replayTyped(const TraceRecord *records, std::size_t n)
{
    // Every record reaches a hierarchy through this loop. Each CPU's
    // dynamic type is H (hierarchy classes are final), so the
    // H::-qualified calls are direct and inline into the loop.
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = records[i];
        panicIfNot(r.cpu < _cpus.size(),
                   "trace references an unknown CPU");
        H &h = static_cast<H &>(*_cpus[r.cpu]);
        if (r.type == RefType::ContextSwitch) {
            h.H::contextSwitch(r.pid);
            // A switch issues no reference, but any transactions it
            // did queue (none today) must not leak into the next one.
            if (_arbiter)
                _arbiter->drain(_clocks);
            continue;
        }
        AccessOutcome outcome =
            h.H::access(MemAccess{r.type, r.va(), r.pid});
        Tick cost = _costs[r.cpu][static_cast<int>(outcome)];
        _cycles += cost;
        if (_arbiter) {
            // Cycle engine: the reference advances its CPU's clock by
            // the composed level cost, then every bus transaction it
            // issued (posted to the arbiter by SharedBus during
            // access(), including soft-error retransmissions) wins the
            // bus in grant order, stalling this CPU for queueing delay
            // plus service.
            _clocks[r.cpu].chargeAccess(cost);
            _arbiter->drain(_clocks);
        }
        ++_refs;
        if (_config.invariantPeriod != 0 &&
            _refs % _config.invariantPeriod == 0) {
            h.H::checkInvariants();
        }
    }
}

void
MpSimulator::runBatch(const TraceRecord *records, std::size_t n)
{
    switch (_config.kind) {
      case HierarchyKind::VirtualReal:
      case HierarchyKind::RealRealIncl:
      case HierarchyKind::VirtualRealRlt:
        // All three kinds are VrHierarchy instances (factory.cc).
        replayTyped<VrHierarchy>(records, n);
        return;
      case HierarchyKind::RealRealNoIncl:
        replayTyped<RrNoInclHierarchy>(records, n);
        return;
    }
    panic("runBatch: unknown hierarchy kind ",
          static_cast<int>(_config.kind));
}

void
MpSimulator::run(const std::vector<TraceRecord> &records)
{
    runBatch(records.data(), records.size());
}

void
MpSimulator::run(TraceStream &stream)
{
    // Two-stage pipeline: the ring's producer thread decodes batches
    // while this thread replays them in order. The generator shares
    // nothing with the machine, so the stages meet only at the ring,
    // and replay sees exactly the batches a serial
    // `nextBatch(); runBatch();` loop would have given it.
    DecodeRing ring(stream);
    for (std::uint64_t b = 0; std::size_t n = ring.acquire(b); ++b) {
        runBatch(ring.slot(b), n);
        ring.release();
    }
}

double
MpSimulator::h1() const
{
    std::uint64_t refs = totalCounter(HierarchyStat::Refs);
    std::uint64_t hits = totalCounter(HierarchyStat::L1Hits);
    return refs ? static_cast<double>(hits) / static_cast<double>(refs)
                : 0.0;
}

double
MpSimulator::h2() const
{
    std::uint64_t refs = totalCounter(HierarchyStat::Refs);
    std::uint64_t hits = totalCounter(HierarchyStat::L1Hits);
    std::uint64_t l2 = totalCounter(HierarchyStat::L2Hits) +
        totalCounter(HierarchyStat::SynonymHits);
    std::uint64_t miss1 = refs - hits;
    return miss1 ? static_cast<double>(l2) / static_cast<double>(miss1)
                 : 0.0;
}

double
MpSimulator::h1ForType(RefType t) const
{
    const int i = static_cast<int>(t);
    std::uint64_t refs = totalCounter(CacheHierarchy::kRefsByType[i]);
    std::uint64_t hits = totalCounter(CacheHierarchy::kL1HitsByType[i]);
    return refs ? static_cast<double>(hits) / static_cast<double>(refs)
                : 0.0;
}

std::uint64_t
MpSimulator::totalCounter(HierarchyStat s) const
{
    std::uint64_t total = 0;
    for (const auto &cpu : _cpus)
        total += cpu->stats()[s];
    return total;
}

std::uint64_t
MpSimulator::totalCounter(std::string_view name) const
{
    std::uint64_t total = 0;
    for (const auto &cpu : _cpus)
        total += cpu->stats().value(name);
    return total;
}

void
MpSimulator::remapPage(ProcessId pid, Vpn vpn, Ppn new_ppn)
{
    auto old_pa = _spaces.tryTranslate(
        pid, makeVirtAddr(vpn, 0, _spaces.pageSize()));
    if (old_pa) {
        // Reclaim the old frame: flush dirty data and invalidate every
        // cached copy through the coherent physical level. The
        // transactions come from a system agent (no attached snooper),
        // so every hierarchy responds. invalidCpu never collides with a
        // bus id -- _cpus.size() would be the next attached agent's id,
        // e.g. a DMA device.
        std::uint32_t line = _config.hierarchy.l2.blockBytes;
        std::uint32_t base = old_pa->value();
        for (std::uint32_t off = 0; off < _spaces.pageSize();
             off += line) {
            _bus.broadcast(BusTransaction{
                BusOp::ReadModWrite, PhysAddr(base + off), invalidCpu});
        }
    }
    for (auto &cpu : _cpus)
        cpu->tlbShootdown(pid, vpn);
    _spaces.pageTable(pid).map(vpn, new_ppn);
    // The flush transactions came from an unclocked system agent; they
    // occupy bus slots back-to-back at the bus-free point.
    if (_arbiter)
        _arbiter->drain(_clocks);
}

void
MpSimulator::resetStats()
{
    for (auto &cpu : _cpus)
        cpu->resetStats();
    _bus.resetStats();
    _refs = 0;
    _cycles = 0.0;
    for (CpuClock &c : _clocks)
        c.reset();
    if (_arbiter)
        _arbiter->reset();
}

double
MpSimulator::busUtilization() const
{
    if (!_arbiter)
        return 0.0;
    // Horizon: the furthest simulated instant any agent reached. The
    // bus-free point covers unclocked system transactions that may
    // extend past every CPU's clock.
    Tick horizon = _arbiter->freeAt();
    for (const CpuClock &c : _clocks)
        horizon = std::max(horizon, c.now());
    return _arbiter->utilization(horizon);
}

double
MpSimulator::avgAccessCycles() const
{
    if (!_arbiter)
        return measuredAccessTime();
    if (_refs == 0)
        return 0.0;
    Tick total = 0.0;
    for (const CpuClock &c : _clocks)
        total += c.now();
    return total / static_cast<double>(_refs);
}

void
MpSimulator::checkInvariants() const
{
    for (const auto &cpu : _cpus)
        cpu->checkInvariants();
}

} // namespace vrc
