/**
 * @file
 * Shared snooping bus.
 *
 * The bus serializes coherence transactions among the per-processor
 * hierarchies (Figure 1 of the paper). A broadcast reaches every snooper
 * except the source; results are merged so the source learns whether the
 * block is shared and whether another cache supplied the data (otherwise
 * memory does). The bus also keeps the per-CPU and per-operation
 * transaction counts the experiments report.
 *
 * Snoop filter: an agent whose second level tracks presence exactly
 * (inclusion hierarchies, where the R-cache directory covers everything
 * the agent could respond to) may attach as *filterable* and notify the
 * bus whenever a second-level line is filled or dropped. broadcast()
 * then skips filterable agents whose presence bit is clear -- the skipped
 * probe is exactly the snoop-miss path, so the bus bumps the agent's
 * snoop/snoop-miss counters on its behalf and every statistic stays
 * bit-identical with the filter on or off. Agents that cannot prove
 * absence (the no-inclusion baseline, whose level-1 probes on every bus
 * transaction are the paper's point) attach unfilterable and are always
 * probed.
 */

#ifndef VRC_COHERENCE_BUS_HH
#define VRC_COHERENCE_BUS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/counter.hh"
#include "base/fault.hh"
#include "coherence/bus_arbiter.hh"
#include "coherence/presence_map.hh"
#include "coherence/snoop.hh"
#include "coherence/transaction.hh"

namespace vrc
{

/** How an agent participates in snoop filtering (see SharedBus). */
struct SnoopAgentInfo
{
    /**
     * The agent's presence notifications are exact: a clear presence
     * bit proves its snoop() would be a miss with no side effects.
     */
    bool filterable = false;

    /** Counters to bump on the agent's behalf when a snoop is skipped
     *  (may be null for agents that keep no snoop statistics). */
    std::uint64_t *snoops = nullptr;
    std::uint64_t *snoopMisses = nullptr;
};

/**
 * The bus counter table (see VRC_STAT_TABLE): one count per operation
 * under busOpName(), and the soft-error timeouts and retries, shown
 * from their first increment on.
 */
#define VRC_BUS_STATS(X)                                               \
    X(Invalidate, "invalidate", Always)                                \
    X(MemorySupplies, "memory_supplies", Always)                       \
    X(ReadMiss, "read-miss", Always)                                   \
    X(ReadModWrite, "read-modified-write", Always)                     \
    X(SoftRetries, "soft_retries", OnFirstUse)                         \
    X(SoftTimeouts, "soft_timeouts", OnFirstUse)                       \
    X(Transactions, "transactions", Always)                            \
    X(Update, "update", Always)

/** The bus counters (VRC_BUS_STATS). */
struct BusStats
{
    static constexpr std::uint32_t OnFirstUse = 0;
    static constexpr std::uint32_t Always = 1;

    VRC_STAT_TABLE(VRC_BUS_STATS)
};
using BusStat = BusStats::Stat;

/**
 * Passive listener notified after every completed broadcast. Used by
 * the coherence oracle (src/check) to validate cross-agent state; with
 * no observer attached the notification costs one branch.
 */
class BusObserver
{
  public:
    virtual ~BusObserver() = default;

    /** @p tx completed with merged result @p result. */
    virtual void onTransaction(const BusTransaction &tx,
                               const BusResult &result) = 0;
};

/** The shared bus connecting all second-level caches and memory. */
class SharedBus
{
  public:
    /** @param soft_errors the machine's strike schedule (bus loss) */
    explicit SharedBus(const SoftErrorConfig &soft_errors = {})
        : _softErrors(soft_errors), _n(BusStats::Always)
    {
    }

    /**
     * Register a snooper.
     *
     * @return the agent's CPU id (registration order).
     */
    CpuId
    attach(Snooper *snooper, SnoopAgentInfo info = {})
    {
        _snoopers.push_back(snooper);
        // Presence is a per-agent bit in a word-sized mask; agents past
        // that width fall back to being probed unconditionally.
        if (_agents.size() >= maxFilterableAgents)
            info.filterable = false;
        _agents.push_back(info);
        _perCpuTx.push_back(0);
        return static_cast<CpuId>(_snoopers.size() - 1);
    }

    /**
     * Broadcast @p tx to every agent except the source and merge their
     * responses. Memory supplies the block when no cache does.
     */
    BusResult
    broadcast(const BusTransaction &tx)
    {
        if (_softErrors.armed()) [[unlikely]]
            absorbLostAttempts(tx);
        ++_txSeq;
        if (_arbiter)
            _arbiter->post(tx.source, tx.op);
        countAttempt(tx);

        AgentMask present = ~AgentMask{0};
        if (_filterEnabled)
            present = _presence.lookup(tx.blockAddr.value());

        SnoopResult merged;
        for (std::size_t i = 0; i < _snoopers.size(); ++i) {
            if (static_cast<CpuId>(i) == tx.source)
                continue;
            const SnoopAgentInfo &info = _agents[i];
            if (info.filterable && !(present & (AgentMask{1} << i))) {
                // Exact absence: the probe would have been a miss.
                // Account for it as one so statistics don't depend on
                // whether the filter is enabled.
                if (info.snoops)
                    (*info.snoops)++;
                if (info.snoopMisses)
                    (*info.snoopMisses)++;
                _snoopsFiltered += 1;
                continue;
            }
            merged.merge(_snoopers[i]->snoop(tx));
        }
        BusResult res;
        res.shared = merged.sharedAck;
        res.suppliedByCache = merged.suppliedData;
        if (!res.suppliedByCache && tx.op != BusOp::Invalidate)
            ++_n[Stat::MemorySupplies];
        if (_observer)
            _observer->onTransaction(tx, res);
        return res;
    }

    /** Attach (or detach with nullptr) a transaction observer. */
    void setObserver(BusObserver *obs) { _observer = obs; }

    /**
     * Attach (or detach with nullptr) the cycle-timing arbiter. When
     * attached, every broadcast attempt -- including soft-error lost
     * attempts that occupy a slot and get retried -- posts one request
     * to the arbiter's grant queue, so arbitration latency and retry
     * occupancy become visible queueing load. Functional behavior and
     * every architectural counter are unaffected.
     */
    void setArbiter(BusArbiter *arb) { _arbiter = arb; }
    BusArbiter *arbiter() { return _arbiter; }

    // --- presence notifications (snoop filter maintenance) -----------

    /** Agent @p cpu filled the second-level line at @p line_addr. */
    void
    noteBlockCached(CpuId cpu, std::uint32_t line_addr)
    {
        if (cpu < maxFilterableAgents && _agents[cpu].filterable)
            _presence.setBits(line_addr, AgentMask{1} << cpu);
    }

    /** Agent @p cpu dropped the second-level line at @p line_addr. */
    void
    noteBlockUncached(CpuId cpu, std::uint32_t line_addr)
    {
        if (cpu >= maxFilterableAgents || !_agents[cpu].filterable)
            return;
        _presence.clearBits(line_addr, AgentMask{1} << cpu);
    }

    /**
     * Drop agent @p cpu's presence bit from every entry (soft-error
     * recovery: the filter state is suspect and must be rebuilt from
     * the agent's second-level directory via noteBlockCached).
     */
    void
    clearPresence(CpuId cpu)
    {
        if (cpu >= maxFilterableAgents || !_agents[cpu].filterable)
            return;
        _presence.clearBitsEverywhere(AgentMask{1} << cpu);
    }

    /** Enable/disable presence-based snoop skipping (default on). */
    void setSnoopFilterEnabled(bool on) { _filterEnabled = on; }
    bool snoopFilterEnabled() const { return _filterEnabled; }

    /** Probes the filter proved unnecessary (diagnostic, not a stat). */
    std::uint64_t snoopsFiltered() const { return _snoopsFiltered; }

    /** Number of presence entries currently tracked (diagnostic). */
    std::size_t presenceEntries() const { return _presence.size(); }

    /** True if agent @p cpu attached filterable (and fits the mask). */
    bool
    agentFilterable(CpuId cpu) const
    {
        return cpu < _agents.size() && cpu < maxFilterableAgents &&
            _agents[cpu].filterable;
    }

    /** Presence bit of one agent for one second-level line address. */
    bool
    presenceBit(CpuId cpu, std::uint32_t line_addr) const
    {
        return ((_presence.lookup(line_addr) >> cpu) & AgentMask{1}) != 0;
    }

    /** Visit the line address of every presence entry (oracle sweeps). */
    template <typename Fn>
    void
    forEachPresence(Fn fn) const
    {
        _presence.forEach(
            [&](std::uint32_t key, AgentMask) { fn(key); });
    }

    // --- counters ----------------------------------------------------

    /** Number of attached agents. */
    std::size_t agentCount() const { return _snoopers.size(); }

    /** Total transactions issued. */
    std::uint64_t transactions() const { return _n[Stat::Transactions]; }

    /** Transactions issued by one CPU. */
    std::uint64_t
    transactionsFrom(CpuId cpu) const
    {
        return cpu < _perCpuTx.size() ? _perCpuTx[cpu] : 0;
    }

    const StatGroup<BusStats> &stats() const { return _n; }

    /** Zero transaction counters (warm-up support). */
    void
    resetStats()
    {
        _n.reset();
        _snoopsFiltered = 0;
        std::fill(_perCpuTx.begin(), _perCpuTx.end(), 0);
    }

  private:
    using AgentMask = std::uint64_t;
    using Stat = BusStat;
    static constexpr std::size_t maxFilterableAgents = 64;

    /** Count one attempt of @p tx: a slot of bus time. */
    void
    countAttempt(const BusTransaction &tx)
    {
        constexpr Stat by_op[] = {Stat::ReadMiss, Stat::Invalidate,
                                  Stat::ReadModWrite, Stat::Update};
        ++_n[Stat::Transactions];
        ++_n[by_op[static_cast<int>(tx.op)]];
        if (tx.source < _perCpuTx.size())
            _perCpuTx[tx.source] += 1;
    }

    /**
     * Soft-error model: an armed bus may lose a broadcast in flight.
     * The source times out waiting for the snoop responses and
     * re-arbitrates; each lost attempt occupies a real bus slot (it is
     * counted like a transaction, so the recovery cost is visible in
     * every report) but reaches no snooper and moves no data. A
     * transaction lost more times than the retry budget allows is a
     * machine check. Keyed by (source, op, block, sequence, attempt):
     * a pure function of simulated history, so the schedule is
     * identical at any --jobs count, and a doomed attempt's retry can
     * draw a fresh verdict.
     */
    void
    absorbLostAttempts(const BusTransaction &tx)
    {
        const SoftErrorConfig &sc = _softErrors;
        if (sc.bus <= 0.0)
            return;
        std::uint64_t key =
            (static_cast<std::uint64_t>(tx.source) << 40) ^
            (static_cast<std::uint64_t>(tx.op) << 32) ^
            tx.blockAddr.value();
        for (unsigned attempt = 0;
             sc.strikes("bus-drop", key, _txSeq * 16 + attempt, sc.bus);
             ++attempt) {
            if (_arbiter)
                _arbiter->post(tx.source, tx.op);
            countAttempt(tx);
            ++_n.show(Stat::SoftTimeouts);
            if (attempt + 1 > sc.busRetryLimit) {
                throw FaultUnrecoverable(
                    "bus transaction lost beyond the retry budget");
            }
            ++_n.show(Stat::SoftRetries);
        }
    }

    SoftErrorConfig _softErrors;
    std::vector<Snooper *> _snoopers;
    std::vector<SnoopAgentInfo> _agents;
    std::vector<std::uint64_t> _perCpuTx;
    StatGroup<BusStats> _n;
    PresenceMap _presence;
    bool _filterEnabled = true;
    std::uint64_t _snoopsFiltered = 0;
    /** Broadcasts to date; a soft-error determinism key, never reset. */
    std::uint64_t _txSeq = 0;
    BusObserver *_observer = nullptr;
    BusArbiter *_arbiter = nullptr;
};

} // namespace vrc

#endif // VRC_COHERENCE_BUS_HH
