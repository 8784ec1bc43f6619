/**
 * @file
 * Warm pool of ready-to-run simulators.
 *
 * Segment results must be bit-identical to batch mode, and batch mode
 * runs every trace through a *fresh* MpSimulator -- so a simulator
 * that has replayed a segment can never be handed to the next one
 * (its caches, TLBs and pointer state are dirty). What the pool
 * amortizes instead is construction: building the address spaces, the
 * flat SoA tag arrays and the per-CPU arenas for a 256K L2 is the
 * per-segment fixed cost, and the pool keeps a small stock of
 * never-used simulators per (profile, machine) key so a segment's
 * latency starts at replay, not at allocation. A worker drops the
 * dirty instance before it replies, and only after the reply is
 * written restocks one fresh instance for every simulator the segment
 * took -- whatever its outcome, so failed attempts do not drain the
 * stock -- which keeps construction out of the client's round trip.
 */

#ifndef VRC_SERVE_SIM_POOL_HH
#define VRC_SERVE_SIM_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/mp_sim.hh"
#include "trace/workload.hh"

namespace vrc
{

/** Pool of fresh simulators, keyed by workload + machine identity. */
class SimulatorPool
{
  public:
    /** @p stockPerKey fresh instances kept per configuration. */
    explicit SimulatorPool(std::size_t stockPerKey = 2)
        : _stockPerKey(stockPerKey)
    {
    }

    /** Cache key: everything that shapes a simulator's construction. */
    static std::string
    key(const WorkloadProfile &profile, const SimJob &job)
    {
        std::ostringstream os;
        os << profile.name << '/' << profile.numCpus << '/'
           << profile.pageSize << '/' << static_cast<int>(job.kind)
           << '/' << job.l1Size << '/' << job.l2Size << '/'
           << (job.split ? 1 : 0) << '/'
           << static_cast<int>(job.timingMode);
        return os.str();
    }

    /**
     * A fresh simulator for (profile, job): from stock when one is
     * warm, constructed on the spot otherwise. Always never-used.
     */
    std::unique_ptr<MpSimulator>
    acquire(const WorkloadProfile &profile, const SimJob &job)
    {
        const std::string k = key(profile, job);
        {
            std::lock_guard<std::mutex> g(_mu);
            auto it = _stock.find(k);
            if (it != _stock.end() && !it->second.empty()) {
                std::unique_ptr<MpSimulator> sim =
                    std::move(it->second.back());
                it->second.pop_back();
                ++_hits;
                return sim;
            }
        }
        ++_misses;
        return construct(profile, job);
    }

    /**
     * Restock one fresh instance for (profile, job) unless the shelf
     * is already full. Called by a worker after its reply is out,
     * once per simulator the segment took. May throw whatever
     * construction throws (std::bad_alloc for a huge cache).
     */
    void
    restock(const WorkloadProfile &profile, const SimJob &job)
    {
        const std::string k = key(profile, job);
        {
            std::lock_guard<std::mutex> g(_mu);
            if (_stock[k].size() >= _stockPerKey)
                return;
        }
        // Construction happens outside the lock; the worst case is a
        // momentary overshoot of the stock cap, not a stall of every
        // other worker.
        std::unique_ptr<MpSimulator> sim = construct(profile, job);
        std::lock_guard<std::mutex> g(_mu);
        if (_stock[k].size() < _stockPerKey)
            _stock[k].push_back(std::move(sim));
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    /**
     * Test hook run before every construction. A test installs one
     * that throws to stand in for a failed allocation; install it
     * before any worker starts and clear it after they are joined.
     */
    static std::function<void()> &
    constructHookForTest()
    {
        static std::function<void()> hook;
        return hook;
    }

  private:
    static std::unique_ptr<MpSimulator>
    construct(const WorkloadProfile &profile, const SimJob &job)
    {
        if (const std::function<void()> &hook = constructHookForTest())
            hook();
        return std::make_unique<MpSimulator>(
            jobMachineConfig(job, profile.pageSize), profile);
    }

    std::size_t _stockPerKey;
    std::mutex _mu;
    std::map<std::string, std::vector<std::unique_ptr<MpSimulator>>>
        _stock;
    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
};

} // namespace vrc

#endif // VRC_SERVE_SIM_POOL_HH
