/**
 * @file
 * Result plumbing of the repository benchmark: named metrics, the
 * percentile helper, the off-clock summary checker and the one-line
 * result object the benchmark prints last.
 */

#ifndef VRCBENCH_REPORT_HH
#define VRCBENCH_REPORT_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vrcbench
{

/** Host wall clock for every timed section and span. */
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** A metric the result line must carry: name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/**
 * End-to-end metrics, printed by every untraced run. A "unit" is the
 * piece of work a user of the workload waits for: a campaign over one
 * trace (sweep), one organization's replay (contention), one segment's
 * SUBMIT to RESULT (serve). Kept in step with BENCHMARK.json.
 */
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"refs_per_s", "refs/s"},
    {"peak_rss_mb", "MiB"},
    {"sim_cycles_per_ref", "t1"},
    {"latency_p50_ms", "ms"},
};

/** Per-layer metrics, printed by every traced run. */
inline constexpr MetricSpec kPerLayer[] = {
    {"trace.generate_s", "s"},
    {"trace.decode_ns_per_ref", "ns/ref"},
    {"vm.tlb_ns_per_ref", "ns/ref"},
    {"vm.tlb_hit_ratio", "ratio"},
    {"cache.l1_probe_ns_per_ref", "ns/ref"},
    {"core.access_ns_per_ref.vr", "ns/ref"},
    {"core.access_ns_per_ref.rr-incl", "ns/ref"},
    {"core.access_ns_per_ref.rr-noincl", "ns/ref"},
    {"core.access_ns_per_ref.vr-rlt", "ns/ref"},
    {"core.h1", "ratio"},
    {"core.h2", "ratio"},
    {"core.synonym_hits", "count"},
    {"core.synonym_moves", "count"},
    {"core.inclusion_invalidations", "count"},
    {"core.rlt_conflict_invalidations", "count"},
    {"coherence.bus_txns_per_kref", "1/kref"},
    {"coherence.snoops_filtered_frac", "ratio"},
    {"coherence.bus_utilization", "ratio"},
    {"coherence.bus_wait_per_ref", "t1"},
    {"coherence.arbiter_ns_per_ref", "ns/ref"},
    {"sim.step_ns_per_ref", "ns/ref"},
    {"sim.batch_ns_per_ref", "ns/ref"},
    {"sim.construct_ms", "ms"},
    {"sim.cell_s.p50", "s"},
    {"sim.cell_s.max", "s"},
    {"sim.cell_wait_s", "s"},
    {"sim.worker_busy_frac", "ratio"},
    {"sim.cells_retried", "count"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"bench.tracing_overhead_frac", "ratio"},
};

/** Metric names are [A-Za-z0-9_.-]+, starting with a letter or digit. */
inline bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

/** Shortest text that reads back as exactly @p v. */
inline std::string
exactNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

/** Median plus the highest percentile with enough samples beyond it. */
struct TailStat
{
    double p50 = 0.0;
    double tail = 0.0;      ///< value at tailPct
    double tailPct = 50.0;  ///< which percentile `tail` is
    std::size_t n = 0;      ///< sample count
    std::size_t beyond = 0; ///< samples strictly above tail's rank
};

/**
 * 1-based nearest rank of percentile @p pct among @p n samples:
 * ceil(pct * n / 100), with a tolerance so 99 % of 1000 is rank 990
 * even though 99.9 and friends are not exact binary fractions.
 */
inline std::size_t
percentileRank(double pct, std::size_t n)
{
    double x = pct * static_cast<double>(n) / 100.0;
    auto rank = static_cast<std::size_t>(std::ceil(x - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

/** Nearest-rank percentile @p pct (0, 100] of ascending @p sorted. */
inline double
nearestRank(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    return sorted[percentileRank(pct, sorted.size()) - 1];
}

/**
 * Median and tail of @p samples. The tail is the highest of the
 * percentiles 99, 95, 90 and 75 that leaves at least @p minBeyond
 * samples above its nearest rank; with too few samples for any of them
 * it falls back to the median, and `beyond` says how thin that is. The
 * ladder stops at p99 so that a faster run, with more samples, still
 * reports the same percentile.
 */
inline TailStat
tailStat(std::vector<double> samples, std::size_t minBeyond = 10)
{
    TailStat t;
    t.n = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    t.p50 = nearestRank(samples, 50.0);
    auto beyondOf = [&](double pct) {
        return t.n - percentileRank(pct, t.n);
    };
    t.tail = t.p50;
    t.tailPct = 50.0;
    t.beyond = beyondOf(50.0);
    for (double pct : {99.0, 95.0, 90.0, 75.0}) {
        if (beyondOf(pct) >= minBeyond) {
            t.tail = nearestRank(samples, pct);
            t.tailPct = pct;
            t.beyond = beyondOf(pct);
            break;
        }
    }
    return t;
}

/** Median of @p v (the upper middle for an even count: nearest rank). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return nearestRank(v, 50.0);
}

/** Arithmetic mean of @p v; 0 when empty. */
inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Largest of @p v; 0 when empty. */
inline double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/**
 * Compare produced summary lines against the reference lines of the
 * same cells, byte for byte. @return how many cells disagree (a missing
 * line counts as a disagreement).
 */
inline std::size_t
countMismatches(const std::vector<std::string> &got,
                const std::vector<std::string> &want)
{
    std::size_t bad = got.size() > want.size() ? got.size() - want.size()
                                               : want.size() - got.size();
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i)
        bad += got[i] != want[i] || got[i].empty();
    return bad;
}

/**
 * The result object: exactly the keys correct, attempted, failed and
 * metrics, each metric as {"value": <exact>, "unit": "<unit>"}.
 */
inline std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            exactNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace vrcbench

#endif // VRCBENCH_REPORT_HH
