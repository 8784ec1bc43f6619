/**
 * @file
 * Shared helpers for the experiment (table/figure) bench binaries.
 *
 * Every binary accepts:
 *   --quick        run on ~5% of the paper's trace lengths
 *   --scale=<f>    run on an arbitrary fraction
 *   --jobs=<n>     simulate up to n table cells concurrently
 * and prints one paper-style table to stdout.
 */

#ifndef VRC_BENCH_BENCH_UTIL_HH
#define VRC_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <map>
#include <string>

#include "base/table.hh"
#include "sim/experiment.hh"

namespace vrc
{

/** Generate (and cache within the process) a paper trace at a scale. */
inline const TraceBundle &
profileTrace(const std::string &name, double scale)
{
    static std::map<std::string, TraceBundle> cache;
    std::string key = name + "@" + std::to_string(scale);
    auto it = cache.find(key);
    if (it == cache.end()) {
        WorkloadProfile p = scaled(profileByName(name), scale);
        std::cerr << "[generating " << name << " trace, "
                  << p.totalRefs << " refs]\n";
        it = cache.emplace(key, generateTrace(p)).first;
    }
    return it->second;
}

/** Standard banner naming the reproduced artifact. */
inline void
banner(const std::string &what, double scale)
{
    std::cout << "=== " << what << " ===\n";
    if (scale != 1.0)
        std::cout << "(scaled run: " << scale
                  << " of the paper's trace length)\n";
    std::cout << "\n";
}

/** Print a histogram in the paper's "bucket / count" layout. */
inline void
printIntervalHistogram(const Histogram &h, const std::string &col)
{
    TextTable t;
    t.row().cell("interval").cell(col);
    t.separator();
    for (std::uint64_t d = 1; d < h.maxBucket(); ++d)
        t.row().cell(d).cell(h.count(d));
    t.row()
        .cell(std::to_string(h.maxBucket()) + " and larger")
        .cell(h.overflowCount());
    std::cout << t;
}

} // namespace vrc

#endif // VRC_BENCH_BENCH_UTIL_HH
