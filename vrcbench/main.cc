/**
 * @file
 * vrcbench: one workload of the repository benchmark per invocation.
 *
 *   vrcbench --workload=<sweep|contention|serve> --seed=<n>
 *            --seconds=<s> --trace=<0|1> --tmp=<dir>
 *            [--jobs=<n>] [--trace-out=<file>] [--report=<file>]
 *            [--commit=<id>] [--corrupt]
 *
 * Prints provenance and every measured figure by name and unit, then,
 * as the last line of stdout, the result object: the end-to-end metrics
 * with --trace=0, the per-layer metrics with --trace=1. Exit 0 with a
 * result line; 1 when the run itself failed; 2 on usage errors.
 * --corrupt damages one output before the off-clock check, which must
 * then report the run incorrect.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "report.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace vrcbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "vrcbench: " << why
              << "\nusage: vrcbench --workload=<sweep|contention|serve> "
                 "--seed=<n> --seconds=<s> --trace=<0|1> --tmp=<dir> "
                 "[--jobs=<n>] [--trace-out=<file>] [--report=<file>] "
                 "[--commit=<id>] [--corrupt]\n";
    std::exit(2);
}

bool
flag(const char *arg, const char *name, std::string &out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        out = arg + n + 1;
        return true;
    }
    return false;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Pick the @p spec metrics out of @p have, in spec order. */
template <std::size_t N>
std::vector<Metric>
select(const MetricSpec (&spec)[N], const std::vector<Metric> &have)
{
    std::map<std::string, Metric> byName;
    for (const Metric &m : have)
        byName[m.name] = m;
    std::vector<Metric> out;
    for (const MetricSpec &s : spec) {
        auto it = byName.find(s.name);
        if (it == byName.end() || it->second.unit != s.unit)
            throw std::runtime_error(std::string("metric ") + s.name +
                                     " missing or in the wrong unit");
        out.push_back(it->second);
    }
    return out;
}

std::string
provenance(const RunOptions &opt, const std::string &commit)
{
    std::string s;
    s += "commit=" + commit;
    s += " compiler=\"" VRCBENCH_COMPILER "\"";
    s += " build=" VRCBENCH_BUILD_TYPE;
    s += " flags=\"" VRCBENCH_FLAGS "\"";
    s += " options=\"" VRCBENCH_OPTIONS "\"";
    s += " nproc=" + std::to_string(std::thread::hardware_concurrency());
    s += " jobs=" + std::to_string(opt.jobs);
    s += " workload=" + opt.workload;
    s += " seed=" + std::to_string(opt.seed);
    s += " seconds=" + exactNumber(opt.seconds);
    s += " trace=" + std::string(opt.trace ? "1" : "0");
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    opt.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::string value, traceOut, reportPath, commit = "unknown";
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (flag(a, "--workload", value))
            opt.workload = value;
        else if (flag(a, "--seed", value))
            opt.seed = std::strtoull(value.c_str(), nullptr, 10),
            haveSeed = true;
        else if (flag(a, "--seconds", value))
            opt.seconds = std::atof(value.c_str()), haveSeconds = true;
        else if (flag(a, "--trace", value))
            opt.trace = value == "1", haveTrace = value == "0" || value == "1";
        else if (flag(a, "--jobs", value))
            opt.jobs = static_cast<unsigned>(std::atoi(value.c_str()));
        else if (flag(a, "--tmp", value))
            opt.tmpDir = value;
        else if (flag(a, "--trace-out", value))
            traceOut = value;
        else if (flag(a, "--report", value))
            reportPath = value;
        else if (flag(a, "--commit", value))
            commit = value;
        else if (std::strcmp(a, "--corrupt") == 0)
            opt.corrupt = true;
        else
            usage(std::string("unknown argument ") + a);
    }
    if (!haveSeed || !haveSeconds || !haveTrace || opt.tmpDir.empty() ||
        opt.seconds <= 0.0 || opt.jobs == 0)
        usage("--seed, --seconds, --trace and --tmp are required");

    Tracer tracer(opt.trace,
                  opt.seed * 1000003u + static_cast<std::uint64_t>(getpid()));
    Outcome o;
    try {
        if (opt.workload == "sweep")
            o = runSweep(opt, tracer);
        else if (opt.workload == "contention")
            o = runContention(opt, tracer);
        else if (opt.workload == "serve")
            o = runServe(opt, tracer);
        else
            usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "vrcbench: " << opt.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    TailStat unit = tailStat(o.unitMs);
    std::vector<Metric> all = {
        {"setup_s", median(o.setupSeconds), "s"},
        {"refs_per_s", median(o.passRefsPerSec), "refs/s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"sim_cycles_per_ref", o.simCyclesPerRef, "t1"},
        {"latency_p50_ms", unit.p50, "ms"},
    };
    all.insert(all.end(), o.layers.begin(), o.layers.end());
    bool correct = o.attempted > 0 && o.failed == 0 && o.checkerTripped;

    std::cout << "vrcbench " << provenance(opt, commit) << "\n"
              << "  sizes: set-ups=" << o.setupSeconds.size()
              << " passes=" << o.passRefsPerSec.size()
              << " units=" << o.unitMs.size() << " (" << o.unitName << ")"
              << " attempted=" << o.attempted << " failed=" << o.failed
              << " failed_frac="
              << exactNumber(o.attempted ? double(o.failed) / o.attempted
                                         : 1.0)
              << " checker_self_test="
              << (o.checkerTripped ? "tripped" : "SILENT") << "\n"
              << "  latency: p50 = " << exactNumber(unit.p50) << " ms, p"
              << exactNumber(unit.tailPct) << " = " << exactNumber(unit.tail)
              << " ms, over n=" << unit.n << " with " << unit.beyond
              << " samples beyond the tail\n  set-up s:";
    for (double s : o.setupSeconds)
        std::cout << " " << exactNumber(s);
    std::cout << "\n  timed passes, refs/s:";
    for (double r : o.passRefsPerSec)
        std::cout << " " << exactNumber(r);
    std::cout << "\n";
    for (const Metric &m : all)
        std::cout << "  " << m.name << " = " << exactNumber(m.value) << " "
                  << m.unit << "\n";
    for (const Metric &m : o.extras)
        std::cout << "  (" << m.name << " = " << exactNumber(m.value) << " "
                  << m.unit << ")\n";

    if (opt.trace) {
        std::cout << "  self time by layer (s):\n";
        for (const auto &[layer, s] : tracer.selfSecondsByLayer())
            std::cout << "    " << layer << " " << exactNumber(s) << "\n";
        if (!traceOut.empty() && !tracer.writeChromeTrace(traceOut)) {
            std::cerr << "vrcbench: cannot write " << traceOut << "\n";
            return 1;
        }
        if (!traceOut.empty())
            std::cout << "  trace events: " << traceOut << "\n";
    }

    std::vector<Metric> result;
    try {
        result = opt.trace ? select(kPerLayer, all) : select(kEndToEnd, all);
    } catch (const std::exception &e) {
        std::cerr << "vrcbench: " << e.what() << "\n";
        return 1;
    }
    std::string line = resultJson(correct, o.attempted, o.failed, result);

    if (!reportPath.empty()) {
        std::ofstream rep(reportPath, std::ios::trunc);
        rep << "{\"provenance\": \"";
        for (char c : provenance(opt, commit))
            rep << (c == '"' ? "\\\"" : std::string(1, c));
        rep << "\", \"result\": " << line << ", \"all\": "
            << resultJson(correct, o.attempted, o.failed, all)
            << ", \"extras\": "
            << resultJson(correct, o.attempted, o.failed, o.extras) << "}\n";
    }
    std::cout << line << std::endl;
    return 0;
}
