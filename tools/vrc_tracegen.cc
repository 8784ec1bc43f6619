/**
 * @file
 * Trace generation CLI.
 *
 * Generates a synthetic multiprocessor trace from one of the built-in
 * workload profiles (optionally rescaled or reseeded) and writes it to
 * a file in the binary or text format, or prints its characteristics.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "base/cli.hh"
#include "base/log.hh"
#include "base/table.hh"
#include "trace/generator.hh"
#include "trace/profile_io.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

using namespace vrc;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: vrc_tracegen --profile=<pops|thor|abaqus> [options]\n"
        "  --profile-file=<path>  load a custom profile file instead\n"
        "  --scale=<f>      rescale trace length (default 1.0, 1e-6 to 1e6)\n"
        "  --seed=<n>       override the profile's RNG seed\n"
        "  --cpus=<n>       override the CPU count (1 to 256)\n"
        "  --out=<path>     write binary trace\n"
        "  --text-out=<path> write text trace\n"
        "  --stats          print Table-5-style characteristics\n"
        "  --bursts         print the writes-per-call histogram\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile_name, profile_file, out_path, text_path;
    double scale = 1.0;
    bool print_stats = false, print_bursts = false;
    std::optional<std::uint64_t> seed;
    std::uint32_t cpus = 0;

    const cli::Tool tool{"vrc-tracegen", usage};
    cli::parse(tool, argc, argv, {
        {"--profile-file", profile_file},
        {"--profile",
         [&](const std::string &v) {
             profile_name = v;
             return cli::accept(knownProfileName(v));
         }},
        {"--scale", scale, 1e-6, 1e6},
        {"--seed",
         [&](const std::string &v) {
             return cli::readNumber(v, seed.emplace());
         }},
        {"--cpus", cpus, 1u, kMaxTraceCpus},
        {"--out", out_path},
        {"--text-out", text_path},
        {"--stats", print_stats},
        {"--bursts", print_bursts},
    });
    if (profile_name.empty() && profile_file.empty())
        usage();

    Result<WorkloadProfile> loaded = profile_file.empty()
        ? profileByName(profile_name)
        : tryLoadProfile(profile_file);
    if (!loaded)
        cli::reject(tool, loaded.error().describe());
    WorkloadProfile p = loaded.take();
    p = scaled(p, scale);
    if (seed)
        p.seed = *seed;
    if (cpus != 0)
        p.numCpus = cpus;

    TraceBundle bundle = generateTrace(p);
    std::cerr << "generated " << bundle.records.size() << " records\n";

    if (!out_path.empty()) {
        saveTrace(out_path, bundle.records);
        std::cerr << "wrote binary trace to " << out_path << "\n";
    }
    if (!text_path.empty()) {
        std::ofstream os(text_path);
        if (!os)
            fatal("cannot open ", text_path);
        writeTraceText(os, bundle.records);
        std::cerr << "wrote text trace to " << text_path << "\n";
    }

    if (print_stats) {
        auto c = characterize(bundle.records);
        TextTable t;
        t.row()
            .cell("cpus")
            .cell("total refs")
            .cell("instr")
            .cell("read")
            .cell("write")
            .cell("switches")
            .cell("processes");
        t.separator();
        t.row()
            .cell(c.numCpus)
            .cell(c.totalRefs)
            .cell(c.instrCount)
            .cell(c.dataReads)
            .cell(c.dataWrites)
            .cell(c.contextSwitches)
            .cell(c.processCount);
        std::cout << t;
    }
    if (print_bursts) {
        const Histogram &h = bundle.stats.callWrites;
        TextTable t;
        t.row().cell("writes/call").cell("count");
        t.separator();
        for (std::uint64_t k = 1; k < h.maxBucket(); ++k)
            t.row().cell(k).cell(h.count(k));
        t.row()
            .cell(std::to_string(h.maxBucket()) + "+")
            .cell(h.overflowCount());
        std::cout << t;
    }
    return 0;
}
