/**
 * @file
 * Coherence fuzzing CLI.
 *
 * Drives randomized multiprocessor workloads against the cross-agent
 * coherence oracle (src/check). A clean run exits 0; a violation exits
 * 1 after writing a replay file and the protocol event ring (JSON) to
 * the artifacts directory, so a CI failure reproduces with a single
 * `vrc-fuzz --replay=<file>`.
 *
 * Usage:
 *   vrc-fuzz [--seed=N | --seeds=A..B] [--ops=N] [--transactions=N]
 *            [--cpus=N] [--org=vr|rr|rr-noincl|vr-rlt|mix]
 *            [--protocol=wi|wu|mix] [--split] [--sweep=N] [--mask=M]
 *            [--minimize] [--artifacts=DIR] [--json]
 *   vrc-fuzz --replay=FILE [--artifacts=DIR]
 *   vrc-fuzz --smoke
 *
 * `--smoke` enables the deliberate inclusion-bit bug and exits 0 only
 * if the oracle catches it -- run it whenever you touch the checker.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "base/cli.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "check/fuzzer.hh"

using namespace vrc;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: vrc-fuzz [options]\n"
        "  --seed=N          run one seed (default 1)\n"
        "  --seeds=A..B      run an inclusive seed range\n"
        "  --ops=N           fuzz operations per seed (default 4096)\n"
        "  --transactions=N  keep fuzzing each seed until the bus saw\n"
        "                    at least N transactions\n"
        "  --cpus=N          processors (default 4, max 256)\n"
        "  --org=<vr|rr|rr-noincl|vr-rlt|mix>  hierarchy kind (mix:\n"
        "                    derive org/protocol/split from the seed)\n"
        "  --rlt-entries=N / --rlt-assoc=N  reverse-lookup-table\n"
        "                    geometry for vr-rlt episodes (default 64/2;\n"
        "                    small on purpose to force conflicts)\n"
        "  --protocol=<wi|wu|mix>        coherence protocol\n"
        "  --split           split level-1 I/D caches\n"
        "  --sweep=N         oracle sweep period in ops (default 256)\n"
        "  --mask=M          op-category bit mask (default all)\n"
        "  --minimize        shrink a failing run before reporting\n"
        "  --replay=FILE     re-run a saved replay file\n"
        "  --artifacts=DIR   where to write replay/event files on\n"
        "                    failure (default: current directory)\n"
        "  --json            machine-readable result lines\n"
        "  --smoke           mutation smoke test: inject a known bug,\n"
        "                    succeed only if the oracle fires\n"
        "  --soft-errors=<spec>  strike every fuzzed machine with soft\n"
        "                    errors (seed=N[,tag=P][,state=P][,ptr=P]\n"
        "                    [,bus=P][,retry=N]), recorded in replay\n"
        "                    files; a machine-check halt counts as ok\n";
    std::exit(2);
}

std::string
artifactPath(const std::string &dir, const std::string &file)
{
    return dir.empty() ? file : dir + "/" + file;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "vrc-fuzz: cannot write " << path << "\n";
        return;
    }
    os << content;
}

void
printResult(const FuzzOptions &opt, const FuzzResult &r, bool json)
{
    if (json) {
        std::cout << "{\"seed\": " << opt.seed
                  << ", \"org\": " << static_cast<int>(opt.kind)
                  << ", \"protocol\": " << static_cast<int>(opt.protocol)
                  << ", \"ok\": " << (r.ok ? "true" : "false")
                  << ", \"ops\": " << r.opsRun
                  << ", \"refs\": " << r.refs
                  << ", \"transactions\": " << r.busTransactions
                  << ", \"machine_check\": "
                  << (r.machineCheck ? "true" : "false")
                  << "}\n";
        return;
    }
    std::cout << "seed " << opt.seed << " ["
              << hierarchyKindName(opt.kind) << ", "
              << coherencePolicyName(opt.protocol)
              << (opt.splitL1 ? ", split" : "") << "]: "
              << (r.ok ? "ok" : "VIOLATION") << " (" << r.opsRun
              << " ops, " << r.refs << " refs, " << r.busTransactions
              << " bus transactions)\n";
    if (r.machineCheck)
        std::cout << "  halted by machine check: "
                  << r.machineCheckReason << "\n";
    if (!r.ok)
        std::cout << "  " << r.violation << "\n";
}

/** Run one configured episode; write artifacts and return 1 on failure. */
int
runOne(FuzzOptions opt, bool minimize, const std::string &artifacts,
       bool json)
{
    FuzzResult r = runFuzz(opt);
    printResult(opt, r, json);
    if (r.ok)
        return 0;

    std::string stem = "fuzz-seed" + std::to_string(opt.seed);
    writeFile(artifactPath(artifacts, stem + ".replay.json"),
              replayToJson(opt));
    writeFile(artifactPath(artifacts, stem + ".events.json"),
              r.ringJson);
    std::cerr << "vrc-fuzz: wrote " << stem << ".replay.json and "
              << stem << ".events.json\n";

    if (minimize) {
        FuzzOptions small = minimizeFailure(opt);
        writeFile(artifactPath(artifacts, stem + ".min.replay.json"),
                  replayToJson(small));
        std::cerr << "vrc-fuzz: minimized to " << small.ops
                  << " ops, mask 0x" << std::hex << small.opMask
                  << std::dec << " (" << stem << ".min.replay.json)\n";
    }
    return 1;
}

/** The mutation smoke run: succeeds only when the oracle fires. */
int
runSmoke()
{
    FuzzOptions opt;
    opt.kind = HierarchyKind::VirtualReal;
    opt.mutateInclusion = true;
    opt.sweepPeriod = 1;  // catch the corruption before it cascades
    opt.ops = 2000;
    opt.cpus = 2;
    opt.frames = 8;
    opt.vpnsPerProcess = 4;

    FuzzResult r = runFuzz(opt);
    if (r.ok) {
        std::cerr << "vrc-fuzz --smoke: FAILED -- the oracle did not "
                  << "detect the injected inclusion-bit bug\n";
        return 1;
    }
    std::cout << "vrc-fuzz --smoke: ok -- oracle fired after "
              << r.opsRun << " ops: " << r.violation << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed_lo = 1, seed_hi = 1;
    std::string replay_path, artifacts;
    // nullopt: "mix", derived from each seed.
    std::optional<HierarchyKind> org = HierarchyKind::VirtualReal;
    std::optional<CoherencePolicy> protocol =
        CoherencePolicy::WriteInvalidate;
    FuzzOptions base;
    bool minimize = false, json = false, smoke = false;

    const cli::Tool tool{"vrc-fuzz", usage};
    cli::parse(tool, argc, argv, {
        {"--seeds",
         [&](const std::string &v) {
             std::size_t dots = v.find("..");
             return cli::accept(
                 dots != std::string::npos &&
                 cli::readNumber(v.substr(0, dots), seed_lo) &&
                 cli::readNumber(v.substr(dots + 2), seed_hi, seed_lo));
         }},
        {"--seed",
         [&](const std::string &v) {
             Status read = cli::readNumber(v, seed_lo);
             seed_hi = seed_lo;
             return read;
         }},
        {"--ops", base.ops},
        {"--transactions", base.minTransactions},
        {"--cpus", base.cpus},
        {"--org",
         [&](const std::string &v) {
             org = hierarchyKindFromArg(v);
             return cli::accept(org || v == "mix");
         }},
        {"--rlt-entries", base.rltEntries},
        {"--rlt-assoc", base.rltAssoc},
        {"--protocol",
         [&](const std::string &v) {
             protocol.reset();
             if (v != "mix")
                 protocol = v == "wu" ? CoherencePolicy::WriteUpdate
                                      : CoherencePolicy::WriteInvalidate;
             return cli::accept(v == "wi" || v == "wu" || v == "mix");
         }},
        {"--sweep", base.sweepPeriod},
        {"--mask", base.opMask},
        {"--replay", replay_path},
        {"--artifacts", artifacts},
        {"--split", base.splitL1},
        {"--minimize", minimize},
        {"--json", json},
        {"--smoke", smoke},
        {"--soft-errors",
         [&](const std::string &v) {
             return cli::store(base.softErrors, parseSoftErrors(v));
         }},
    });
    cli::check(tool, checkFuzzOptions(base));

    if (smoke)
        return runSmoke();

    if (!replay_path.empty()) {
        Result<FuzzOptions> opt = tryLoadReplay(replay_path);
        if (!opt) {
            std::cerr << "vrc-fuzz: " << opt.error().describe()
                      << "\n";
            return 2;
        }
        return runOne(opt.take(), minimize, artifacts, json);
    }

    int rc = 0;
    for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
        FuzzOptions opt = base;
        opt.seed = seed;
        opt.kind =
            org.value_or(kAllHierarchyKinds[seed % kHierarchyKindCount]);
        if (!org)
            opt.splitL1 = base.splitL1 ||
                          (seed / (2 * kHierarchyKindCount)) % 2 == 1;
        opt.protocol = protocol.value_or(
            (seed / kHierarchyKindCount) % 2 == 0
                ? CoherencePolicy::WriteInvalidate
                : CoherencePolicy::WriteUpdate);
        rc |= runOne(opt, minimize, artifacts, json);
    }
    return rc;
}
