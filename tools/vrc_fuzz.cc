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
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

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
        "  --cpus=N          processors (default 4)\n"
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

bool
argValue(const char *arg, const char *name, std::string &out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        out = arg + n + 1;
        return true;
    }
    return false;
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
    std::string org = "vr", protocol = "wi", replay_path, artifacts;
    FuzzOptions base;
    bool split = false, minimize = false, json = false, smoke = false;
    std::string value;

    for (int i = 1; i < argc; ++i) {
        if (argValue(argv[i], "--seeds", value)) {
            std::size_t dots = value.find("..");
            if (dots == std::string::npos)
                usage();
            seed_lo = std::strtoull(value.c_str(), nullptr, 0);
            seed_hi = std::strtoull(value.c_str() + dots + 2, nullptr, 0);
            if (seed_hi < seed_lo)
                usage();
        } else if (argValue(argv[i], "--seed", value)) {
            seed_lo = seed_hi = std::strtoull(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--ops", value)) {
            base.ops = std::strtoull(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--transactions", value)) {
            base.minTransactions =
                std::strtoull(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--cpus", value)) {
            base.cpus = std::strtoul(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--org", value)) {
            org = value;
        } else if (argValue(argv[i], "--rlt-entries", value)) {
            base.rltEntries = std::strtoul(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--rlt-assoc", value)) {
            base.rltAssoc = std::strtoul(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--protocol", value)) {
            protocol = value;
        } else if (argValue(argv[i], "--sweep", value)) {
            base.sweepPeriod = std::strtoull(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--mask", value)) {
            base.opMask = std::strtoul(value.c_str(), nullptr, 0);
        } else if (argValue(argv[i], "--replay", value)) {
            replay_path = value;
        } else if (argValue(argv[i], "--artifacts", value)) {
            artifacts = value;
        } else if (std::strcmp(argv[i], "--split") == 0) {
            split = true;
        } else if (std::strcmp(argv[i], "--minimize") == 0) {
            minimize = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (argValue(argv[i], "--soft-errors", value)) {
            Result<SoftErrorConfig> strikes = parseSoftErrors(value);
            if (!strikes)
                fatal(strikes.error().describe());
            base.softErrors = strikes.take();
        } else {
            usage();
        }
    }

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
        opt.splitL1 = split;

        if (org == "mix") {
            opt.kind = kAllHierarchyKinds[seed % kHierarchyKindCount];
            opt.splitL1 =
                split || (seed / (2 * kHierarchyKindCount)) % 2 == 1;
        } else if (auto kind = hierarchyKindFromArg(org)) {
            opt.kind = *kind;
        } else {
            usage();
        }

        if (protocol == "mix") {
            opt.protocol = (seed / kHierarchyKindCount) % 2 == 0
                ? CoherencePolicy::WriteInvalidate
                : CoherencePolicy::WriteUpdate;
        } else if (protocol == "wi") {
            opt.protocol = CoherencePolicy::WriteInvalidate;
        } else if (protocol == "wu") {
            opt.protocol = CoherencePolicy::WriteUpdate;
        } else {
            usage();
        }

        rc |= runOne(opt, minimize, artifacts, json);
    }
    return rc;
}
