#include "check/fuzzer.hh"

#include <charconv>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <vector>

#include "base/fault.hh"
#include "base/rng.hh"
#include "check/oracle.hh"
#include "coherence/dma.hh"
#include "sim/experiment.hh"
#include "sim/mp_sim.hh"
#include "trace/record.hh"
#include "trace/workload.hh"

namespace vrc
{

const char *
fuzzOpKindName(FuzzOpKind k)
{
    switch (k) {
      case FuzzOpKind::MemRef:
        return "mem-ref";
      case FuzzOpKind::ContextSwitch:
        return "context-switch";
      case FuzzOpKind::DmaRead:
        return "dma-read";
      case FuzzOpKind::DmaWrite:
        return "dma-write";
      case FuzzOpKind::PageRemap:
        return "page-remap";
      case FuzzOpKind::Count:
        break;
    }
    return "?";
}

namespace
{

bool
enabled(const FuzzOptions &opt, FuzzOpKind k)
{
    return (opt.opMask & (1u << static_cast<unsigned>(k))) != 0;
}

/** The machine runFuzz() builds for @p opt. */
MachineConfig
fuzzMachineConfig(const FuzzOptions &opt)
{
    MachineConfig cfg;
    cfg.kind = opt.kind;
    cfg.hierarchy.l1 =
        CacheParams{opt.l1Bytes, opt.l1Block, 1, ReplPolicy::LRU};
    // Associative level 2 so relaxed-inclusion victim choice (and
    // its forced fallback) are both exercised.
    cfg.hierarchy.l2 =
        CacheParams{opt.l2Bytes, opt.l2Block, 2, ReplPolicy::LRU};
    cfg.hierarchy.pageSize = opt.pageSize;
    cfg.hierarchy.rltEntries = opt.rltEntries;
    cfg.hierarchy.rltAssoc = opt.rltAssoc;
    cfg.hierarchy.splitL1 = opt.splitL1;
    cfg.hierarchy.protocol = opt.protocol;
    cfg.hierarchy.softErrors = opt.softErrors;
    cfg.hierarchy.mutations.dropInclusionUpdate = opt.mutateInclusion;
    cfg.hierarchy.writeBufferDepth = 2;
    cfg.hierarchy.writeBufferDrainLatency = 8;
    cfg.invariantPeriod = 0;
    return cfg;
}

} // namespace

Status
checkFuzzOptions(const FuzzOptions &opt)
{
    if (opt.cpus < 1 || opt.cpus > kMaxTraceCpus)
        return makeErrorAt(ErrorKind::Bounds, "--cpus", 0, "CPU count ",
                           opt.cpus, " must be from 1 to ", kMaxTraceCpus);
    // Each is a bound of an Rng::below() draw, which must be positive.
    if (opt.processesPerCpu < 1 || opt.frames < 1 ||
        opt.vpnsPerProcess < 1 || opt.l1Block > opt.pageSize ||
        opt.l2Block > opt.pageSize)
        return makeError(ErrorKind::Bounds,
                         "process, frame and page pools must be non-empty "
                         "and blocks must fit a page");
    return checkMachineConfig(fuzzMachineConfig(opt));
}

FuzzResult
runFuzz(const FuzzOptions &opt)
{
    FuzzResult result;

    WorkloadProfile profile;
    profile.name = "fuzz";
    profile.numCpus = opt.cpus;
    profile.pageSize = opt.pageSize;
    profile.processesPerCpu = opt.processesPerCpu;
    profile.sharedPages = 8;
    profile.seed = opt.seed;

    MpSimulator sim(fuzzMachineConfig(opt), profile);
    DmaDevice dma(sim.bus(), opt.l2Block);

    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);

    // A small pool of physical frames that every process maps from
    // several virtual pages: dense aliasing (synonyms within and
    // across processes) plus cross-CPU sharing on a footprint that
    // overflows the tiny caches constantly.
    const std::uint32_t pid_count = opt.cpus * opt.processesPerCpu;
    const std::uint32_t pool_base = 0x9000;
    auto pool_vpn = [](ProcessId pid, std::uint32_t k) {
        return static_cast<Vpn>(0x300 + k * 7 + pid);
    };
    for (ProcessId pid = 0; pid < pid_count; ++pid) {
        for (std::uint32_t k = 0; k < opt.vpnsPerProcess; ++k) {
            sim.spaces().pageTable(pid).map(
                pool_vpn(pid, k),
                pool_base +
                    static_cast<std::uint32_t>(
                        rng.below(opt.frames)));
        }
    }

    CoherenceOracle oracle(opt.ringCapacity);
    bool failed = false;
    oracle.setViolationHandler(
        [&](const CoherenceOracle::Violation &v) {
            if (result.violation.empty()) {
                result.violation =
                    v.message + " [" + v.context + "]";
            }
            failed = true;
        });
    oracle.attach(sim);

    std::vector<ProcessId> current(opt.cpus);
    for (std::uint32_t c = 0; c < opt.cpus; ++c)
        current[c] = c * opt.processesPerCpu;

    const std::uint32_t l1_blocks_per_page =
        opt.pageSize / opt.l1Block;
    const std::uint32_t l2_blocks_per_page =
        opt.pageSize / opt.l2Block;
    const std::uint64_t hard_cap = opt.ops * 64 + 64;

    std::uint64_t i = 0;
    for (; i < hard_cap; ++i) {
        if (i >= opt.ops &&
            sim.bus().transactions() >= opt.minTransactions) {
            break;
        }

        // Draw the op kind and ALL of its parameters before
        // consulting opMask (see the RNG-stream discipline in the
        // header).
        std::uint64_t slot = rng.below(32);
        try {
        if (slot < 24) {
            CpuId cpu = static_cast<CpuId>(rng.below(opt.cpus));
            std::uint32_t k = static_cast<std::uint32_t>(
                rng.below(opt.vpnsPerProcess));
            std::uint32_t block = static_cast<std::uint32_t>(
                rng.below(l1_blocks_per_page));
            std::uint64_t t = rng.below(16);
            if (enabled(opt, FuzzOpKind::MemRef)) {
                RefType type = t < 5 ? RefType::Instr
                    : t < 10 ? RefType::Read : RefType::Write;
                std::uint32_t va =
                    pool_vpn(current[cpu], k) * opt.pageSize +
                    block * opt.l1Block;
                sim.step(makeRef(cpu, type, current[cpu],
                                 VirtAddr(va)));
                result.refs += 1;
            }
        } else if (slot < 27) {
            CpuId cpu = static_cast<CpuId>(rng.below(opt.cpus));
            if (enabled(opt, FuzzOpKind::ContextSwitch)) {
                ProcessId base = cpu * opt.processesPerCpu;
                current[cpu] = base +
                    (current[cpu] - base + 1) % opt.processesPerCpu;
                sim.step(makeContextSwitch(cpu, current[cpu]));
                result.contextSwitches += 1;
            }
        } else if (slot < 31) {
            bool is_write = slot >= 29;
            std::uint32_t frame = static_cast<std::uint32_t>(
                rng.below(opt.frames));
            std::uint32_t block = static_cast<std::uint32_t>(
                rng.below(l2_blocks_per_page));
            std::uint32_t blocks =
                1 + static_cast<std::uint32_t>(rng.below(4));
            FuzzOpKind k = is_write ? FuzzOpKind::DmaWrite
                                    : FuzzOpKind::DmaRead;
            if (enabled(opt, k)) {
                PhysAddr base(
                    (pool_base + frame) * opt.pageSize +
                    block * opt.l2Block);
                if (is_write)
                    dma.write(base, blocks * opt.l2Block);
                else
                    dma.read(base, blocks * opt.l2Block);
            }
        } else {
            ProcessId pid =
                static_cast<ProcessId>(rng.below(pid_count));
            std::uint32_t k = static_cast<std::uint32_t>(
                rng.below(opt.vpnsPerProcess));
            std::uint32_t frame = static_cast<std::uint32_t>(
                rng.below(opt.frames));
            if (enabled(opt, FuzzOpKind::PageRemap)) {
                sim.remapPage(pid, pool_vpn(pid, k),
                              pool_base + frame);
            }
        }
        } catch (const FaultUnrecoverable &mc) {
            // Uncorrectable soft error: the machine halts. Not a
            // coherence violation, and the interrupted operation
            // may have left mid-flight state, so stop here without
            // a final sweep.
            result.machineCheck = true;
            result.machineCheckReason = mc.what();
            break;
        }

        if (failed) {
            result.failingOp = i;
            break;
        }
        if (opt.sweepPeriod && (i + 1) % opt.sweepPeriod == 0) {
            oracle.sweep();
            if (failed) {
                result.failingOp = i;
                break;
            }
        }
        if (opt.invariantPeriod && !opt.mutateInclusion &&
            (i + 1) % opt.invariantPeriod == 0) {
            sim.checkInvariants();
        }
    }
    result.opsRun = i;

    if (!failed && !result.machineCheck) {
        oracle.sweep();
        if (failed)
            result.failingOp = i;
        if (!opt.mutateInclusion)
            sim.checkInvariants();
    }

    result.ok = !failed;
    result.busTransactions = sim.bus().transactions();
    if (failed) {
        std::ostringstream os;
        oracle.dumpJson(os);
        result.ringJson = os.str();
    }

    return result;
}

// --- replay file ------------------------------------------------------

std::string
replayToJson(const FuzzOptions &opt)
{
    std::ostringstream os;
    os << "{\n"
       << "\"format\": 1,\n"
       << "\"seed\": " << opt.seed << ",\n"
       << "\"ops\": " << opt.ops << ",\n"
       << "\"min_transactions\": " << opt.minTransactions << ",\n"
       << "\"cpus\": " << opt.cpus << ",\n"
       << "\"kind\": " << static_cast<int>(opt.kind) << ",\n"
       << "\"protocol\": " << static_cast<int>(opt.protocol) << ",\n"
       << "\"split_l1\": " << (opt.splitL1 ? "true" : "false") << ",\n"
       << "\"l1_bytes\": " << opt.l1Bytes << ",\n"
       << "\"l2_bytes\": " << opt.l2Bytes << ",\n"
       << "\"l1_block\": " << opt.l1Block << ",\n"
       << "\"l2_block\": " << opt.l2Block << ",\n"
       << "\"page_size\": " << opt.pageSize << ",\n"
       << "\"rlt_entries\": " << opt.rltEntries << ",\n"
       << "\"rlt_assoc\": " << opt.rltAssoc << ",\n"
       << "\"frames\": " << opt.frames << ",\n"
       << "\"vpns_per_process\": " << opt.vpnsPerProcess << ",\n"
       << "\"processes_per_cpu\": " << opt.processesPerCpu << ",\n"
       << "\"op_mask\": " << opt.opMask << ",\n"
       << "\"sweep_period\": " << opt.sweepPeriod << ",\n"
       << "\"invariant_period\": " << opt.invariantPeriod << ",\n"
       << "\"mutate_inclusion\": "
       << (opt.mutateInclusion ? "true" : "false") << ",\n";
    if (opt.softErrors.armed())
        os << "\"soft_errors\": \"" << softErrorSpec(opt.softErrors)
           << "\",\n";
    os << "\"ring_capacity\": " << opt.ringCapacity << "\n"
       << "}\n";
    return os.str();
}

namespace
{

/**
 * Read `"key": <value>` of flat JSON into @p out: a number, a bool
 * (true/false) or a string without escapes. False, with @p out
 * untouched, if the key is absent or its value does not fit @p out.
 */
template <typename T>
bool
jsonField(const std::string &json, const char *key, T &out)
{
    std::string pat = std::string("\"") + key + "\"";
    std::size_t pos = json.find(pat);
    if (pos != std::string::npos)
        pos = json.find(':', pos + pat.size());
    if (pos != std::string::npos)
        pos = json.find_first_not_of(" \t", pos + 1);
    if (pos == std::string::npos)
        return false;
    if constexpr (std::is_same_v<T, bool>) {
        bool t = json.compare(pos, 4, "true") == 0;
        if (!t && json.compare(pos, 5, "false") != 0)
            return false;
        out = t;
        return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
        std::size_t end = json.find('"', pos + 1);
        if (json[pos] != '"' || end == std::string::npos)
            return false;
        out = json.substr(pos + 1, end - pos - 1);
        return true;
    } else {
        const char *last = json.data() + json.size();
        return std::from_chars(json.data() + pos, last, out).ec ==
            std::errc{};
    }
}

} // namespace

bool
replayFromJson(const std::string &json, FuzzOptions &out)
{
    std::uint64_t v = 0;
    if (!jsonField(json, "format", v) || v != 1)
        return false;

    FuzzOptions opt;
    jsonField(json, "seed", opt.seed);
    jsonField(json, "ops", opt.ops);
    jsonField(json, "min_transactions", opt.minTransactions);
    jsonField(json, "cpus", opt.cpus);
    if (jsonField(json, "kind", v) && v < kHierarchyKindCount)
        opt.kind = static_cast<HierarchyKind>(v);
    if (jsonField(json, "protocol", v))
        opt.protocol = static_cast<CoherencePolicy>(v);
    jsonField(json, "split_l1", opt.splitL1);
    jsonField(json, "l1_bytes", opt.l1Bytes);
    jsonField(json, "l2_bytes", opt.l2Bytes);
    jsonField(json, "l1_block", opt.l1Block);
    jsonField(json, "l2_block", opt.l2Block);
    jsonField(json, "page_size", opt.pageSize);
    jsonField(json, "rlt_entries", opt.rltEntries);
    jsonField(json, "rlt_assoc", opt.rltAssoc);
    jsonField(json, "frames", opt.frames);
    jsonField(json, "vpns_per_process", opt.vpnsPerProcess);
    jsonField(json, "processes_per_cpu", opt.processesPerCpu);
    jsonField(json, "op_mask", opt.opMask);
    jsonField(json, "sweep_period", opt.sweepPeriod);
    jsonField(json, "invariant_period", opt.invariantPeriod);
    jsonField(json, "mutate_inclusion", opt.mutateInclusion);
    jsonField(json, "ring_capacity", opt.ringCapacity);
    std::string spec;
    if (jsonField(json, "soft_errors", spec)) {
        Result<SoftErrorConfig> strikes = parseSoftErrors(spec);
        if (!strikes)
            return false;
        opt.softErrors = strikes.take();
    }
    out = opt;
    return true;
}

Result<FuzzOptions>
tryLoadReplay(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return makeError(ErrorKind::Io,
                         "cannot open replay file: ", path);
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string text = buf.str();
    injectInputFaults("replay", path, text);
    FuzzOptions opt;
    if (!replayFromJson(text, opt))
        return makeErrorAt(ErrorKind::Parse, path, 0,
                           "not a recognizable vrc-fuzz replay (bad "
                           "\"format\" field or \"soft_errors\" spec)");
    Status checked = checkFuzzOptions(opt);
    if (!checked)
        return makeErrorAt(ErrorKind::Bounds, path, 0,
                           checked.error().message);
    return opt;
}

FuzzOptions
minimizeFailure(const FuzzOptions &failing)
{
    FuzzOptions best = failing;
    FuzzResult base = runFuzz(best);
    if (base.ok)
        return best;  // does not reproduce; nothing to shrink

    // 1. Truncate: nothing past the failing op matters.
    {
        FuzzOptions t = best;
        t.ops = base.failingOp + 1;
        t.minTransactions = 0;
        if (t.ops < best.ops || t.minTransactions != best.minTransactions) {
            if (!runFuzz(t).ok)
                best = t;
        }
    }

    // 2. Greedily drop op categories the failure doesn't need.
    for (unsigned k = 0; k < static_cast<unsigned>(FuzzOpKind::Count);
         ++k) {
        std::uint32_t bit = 1u << k;
        if (!(best.opMask & bit))
            continue;
        FuzzOptions t = best;
        t.opMask &= ~bit;
        if (t.opMask != 0 && !runFuzz(t).ok)
            best = t;
    }
    return best;
}

} // namespace vrc
