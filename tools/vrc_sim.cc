/**
 * @file
 * Simulation CLI.
 *
 * Runs one of the built-in workloads (or a saved binary trace) through
 * a configurable machine and prints the full statistics: hit ratios by
 * type and level, synonym/coherence/write-buffer activity, and the
 * Section-4 access-time model. usage() lists every flag; the table in
 * main() binds each to its destination and bounds.
 *
 * `--artifact=<name>|all` renders the paper's tables and figures from
 * the registry in sim/artifacts.hh.
 *
 * Campaign mode (`--sweep`) runs the 4-organization x 3-size
 * grid as a fault-tolerant campaign: checkpointed to a journal,
 * resumable after a kill, watchdogged, with failing cells retried and
 * then quarantined instead of aborting the sweep.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "base/atomic_file.hh"
#include "base/cli.hh"
#include "base/fault.hh"
#include "base/log.hh"
#include "base/shutdown.hh"
#include "base/table.hh"
#include "serve/server.hh"
#include "cache/protection.hh"
#include "core/clock.hh"
#include "core/timing.hh"
#include "sim/artifacts.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "sim/shard.hh"
#include "sim/json_stats.hh"
#include "core/events.hh"
#include "trace/profile_io.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stream.hh"

using namespace vrc;

namespace
{

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: vrc_sim --profile=<pops|thor|abaqus> [options]\n"
        "  --profile-file=<path>  load a custom profile file instead\n"
        "  --trace=<path>   replay a saved binary trace (the profile is\n"
        "                   still required for the address-space layout)\n"
        "  --org=<vr|rr|rr-noincl|vr-rlt>  organization (default vr)\n"
        "  --list-orgs      print the known organizations and exit\n"
        "  --l1=<bytes> --l2=<bytes> cache sizes (default 16K/256K)\n"
        "  --assoc1/--assoc2, --block1/--block2   geometry\n"
        "  --split          split level 1 into I and D halves\n"
        "  --scale=<f>      rescale the generated trace (1e-6 to 1e6)\n"
        "  --timing=<analytic|cycle>  access-time engine: the paper's\n"
        "                   closed form, or the cycle-approximate bus-\n"
        "                   contention model (default analytic; the\n"
        "                   architectural counters are identical)\n"
        "  --stream         generate records on the fly instead of\n"
        "                   materializing the trace (lower peak RSS)\n"
        "  --check          verify invariants during the run\n"
        "  --per-cpu        per-CPU statistics table\n"
        "  --json           machine-readable JSON output only\n"
        "  --summary        print only the exact hexfloat summary line\n"
        "                   (the service's RESULT payload; byte-\n"
        "                   comparable against --serve replies)\n"
        "  --events=<n>     print the first n hierarchy events\n"
        "  --warmup=<f>     reset statistics after fraction f (0 to 1) of\n"
        "                   the trace (steady-state measurement)\n"
        "paper artifacts:\n"
        "  --artifact=<name>|all  render one of the paper's tables or\n"
        "                   figures (or every one) at --scale with\n"
        "                   --jobs workers; an unknown name lists them\n"
        "campaign mode:\n"
        "  --sweep          run the 4-org x 3-size grid as a campaign\n"
        "  --checkpoint=<path>  journal completed cells; with --resume,\n"
        "                   a killed sweep restarts where it stopped\n"
        "  --resume         load the checkpoint journal before running\n"
        "  --deadline=<s>   per-cell watchdog deadline (wall-clock)\n"
        "  --max-retries=<n>  retries before a cell is quarantined\n"
        "  --manifest=<path>  write the failure manifest JSON here\n"
        "  --out=<path>     write the campaign result JSON here\n"
        "  --jobs=<n>       worker threads for the sweep (max 256)\n"
        "  --inject-faults=<spec>  arm deterministic fault injection\n"
        "                   (seed=N[,corrupt=P][,truncate=P][,throw=P]\n"
        "                   [,stall=P][,stall_ms=M])\n"
        "soft errors (a single run's machine only):\n"
        "  --soft-errors=<spec>  strike the machine's arrays and bus\n"
        "                   (seed=N[,tag=P][,state=P][,ptr=P][,bus=P]\n"
        "                   [,retry=N]; a bare number is seed=N with\n"
        "                   default rates)\n"
        "  --protect=<none|parity|secded>  tag-array protection policy\n"
        "                   (default secded)\n"
        "distributed sweep mode:\n"
        "  --coordinate     run the sweep grid on --serve processes\n"
        "                   instead of local threads, one cell in flight\n"
        "                   per server; reuses --checkpoint, --resume,\n"
        "                   --max-retries, --manifest and --out\n"
        "  --connect-unix=<path>[,<path>...]  the servers' unix sockets\n"
        "  --connect-tcp=<port>[,<port>...]   the servers' localhost TCP\n"
        "                   ports (either or both; at least one server)\n"
        "                   --deadline is how long a dispatched cell may\n"
        "                   go without a reply before it is speculated\n"
        "                   onto another server (merge partial journals\n"
        "                   with vrc-merge)\n"
        "service mode:\n"
        "  --serve          run the long-lived segment service\n"
        "  --listen-unix=<path>   unix-domain listening socket\n"
        "  --listen-tcp=<port>    localhost TCP (0 = kernel-assigned;\n"
        "                   the bound port is printed on stdout)\n"
        "  --workers=<n>    segment worker threads (default 2, max 256)\n"
        "  --queue=<n>      global admission queue bound (default 64)\n"
        "  --per-client=<n> per-session in-flight bound (default 4)\n"
        "  --read-timeout=<s>  kill sessions whose frame stalls\n"
        "  --quarantine-threshold=<n>  poisoned sessions per client\n"
        "                   name before HELLO is refused (default 3)\n"
        "                   (--deadline, --max-retries and --manifest\n"
        "                   apply per segment / to the service)\n"
        "exit codes:\n"
        "  0 success        2 usage or configuration error\n"
        "  3 cells quarantined (sweep, coordinate)   4 machine check\n"
        "  5 interrupted by SIGINT/SIGTERM (graceful drain; a second\n"
        "    signal hard-exits with 128+signal)\n"
        "  6 conflicting cell summaries (distributed sweep / merge)\n";
    std::exit(2);
}

/**
 * Fail fast when an output path cannot be opened for writing, instead
 * of discovering it only after a long campaign has already run.
 * Append mode leaves any existing content untouched.
 */
void
probeWritable(const char *what, const std::string &path)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        fatal("cannot open ", what, " for writing: ", path);
}

/** The comma-separated items of @p v (an empty one is kept). */
std::vector<std::string>
splitList(const std::string &v)
{
    std::vector<std::string> items;
    for (std::size_t at = 0;;) {
        std::size_t comma = v.find(',', at);
        items.push_back(v.substr(at, comma - at));
        if (comma == std::string::npos)
            return items;
        at = comma + 1;
    }
}

/** A loaded input, or its error as a usage error (exit 2). */
template <typename T>
T
loadOrReject(const cli::Tool &tool, Result<T> loaded)
{
    if (!loaded)
        cli::reject(tool, loaded.error().describe());
    return loaded.take();
}

/**
 * --trace's records, checked against @p profile before any machine is
 * built: a file that cannot be read, or names a CPU the profile's
 * machine lacks, exits 2.
 */
std::vector<TraceRecord>
loadTraceFor(const cli::Tool &tool, const std::string &path,
             const WorkloadProfile &profile)
{
    std::vector<TraceRecord> records =
        loadOrReject(tool, tryLoadTrace(path));
    if (Status fits = checkTraceCpus(records, profile); !fits)
        cli::reject(tool, path + ": " + fits.error().message);
    return records;
}

/** --list-orgs: one line per organization, argument first. */
[[noreturn]] void
listOrgs()
{
    for (HierarchyKind kind : kAllHierarchyKinds) {
        std::cout << hierarchyKindArg(kind) << "  "
                  << hierarchyKindName(kind) << ": "
                  << hierarchyKindDescription(kind) << "\n";
    }
    std::exit(0);
}

/** Shared result reporting for --sweep and --coordinate. */
int
reportCampaign(const std::vector<SimJob> &jobs,
               const CampaignResult &res, bool json,
               const std::string &out_path)
{
    std::string result_json = campaignResultToJson(res);
    if (!out_path.empty()) {
        Status wrote = writeFileAtomic(out_path, result_json + "\n");
        if (!wrote)
            fatal("cannot write campaign result: ",
                  wrote.error().message);
    }
    if (json) {
        std::cout << result_json << "\n";
    } else {
        TextTable t;
        t.row()
            .cell("org")
            .cell("l1/l2")
            .cell("h1")
            .cell("h2")
            .cell("bus txns")
            .cell("status");
        t.separator();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            auto &row = t.row()
                .cell(hierarchyKindName(jobs[i].kind))
                .cell(sizeLabel(jobs[i].l1Size, jobs[i].l2Size));
            if (res.completed[i]) {
                row.cell(res.summaries[i].h1, 4)
                    .cell(res.summaries[i].h2, 4)
                    .cell(res.summaries[i].busTransactions)
                    .cell("ok");
            } else {
                row.cell("-").cell("-").cell("-").cell("quarantined");
            }
        }
        std::cout << t;
        std::cout << "\ncompleted " << res.completedCells() << "/"
                  << jobs.size() << " cells";
        if (res.restored > 0)
            std::cout << " (" << res.restored
                      << " restored from checkpoint)";
        std::cout << "\n";
        for (const CellFailure &f : res.quarantined)
            std::cout << "quarantined cell " << f.index << " after "
                      << f.attempts << " attempt"
                      << (f.attempts == 1 ? "" : "s") << ": "
                      << f.error << "\n";
    }
    if (res.interrupted) {
        std::cerr << "vrc_sim: sweep interrupted by signal "
                  << shutdownSignal() << "; journal flushed, "
                  << res.completedCells() << "/" << jobs.size()
                  << " cells done (resume with --resume)\n";
        return kExitInterrupted;
    }
    return res.allOk() ? 0 : 3;
}

int
runSweep(const TraceBundle &bundle, const CampaignOptions &opt,
         bool json, const std::string &out_path, TimingMode timing_mode)
{
    std::vector<SimJob> jobs = sweepGrid(timing_mode);
    installShutdownHandlers();
    Result<CampaignResult> run =
        runSimulationCampaign(bundle, jobs, opt);
    if (!run) {
        std::cerr << "vrc_sim: " << run.error().describe() << "\n";
        return 2;
    }
    return reportCampaign(jobs, run.take(), json, out_path);
}

int
runCoordinate(const WorkloadProfile &profile,
              const ShardCoordinatorOptions &opt,
              const std::vector<ServerAddress> &servers, bool json,
              const std::string &out_path, TimingMode timing_mode)
{
    std::vector<SimJob> jobs = sweepGrid(timing_mode);
    ShardCoordinator coordinator(opt);
    Status connected = coordinator.connect(servers);
    if (!connected) {
        std::cerr << "vrc_sim: " << connected.error().describe() << "\n";
        return 2;
    }
    installShutdownHandlers();
    const TraceBundle bundle = generateTrace(profile);
    Result<CampaignResult> run = coordinator.run(bundle, jobs);
    ShardStats st = coordinator.stats();
    std::cerr << "vrc_sim: coordinated " << st.cellResults
              << " cell results over " << st.serversConnected
              << " servers (" << st.cellsDispatched << " dispatches, "
              << st.speculativeDispatches << " speculative, "
              << st.duplicateResults << " duplicates discarded, "
              << st.serversLost << " servers lost, "
              << st.serversQuarantined << " quarantined)\n";
    if (!run) {
        std::cerr << "vrc_sim: " << run.error().describe() << "\n";
        return coordinator.conflictDetected() ? 6 : 2;
    }
    return reportCampaign(jobs, run.take(), json, out_path);
}

/**
 * --artifact: render @p name, or every artifact in turn for "all".
 * An unknown name is a usage error that lists the valid ones.
 */
int
runArtifacts(const std::string &name, double scale, unsigned jobs)
{
    if (name == "all") {
        int code = 0;
        for (const Artifact &a : artifacts()) {
            std::cout << "== " << a.name << "\n";
            int rc = runArtifact(a, scale, jobs, std::cout);
            code = code ? code : rc;
        }
        return code;
    }
    if (const Artifact *a = findArtifact(name))
        return runArtifact(*a, scale, jobs, std::cout);
    std::cerr << "vrc_sim: unknown artifact '" << name
              << "'; valid names:\n";
    for (const Artifact &a : artifacts())
        std::cerr << "  " << a.name << "  " << a.title << "\n";
    std::cerr << "  all  every artifact above, in order\n";
    return 2;
}

int
runServe(const ServeOptions &so)
{
    ServeServer server(so);
    Status started = server.start();
    if (!started) {
        std::cerr << "vrc_sim: " << started.error().describe()
                  << "\n";
        return 2;
    }
    if (!so.unixPath.empty())
        std::cout << "listening unix " << so.unixPath << "\n";
    if (server.tcpPort() >= 0)
        std::cout << "listening tcp 127.0.0.1:" << server.tcpPort()
                  << "\n";
    std::cout << std::flush;
    int code = server.waitUntilDrained();
    ServiceStats st = server.stats();
    std::cerr << "vrc_sim: drained; " << st.segmentsCompleted
              << " segments completed, " << st.segmentsFailed
              << " failed, " << st.sessionsPoisoned
              << " sessions poisoned, "
              << st.quarantinedClients.size()
              << " clients quarantined\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string profile_name, profile_file, trace_path, artifact;
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1 = 16 * 1024, l2 = 256 * 1024;
    std::uint32_t assoc1 = 1, assoc2 = 1, block1 = 16, block2 = 16;
    bool split = false, check = false, per_cpu = false;
    bool json = false, stream = false, summary_only = false;
    std::string mode; // the mode flag given; empty for a single run
    std::vector<ServerAddress> servers;
    ServeOptions serve_opt;
    TimingMode timing_mode = TimingMode::Analytic;
    CampaignOptions campaign;
    SoftErrorConfig soft_errors;
    std::optional<ArrayProtection> protect;
    std::string out_path;
    std::uint64_t events = 0;
    double warmup = 0.0;
    double scale = 1.0;

    const cli::Tool tool{"vrc_sim", usage};
    auto pick = [&](const std::string &flag) {
        if (!mode.empty() && mode != flag)
            cli::reject(tool, mode + " cannot be combined with " + flag);
        mode = flag;
    };
    cli::parse(tool, argc, argv, {
        {"--profile-file", profile_file},
        {"--profile",
         [&](const std::string &v) {
             profile_name = v;
             return cli::accept(knownProfileName(v));
         }},
        {"--artifact", artifact},
        {"--trace", trace_path},
        {"--org",
         [&](const std::string &v) {
             return cli::store(kind, hierarchyKindFromArg(v));
         }},
        {"--list-orgs", listOrgs},
        {"--l1", l1},
        {"--l2", l2},
        {"--assoc1", assoc1},
        {"--assoc2", assoc2},
        {"--block1", block1},
        {"--block2", block2},
        {"--scale", scale, 1e-6, 1e6},
        {"--timing",
         [&](const std::string &v) {
             return cli::store(timing_mode, parseTimingMode(v));
         }},
        {"--split", split},
        {"--stream", stream},
        {"--check", check},
        {"--per-cpu", per_cpu},
        {"--json", json},
        {"--summary", summary_only},
        {"--serve", [&] { pick("--serve"); }},
        {"--coordinate", [&] { pick("--coordinate"); }},
        {"--sweep", [&] { pick("--sweep"); }},
        {"--connect-unix",
         [&](const std::string &v) {
             for (const std::string &path : splitList(v)) {
                 if (path.empty())
                     return cli::accept(false);
                 servers.push_back({path});
             }
             return okStatus();
         }},
        {"--connect-tcp",
         [&](const std::string &v) {
             for (const std::string &port : splitList(v)) {
                 ServerAddress a;
                 if (Status read = cli::readNumber(port, a.tcpPort, 1, 65535);
                     !read)
                     return read;
                 servers.push_back(a);
             }
             return okStatus();
         }},
        {"--listen-unix", serve_opt.unixPath},
        {"--listen-tcp", serve_opt.tcpPort, 0, 65535},
        {"--workers", serve_opt.workers, 0u, cli::kMaxThreads},
        {"--queue", serve_opt.queueCap},
        {"--per-client", serve_opt.perClientCap},
        {"--read-timeout", serve_opt.readTimeoutSeconds, 0.0, 1e6},
        {"--quarantine-threshold", serve_opt.quarantineThreshold},
        {"--events", events},
        {"--warmup", warmup, 0.0, 1.0},
        {"--checkpoint", campaign.checkpoint},
        {"--resume", campaign.resume},
        {"--deadline", campaign.deadlineSeconds, 0.0, 1e6},
        {"--max-retries", campaign.maxRetries},
        {"--manifest", campaign.manifest},
        {"--out", out_path},
        {"--jobs", campaign.jobs, 0u, cli::kMaxThreads},
        {"--inject-faults", configureFaultInjection},
        {"--soft-errors",
         [&](const std::string &v) {
             return cli::store(soft_errors, parseSoftErrors(v));
         }},
        {"--protect",
         [&](const std::string &v) {
             return cli::store(protect, parseArrayProtection(v));
         }},
    });
    if (!artifact.empty())
        pick("--artifact");
    if (!mode.empty() && (stream || soft_errors.armed() || protect))
        cli::reject(tool, "--stream, --soft-errors and --protect shape a "
                          "single run's machine; they cannot be combined "
                          "with " + mode);
    if ((mode == "--coordinate") != !servers.empty())
        cli::reject(tool, "--coordinate dials the --serve processes named "
                          "by --connect-unix/--connect-tcp; neither goes "
                          "without the other");
    if (mode == "--coordinate" &&
        (!serve_opt.unixPath.empty() || serve_opt.tcpPort >= 0))
        cli::reject(tool, "--listen-unix/--listen-tcp are for --serve; "
                          "--coordinate dials its servers");
    if (mode == "--serve") {
        serve_opt.segmentDeadline = campaign.deadlineSeconds;
        serve_opt.maxRetries = campaign.maxRetries;
        serve_opt.manifest = campaign.manifest;
        probeWritable("service manifest (--manifest)",
                      serve_opt.manifest);
        return runServe(serve_opt);
    }
    if (mode == "--artifact")
        return runArtifacts(artifact, scale, campaign.jobs);
    if (profile_name.empty() && profile_file.empty())
        usage();

    WorkloadProfile profile = profile_file.empty()
        ? profileByName(profile_name)
        : loadOrReject(tool, tryLoadProfile(profile_file));
    profile = scaled(profile, scale);
    if (stream && (!trace_path.empty() || warmup > 0.0))
        cli::reject(tool, "--stream cannot be combined with --trace or "
                          "--warmup");
    if (mode == "--coordinate" &&
        (!trace_path.empty() || !profile_file.empty()))
        cli::reject(tool, "--coordinate needs a built-in --profile: "
                          "servers regenerate the trace from its name");
    if (!mode.empty()) {
        probeWritable("campaign result (--out)", out_path);
        probeWritable("failure manifest (--manifest)", campaign.manifest);
    }
    if (mode == "--coordinate") {
        ShardCoordinatorOptions co;
        static_cast<CellLedgerOptions &>(co) = campaign;
        co.profileScale = scale;
        return runCoordinate(profile, co, servers, json, out_path,
                             timing_mode);
    }
    if (mode == "--sweep") {
        for (const SimJob &j : sweepGrid(timing_mode))
            cli::check(tool, checkMachineConfig(
                                 jobMachineConfig(j, profile.pageSize)));
        TraceBundle bundle;
        if (!trace_path.empty()) {
            bundle.profile = profile;
            bundle.records = loadTraceFor(tool, trace_path, profile);
        } else {
            bundle = generateTrace(profile);
        }
        return runSweep(bundle, campaign, json, out_path, timing_mode);
    }

    SimJob job{kind, l1, l2, split, check ? std::uint64_t{10'000} : 0,
               timing_mode};
    MachineConfig mc = jobMachineConfig(job, profile.pageSize);
    mc.hierarchy.l1.assoc = assoc1;
    mc.hierarchy.l2.assoc = assoc2;
    mc.hierarchy.l1.blockBytes = block1;
    mc.hierarchy.l2.blockBytes = block2;
    if (protect)
        mc.hierarchy.l1.protection = mc.hierarchy.l2.protection = *protect;
    mc.hierarchy.softErrors = soft_errors;
    cli::check(tool, checkMachineConfig(mc));

    std::vector<TraceRecord> records;
    if (!trace_path.empty()) {
        records = loadTraceFor(tool, trace_path, profile);
    } else if (!stream) {
        records = generateTrace(profile).records;
    }

    MpSimulator sim(mc, profile);

    std::uint64_t printed = 0;
    CallbackObserver printer([&](const HierarchyEvent &ev) {
        if (printed++ >= events)
            return;
        std::cout << "[cpu" << ev.cpu << " @" << ev.refIndex << "] "
                  << eventKindName(ev.kind) << " va=0x" << std::hex
                  << ev.vaddr << " pa=0x" << ev.paddr << std::dec
                  << "\n";
    });
    if (events > 0) {
        for (CpuId c = 0; c < sim.cpuCount(); ++c)
            sim.hierarchy(c).setObserver(&printer);
    }

    try {
        if (stream) {
            TraceStream src(profile);
            sim.run(src);
        } else if (warmup > 0.0 && warmup < 1.0) {
            std::size_t cut = static_cast<std::size_t>(
                records.size() * warmup);
            sim.runBatch(records.data(), cut);
            sim.resetStats();
            sim.runBatch(records.data() + cut, records.size() - cut);
        } else {
            sim.run(records);
        }
    } catch (const FaultUnrecoverable &mc_fault) {
        std::cerr << "vrc_sim: machine check after "
                  << sim.refsProcessed()
                  << " references: " << mc_fault.what() << "\n";
        return 4;
    }
    if (check)
        sim.checkInvariants();

    if (summary_only) {
        std::cout << encodeSummaryLine(0, summarizeSimulation(sim, job))
                  << "\n";
        return 0;
    }

    if (json) {
        std::cout << toJson(sim) << "\n";
        return 0;
    }

    TextTable t;
    t.row().cell("metric").cell("value");
    t.separator();
    t.row().cell("organization").cell(hierarchyKindName(kind));
    t.row().cell("geometry").cell(
        sizeLabel(l1, l2) + (split ? " split" : " unified"));
    t.row().cell("references").cell(sim.refsProcessed());
    t.row().cell("h1").cell(sim.h1(), 4);
    t.row().cell("h2 (local)").cell(sim.h2(), 4);
    t.row().cell("h1 instr").cell(sim.h1ForType(RefType::Instr), 4);
    t.row().cell("h1 read").cell(sim.h1ForType(RefType::Read), 4);
    t.row().cell("h1 write").cell(sim.h1ForType(RefType::Write), 4);
    using Stat = HierarchyStat;
    auto total = [&](const char *label, Stat s) {
        t.row().cell(label).cell(sim.totalCounter(s));
    };
    total("synonym hits", Stat::SynonymHits);
    total("synonym moves", Stat::SynonymMoves);
    total("write-back cancels", Stat::WritebackCancels);
    total("swapped write-backs", Stat::SwappedWritebacks);
    total("inclusion invalidations", Stat::InclusionInvalidations);
    total("L1 coherence messages", Stat::L1CoherenceMsgs);
    t.row().cell("bus transactions").cell(sim.bus().transactions());
    total("memory writes", Stat::MemoryWrites);
    total("write-buffer stalls", Stat::WbStalls);
    t.separator();
    t.row().cell("timing mode").cell(timingModeName(sim.timingMode()));
    t.row().cell("avg access time").cell(sim.measuredAccessTime(), 4);
    if (sim.timingMode() == TimingMode::Cycle) {
        t.row().cell("avg access cycles").cell(sim.avgAccessCycles(), 4);
        t.row().cell("bus utilization").cell(sim.busUtilization(), 4);
        t.row().cell("avg bus wait/ref").cell(sim.avgBusWait(), 4);
        t.row().cell("bus busy ticks").cell(sim.busBusyTime(), 1);
        t.row().cell("bus wait ticks").cell(sim.busWaitTime(), 1);
    }
    if (soft_errors.armed()) {
        t.separator();
        t.row().cell("protection").cell(
            arrayProtectionName(mc.hierarchy.l1.protection));
        total("soft faults tag", Stat::SoftFaultsTag);
        total("soft faults state", Stat::SoftFaultsState);
        total("soft faults ptr", Stat::SoftFaultsPtr);
        total("soft masked", Stat::SoftMasked);
        total("soft silent", Stat::SoftSilent);
        total("soft corrected", Stat::SoftCorrected);
        total("soft detected", Stat::SoftDetected);
        total("soft recovered", Stat::SoftRecovered);
        total("soft refetches (L2)", Stat::SoftRefetchesL2);
        total("soft refetches (bus)", Stat::SoftRefetchesBus);
        total("presence scrubs", Stat::PresenceScrubs);
        total("machine checks", Stat::MachineChecks);
        t.row().cell("bus timeouts").cell(
            sim.bus().stats()[BusStat::SoftTimeouts]);
        t.row().cell("bus retries").cell(
            sim.bus().stats()[BusStat::SoftRetries]);
    }
    std::cout << t;

    TimingParams tp;
    std::cout << "\ntwo-term average access time (t2 = 4*t1): "
              << avgAccessTimeTwoTerm(sim.h1(), sim.h2(), tp) << "\n";

    if (per_cpu) {
        TextTable pc;
        bool cycle = sim.timingMode() == TimingMode::Cycle;
        auto &hdr = pc.row()
            .cell("cpu")
            .cell("refs")
            .cell("h1")
            .cell("h2")
            .cell("l1 msgs")
            .cell("writebacks");
        if (cycle)
            hdr.cell("clock").cell("bus wait");
        pc.separator();
        for (CpuId c = 0; c < sim.cpuCount(); ++c) {
            const auto &h = sim.hierarchy(c);
            auto &row = pc.row()
                .cell(c)
                .cell(h.stats()[Stat::Refs])
                .cell(h.h1(), 4)
                .cell(h.h2(), 4)
                .cell(h.stats()[Stat::L1CoherenceMsgs])
                .cell(h.stats()[Stat::Writebacks]);
            if (cycle) {
                row.cell(sim.cpuClock(c), 1)
                    .cell(sim.clock(c).busWaitTicks(), 1);
            }
        }
        std::cout << "\n" << pc;
    }
    return 0;
}
