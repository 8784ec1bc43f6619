/**
 * @file
 * The `contention` workload: a saturated shared bus under the cycle
 * engine.
 *
 * pops and abaqus are widened to 16 CPUs (as bench_fig5/6 --contention
 * do) and streamed, never materialized, through all four organizations
 * at 512 B / 64 K on one thread via MpSimulator::run(TraceStream&).
 * Decode therefore runs inside the timed section and RSS stays small.
 * A pass is the 8 (trace, organization) replays; each replay builds a
 * fresh simulator, so the caches start empty.
 */

#include <memory>

#include "sim/campaign.hh"
#include "sim/parallel_runner.hh"
#include "trace/trace_stream.hh"
#include "workloads.hh"

namespace vrcbench
{

using namespace vrc;

namespace
{

constexpr int kSetups = 9; // milliseconds each; the first few are cold
constexpr std::uint32_t kCpus = 16;
constexpr std::uint32_t kL1 = 512;
constexpr std::uint32_t kL2 = 64 * 1024;
const char *const kTraces[] = {"pops", "abaqus"};

struct Replay
{
    WorkloadProfile profile;
    SimJob job;
};

std::vector<Replay>
replays(std::uint64_t seed)
{
    std::vector<Replay> out;
    for (const char *name : kTraces) {
        WorkloadProfile p = seededProfile(name, seed);
        p.numCpus = kCpus;
        for (HierarchyKind kind : kAllHierarchyKinds)
            out.push_back({p, {kind, kL1, kL2, false, 0, TimingMode::Cycle}});
    }
    return out;
}

MachineConfig
machineFor(const Replay &r, TimingMode mode)
{
    MachineConfig mc = makeMachineConfig(r.job.kind, r.job.l1Size,
                                         r.job.l2Size, r.profile.pageSize);
    mc.timingMode = mode;
    return mc;
}

/** A cycle-engine summary with its timing-only fields made analytic. */
SimSummary
architectural(SimSummary s)
{
    s.timingMode = TimingMode::Analytic;
    s.avgAccessCycles = s.avgAccessTime;
    s.busUtilization = 0.0;
    s.avgBusWait = 0.0;
    return s;
}

} // namespace

Outcome
runContention(const RunOptions &opt, Tracer &tracer)
{
    Outcome o;
    o.unitName = "replay: one organization over one streamed trace";
    std::vector<Replay> work;
    for (int rep = 0; rep < kSetups; ++rep) {
        Tracer::Scope setup(tracer, "bench", "setup");
        Clock::time_point t0 = Clock::now();
        work = replays(opt.seed);
        std::vector<std::unique_ptr<TraceStream>> streams;
        std::vector<std::unique_ptr<MpSimulator>> sims;
        for (const Replay &r : work) {
            streams.push_back(std::make_unique<TraceStream>(r.profile));
            sims.push_back(std::make_unique<MpSimulator>(
                machineFor(r, TimingMode::Cycle), r.profile));
        }
        o.setupSeconds.push_back(secondsSince(t0));
    }

    std::vector<std::string> firstLines(work.size());
    std::vector<SimSummary> firstCells(work.size());
    std::uint64_t rlt = 0;
    std::vector<double> tracedRates, untracedRates, cellS, waitS;
    double busy = 0.0, wall = 0.0;

    // Pass 0 warms the allocator and the host caches: it is checked but
    // not timed. The timed section then runs whole passes until the
    // time is up, at least three; the traced run alternates untraced
    // and traced passes so that their rates compare like with like.
    Clock::time_point timed;
    const unsigned minTimed = opt.trace ? 4 : 3;
    for (unsigned pass = 0;; ++pass) {
        if (pass == 1)
            timed = Clock::now();
        if (pass > minTimed && secondsSince(timed) >= opt.seconds)
            break;
        bool traced = opt.trace && pass > 0 && pass % 2 == 0;
        Tracer::Scope passSpan(tracer, "bench", "pass");
        Clock::time_point p0 = Clock::now();
        double passRefs = 0.0;
        for (std::size_t i = 0; i < work.size(); ++i) {
            const Replay &r = work[i];
            double wait = secondsSince(p0);
            Clock::time_point t0 = Clock::now();
            TraceStream stream(r.profile);
            MpSimulator sim(machineFor(r, TimingMode::Cycle), r.profile);
            if (traced) {
                Tracer::Scope s(tracer, "sim", "sim.MpSimulator::run",
                                passSpan.id());
                sim.run(stream);
            } else {
                sim.run(stream);
            }
            SimSummary summary = summarizeSimulation(sim, r.job);
            double s = secondsSince(t0);
            if (pass > 0)
                o.unitMs.push_back(s * 1e3);
            ++o.attempted;
            passRefs += static_cast<double>(summary.refs);
            std::string line = encodeSummaryLine(i, summary);
            if (pass == 0) {
                firstLines[i] = line;
                firstCells[i] = summary;
                if (r.job.kind == HierarchyKind::VirtualRealRlt)
                    rlt += sim.totalCounter("rlt_conflict_invalidations");
            } else {
                o.failed += line != firstLines[i];
            }
            if (traced) {
                cellS.push_back(s);
                waitS.push_back(wait);
                busy += s;
            }
        }
        double passS = secondsSince(p0);
        if (traced)
            wall += passS;
        if (pass > 0) {
            o.passRefsPerSec.push_back(passRefs / passS);
            (traced ? tracedRates : untracedRates)
                .push_back(passRefs / passS);
        }
    }

    // Off the clock: the cycle engine's architectural counters must
    // equal an analytic replay of the same configuration.
    Clock::time_point check0 = Clock::now();
    std::vector<std::string> want =
        ParallelRunner(opt.jobs).map(work.size(), [&](std::size_t i) {
            const Replay &r = work[i];
            TraceStream stream(r.profile);
            MpSimulator sim(machineFor(r, TimingMode::Analytic), r.profile);
            sim.run(stream);
            SimJob job = r.job;
            job.timingMode = TimingMode::Analytic;
            return encodeSummaryLine(i, summarizeSimulation(sim, job));
        });
    std::vector<std::string> got;
    for (std::size_t i = 0; i < work.size(); ++i)
        got.push_back(encodeSummaryLine(i, architectural(firstCells[i])));
    if (opt.corrupt)
        got[0] = corruptSummaryLine(got[0]);
    o.failed += countMismatches(got, want);
    o.checkerTripped = checkerTrips(want[0]);
    o.extras.push_back({"check_s", secondsSince(check0), "s"});

    o.simCyclesPerRef = cyclesPerRef(firstCells);
    appendSummaryCounts(firstCells, rlt, o.layers);
    o.extras.push_back({"replays_per_pass", double(work.size()), "count"});

    if (opt.trace) {
        o.layers.push_back({"sim.cell_s.p50", median(cellS), "s"});
        o.layers.push_back({"sim.cell_s.max", maxOf(cellS), "s"});
        o.layers.push_back({"sim.cell_wait_s", mean(waitS), "s"});
        o.layers.push_back({"sim.worker_busy_frac", busy / wall, "ratio"});
        o.layers.push_back({"sim.cells_retried", 0.0, "count"});
        double tr = median(tracedRates), un = median(untracedRates);
        o.layers.push_back(
            {"bench.tracing_overhead_frac", 1.0 - tr / un, "ratio"});
        o.extras.push_back({"traced_refs_per_s", tr, "refs/s"});
        o.extras.push_back({"untraced_refs_per_s", un, "refs/s"});

        // The ladder needs decoded batches: materialize the two traces
        // here, where RSS is not being measured.
        std::vector<TraceBundle> bundles;
        Clock::time_point g0 = Clock::now();
        for (const char *name : kTraces) {
            Tracer::Scope gen(tracer, "trace", "trace.generateTrace");
            WorkloadProfile p = seededProfile(name, opt.seed);
            p.numCpus = kCpus;
            bundles.push_back(generateTrace(p));
        }
        o.layers.push_back({"trace.generate_s", secondsSince(g0), "s"});
        std::vector<const TraceBundle *> inputs;
        for (const TraceBundle &b : bundles)
            inputs.push_back(&b);
        o.failed +=
            runLadder(inputs, LadderConfig{kL1, kL2}, tracer, o.layers);
    }
    return o;
}

} // namespace vrcbench
