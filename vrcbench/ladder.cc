/**
 * @file
 * The layer ladder and the helpers every workload shares.
 */

#include <array>
#include <memory>

#include "base/cancel.hh"
#include "cache/tag_store.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/mp_sim.hh"
#include "trace/trace_stream.hh"
#include "vm/addr_space.hh"
#include "vm/tlb.hh"
#include "workloads.hh"

namespace vrcbench
{

using namespace vrc;

namespace
{

/** Records per replay batch, as MpSimulator::run(TraceStream&) uses. */
constexpr std::size_t kBatch = 4096;

/** Records per serve segment (the serve workload's segment size). */
constexpr std::size_t kSegment = 16384;

/** Metric-name spelling of an organization. */
const char *
orgName(HierarchyKind k)
{
    return k == HierarchyKind::RealRealIncl ? "rr-incl"
                                            : hierarchyKindArg(k);
}

/** Run @p fn under a span and return its host seconds. */
template <typename Fn>
double
timedSpan(Tracer &tracer, const char *layer, const std::string &name,
          std::uint64_t parent, Fn &&fn)
{
    Tracer::Scope span(tracer, layer, name, parent);
    Clock::time_point t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

MachineConfig
machineFor(HierarchyKind kind, const LadderConfig &cfg,
           const WorkloadProfile &p, TimingMode mode)
{
    MachineConfig mc = makeMachineConfig(kind, cfg.l1, cfg.l2, p.pageSize);
    mc.timingMode = mode;
    return mc;
}

} // namespace

WorkloadProfile
seededProfile(const std::string &name, std::uint64_t seed)
{
    WorkloadProfile p = profileByName(name);
    p.seed = seed;
    return p;
}

std::string
corruptSummaryLine(const std::string &line)
{
    Result<std::pair<std::size_t, SimSummary>> d = decodeSummaryLine(line);
    if (!d)
        return line + " corrupt";
    std::pair<std::size_t, SimSummary> cell = d.take();
    cell.second.synonymHits += 1;
    return encodeSummaryLine(cell.first, cell.second);
}

bool
checkerTrips(const std::string &line)
{
    return countMismatches({corruptSummaryLine(line)}, {line}) == 1;
}

double
cyclesPerRef(const std::vector<SimSummary> &cells)
{
    double cost = 0.0, refs = 0.0;
    for (const SimSummary &s : cells) {
        cost += s.avgAccessCycles * static_cast<double>(s.refs);
        refs += static_cast<double>(s.refs);
    }
    return refs ? cost / refs : 0.0;
}

void
appendSummaryCounts(const std::vector<SimSummary> &cells,
                    std::uint64_t rltConflicts, std::vector<Metric> &out)
{
    double refs = 0.0, h1Hits = 0.0, misses = 0.0, h2Hits = 0.0;
    double busy = 0.0, wait = 0.0;
    std::uint64_t synHits = 0, synMoves = 0, inclInv = 0, txns = 0;
    for (const SimSummary &s : cells) {
        double r = static_cast<double>(s.refs);
        refs += r;
        h1Hits += s.h1 * r;
        misses += (1.0 - s.h1) * r;
        h2Hits += s.h2 * (1.0 - s.h1) * r;
        busy += s.busUtilization * r;
        wait += s.avgBusWait * r;
        synHits += s.synonymHits;
        synMoves += s.synonymMoves;
        inclInv += s.inclusionInvalidations;
        txns += s.busTransactions;
    }
    auto per = [&](double v, double base) { return base ? v / base : 0.0; };
    out.push_back({"core.h1", per(h1Hits, refs), "ratio"});
    out.push_back({"core.h2", per(h2Hits, misses), "ratio"});
    out.push_back({"core.synonym_hits", double(synHits), "count"});
    out.push_back({"core.synonym_moves", double(synMoves), "count"});
    out.push_back(
        {"core.inclusion_invalidations", double(inclInv), "count"});
    out.push_back({"core.rlt_conflict_invalidations",
                   double(rltConflicts), "count"});
    out.push_back({"coherence.bus_txns_per_kref",
                   per(1000.0 * double(txns), refs), "1/kref"});
    out.push_back(
        {"coherence.bus_utilization", per(busy, refs), "ratio"});
    out.push_back({"coherence.bus_wait_per_ref", per(wait, refs), "t1"});
}

std::size_t
runLadder(const std::vector<const TraceBundle *> &inputs,
          const LadderConfig &cfg, Tracer &tracer, std::vector<Metric> &out)
{
    Tracer::Scope root(tracer, "bench", "ladder");
    double records = 0.0;
    for (const TraceBundle *b : inputs)
        records += static_cast<double>(b->records.size());
    auto nsPerRef = [&](double s) { return s * 1e9 / records; };
    std::size_t mismatches = 0;

    // Rung 1: decode, TraceStream::nextBatch over the same traces.
    double decode = timedSpan(tracer, "trace", "trace.nextBatch", root.id(),
                              [&] {
        std::array<TraceRecord, kBatch> buf;
        for (const TraceBundle *b : inputs) {
            TraceStream stream(b->profile);
            std::size_t got = 0, n;
            while ((n = stream.nextBatch(buf.data(), buf.size())) != 0) {
                mismatches += buf[n - 1] != b->records[got + n - 1];
                got += n;
            }
            mismatches += got != b->records.size();
        }
    });
    out.push_back({"trace.decode_ns_per_ref", nsPerRef(decode), "ns/ref"});

    // Rung 2: one TLB per CPU at the hierarchy's geometry, translating
    // every reference's (pid, vpn).
    HierarchyParams hp;
    std::uint64_t tlbHits = 0, tlbLookups = 0;
    double tlb = timedSpan(tracer, "vm", "vm.Tlb::translate", root.id(),
                           [&] {
        for (const TraceBundle *b : inputs) {
            AddressSpaceManager spaces(b->profile.pageSize);
            setupAddressSpaces(b->profile, spaces);
            // Tlb holds handles into its own counters: never copy one.
            std::vector<std::unique_ptr<Tlb>> tlbs;
            for (std::uint32_t c = 0; c < b->profile.numCpus; ++c)
                tlbs.push_back(
                    std::make_unique<Tlb>(hp.tlbEntries, hp.tlbAssoc));
            for (const TraceRecord &r : b->records) {
                if (r.isMemRef())
                    tlbs[r.cpu]->translate(
                        r.pid, r.va().vpn(b->profile.pageSize), spaces);
            }
            for (const auto &t : tlbs) {
                tlbHits += t->hits();
                tlbLookups += t->hits() + t->misses();
            }
        }
    });
    out.push_back({"vm.tlb_ns_per_ref", nsPerRef(tlb), "ns/ref"});
    out.push_back({"vm.tlb_hit_ratio",
                   tlbLookups ? double(tlbHits) / double(tlbLookups) : 0.0,
                   "ratio"});

    // Rung 3: an L1-geometry tag store per CPU over the block stream.
    double probe = timedSpan(tracer, "cache", "cache.TagStore::find",
                             root.id(), [&] {
        for (const TraceBundle *b : inputs) {
            std::vector<std::unique_ptr<TagStore<std::uint8_t>>> l1;
            for (std::uint32_t c = 0; c < b->profile.numCpus; ++c)
                l1.push_back(std::make_unique<TagStore<std::uint8_t>>(
                    CacheGeometry(cfg.l1, hp.l1.blockBytes, hp.l1.assoc),
                    hp.l1.policy));
            for (const TraceRecord &r : b->records) {
                if (!r.isMemRef())
                    continue;
                TagStore<std::uint8_t> &s = *l1[r.cpu];
                if (std::optional<LineRef> hit = s.find(r.vaddr))
                    s.touch(*hit);
                else
                    s.fill(s.victim(r.vaddr), r.vaddr);
            }
        }
    });
    out.push_back(
        {"cache.l1_probe_ns_per_ref", nsPerRef(probe), "ns/ref"});

    // Rungs 4 and 5: each organization's full hierarchy, analytic then
    // cycle engine, replayed batch by batch.
    double analyticTotal = 0.0, cycleTotal = 0.0;
    double filtered = 0.0, snoopable = 0.0;
    std::vector<double> constructMs;
    for (HierarchyKind kind : kAllHierarchyKinds) {
        for (TimingMode mode : {TimingMode::Analytic, TimingMode::Cycle}) {
            bool cycle = mode == TimingMode::Cycle;
            std::string name = std::string(cycle ? "coherence.cycle."
                                                 : "core.runBatch.") +
                orgName(kind);
            double s = 0.0;
            for (const TraceBundle *b : inputs) {
                MachineConfig mc = machineFor(kind, cfg, b->profile, mode);
                Clock::time_point c0 = Clock::now();
                MpSimulator sim(mc, b->profile);
                if (kind == HierarchyKind::VirtualReal)
                    constructMs.push_back(secondsSince(c0) * 1e3);
                s += timedSpan(tracer, cycle ? "coherence" : "core", name,
                               root.id(), [&] {
                    const TraceRecord *p = b->records.data();
                    std::size_t left = b->records.size();
                    while (left) {
                        std::size_t n = std::min(left, kBatch);
                        sim.runBatch(p, n);
                        p += n;
                        left -= n;
                    }
                });
                if (!cycle) {
                    filtered += double(sim.bus().snoopsFiltered());
                    snoopable += double(sim.bus().transactions()) *
                        double(sim.cpuCount() - 1);
                }
            }
            (cycle ? cycleTotal : analyticTotal) += s;
            if (!cycle)
                out.push_back({std::string("core.access_ns_per_ref.") +
                                   orgName(kind),
                               nsPerRef(s), "ns/ref"});
        }
    }
    out.push_back({"coherence.arbiter_ns_per_ref",
                   nsPerRef(cycleTotal - analyticTotal) / kHierarchyKindCount,
                   "ns/ref"});
    out.push_back({"coherence.snoops_filtered_frac",
                   snoopable ? filtered / snoopable : 0.0, "ratio"});

    // Record-at-a-time (cancellable step()) vs batched replay of one
    // cell: the first trace on the paper's V-R organization.
    const TraceBundle &cell = *inputs.front();
    SimJob job{HierarchyKind::VirtualReal, cfg.l1, cfg.l2};
    double cellRefs = static_cast<double>(cell.records.size());
    SimSummary stepped, batched;
    CancelToken token;
    std::vector<double> step, batch;
    for (int i = 0; i < 2; ++i) { // alternated, so neither runs only cold
        step.push_back(timedSpan(tracer, "sim",
                                 "sim.runSimulationCancellable", root.id(),
                                 [&] {
            stepped = runSimulationCancellable(cell, job, token);
        }));
        batch.push_back(timedSpan(tracer, "sim", "sim.runSimulationJob",
                                  root.id(), [&] {
            batched = runSimulationJob(cell, job);
        }));
        mismatches +=
            encodeSummaryLine(0, stepped) != encodeSummaryLine(0, batched);
    }
    out.push_back(
        {"sim.step_ns_per_ref", median(step) * 1e9 / cellRefs, "ns/ref"});
    out.push_back(
        {"sim.batch_ns_per_ref", median(batch) * 1e9 / cellRefs, "ns/ref"});

    // Construction alone, a few times over, at the V-R machine shape.
    for (int i = 0; i < 5; ++i) {
        timedSpan(tracer, "sim", "sim.MpSimulator", root.id(), [&] {
            Clock::time_point c0 = Clock::now();
            MpSimulator sim(machineFor(HierarchyKind::VirtualReal, cfg,
                                       cell.profile, TimingMode::Analytic),
                            cell.profile);
            constructMs.push_back(secondsSince(c0) * 1e3);
        });
    }
    out.push_back({"sim.construct_ms", median(constructMs), "ms"});

    // The serve segment codec over this trace's first segments.
    std::vector<double> encUs, decUs;
    for (std::size_t lo = 0;
         lo < cell.records.size() && encUs.size() < 64; lo += kSegment) {
        SubmitRequest req;
        req.segmentId = encUs.size();
        req.job = job;
        req.profileName = cell.profile.name;
        std::size_t hi = std::min(cell.records.size(), lo + kSegment);
        req.records.assign(cell.records.begin() + lo,
                           cell.records.begin() + hi);
        std::string frame;
        encUs.push_back(1e6 * timedSpan(tracer, "serve", "serve.encodeSubmit",
                                        root.id(),
                                        [&] { frame = encodeSubmit(req); }));
        std::string payload = frame.substr(wireHeaderBytes);
        Result<SubmitRequest> back = makeError(ErrorKind::Parse, "unset");
        decUs.push_back(1e6 * timedSpan(tracer, "serve", "serve.decodeSubmit",
                                        root.id(),
                                        [&] { back = decodeSubmit(payload); }));
        mismatches += !back || back.value().records != req.records;
    }
    out.push_back({"serve.encode_us", median(encUs), "us"});
    out.push_back({"serve.decode_us", median(decUs), "us"});
    return mismatches;
}

} // namespace vrcbench
