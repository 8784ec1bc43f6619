/**
 * @file
 * The `serve` workload: closed-loop tenants of the simulation service.
 *
 * Set-up generates the seeded pops trace, cuts it into 16384-record
 * segments, starts an in-process ServeServer on a unix socket with 2
 * workers and connects 2 ServeClients. In the timed section each
 * client submits consecutive segments (vr, 16K/256K) and waits for
 * each RESULT before sending the next, cycling through the trace until
 * the time is up and at least 1000 segments have been answered. Wire
 * framing, admission, the simulator pool and per-segment construction
 * are all on the critical path here and nowhere else.
 */

#include <atomic>
#include <barrier>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "workloads.hh"

namespace vrcbench
{

using namespace vrc;

namespace
{

constexpr int kSetups = 3;
constexpr std::size_t kSegment = 16384;
constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kMinSegments = 1000;
constexpr std::size_t kWarmup = 50; ///< round trips per client
constexpr double kReplyTimeout = 60.0;

/** One answered (or failed) segment as the client saw it. */
struct Answer
{
    std::size_t seg = 0;
    double seconds = 0.0;
    std::string line; ///< empty when the segment failed
    bool traced = false;
    bool timed = false; ///< false during the warm-up
    double doneAt = 0.0; ///< seconds into the timed section
};

/** The service and its tenants; torn down in reverse. */
struct Service
{
    std::unique_ptr<ServeServer> server;
    std::vector<std::unique_ptr<ServeClient>> clients;

    Status
    start(const std::string &socket)
    {
        ServeOptions so;
        so.unixPath = socket;
        so.workers = kWorkers;
        server = std::make_unique<ServeServer>(so);
        Status st = server->start();
        if (!st)
            return st;
        for (unsigned c = 0; c < kClients; ++c) {
            clients.push_back(std::make_unique<ServeClient>());
            Status conn = clients.back()->connectUnix(socket);
            if (!conn)
                return conn;
            Status hi = clients.back()->hello("bench-" + std::to_string(c));
            if (!hi)
                return hi;
        }
        return Unit{};
    }

    void
    stop()
    {
        for (auto &c : clients) {
            (void)c->send(encodeBye());
            c->close();
        }
        clients.clear();
        if (server) {
            server->requestDrain();
            (void)server->waitUntilDrained();
            server.reset();
        }
    }

    ~Service() { stop(); }
};

/** Submit one segment and wait for its RESULT; sheds are resubmitted. */
Answer
roundTrip(ServeClient &client, const SubmitRequest &req,
          std::atomic<std::uint64_t> &shed)
{
    Answer a;
    a.seg = req.segmentId;
    Clock::time_point t0 = Clock::now();
    for (int attempt = 0; attempt < 100; ++attempt) {
        if (!client.submit(req))
            break;
        Result<Frame> fr = client.readFrame(kReplyTimeout);
        if (!fr)
            break;
        Frame f = fr.take();
        if (f.type == FrameType::Shed) {
            shed.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }
        if (f.type == FrameType::Result) {
            Result<ResultReply> r = decodeResult(f.payload);
            if (r && r.value().segmentId == req.segmentId)
                a.line = r.value().summaryLine;
        }
        break;
    }
    a.seconds = secondsSince(t0);
    return a;
}

} // namespace

Outcome
runServe(const RunOptions &opt, Tracer &tracer)
{
    Outcome o;
    o.unitName = "segment: SUBMIT to RESULT of 16384 records";
    const SimJob job{HierarchyKind::VirtualReal, 16 * 1024, 256 * 1024,
                     false, 0, TimingMode::Analytic};
    const std::string socket = opt.tmpDir + "/serve.sock";
    TraceBundle bundle;
    std::vector<SubmitRequest> requests;
    Service service;

    for (int rep = 0; rep < kSetups; ++rep) {
        service.stop();
        bundle = TraceBundle{};
        requests.clear();
        Tracer::Scope setup(tracer, "bench", "setup");
        Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope gen(tracer, "trace", "trace.generateTrace",
                              setup.id());
            bundle = generateTrace(seededProfile("pops", opt.seed));
        }
        for (std::size_t lo = 0; lo + kSegment <= bundle.records.size();
             lo += kSegment) {
            SubmitRequest req;
            req.segmentId = requests.size();
            req.job = job;
            req.profileName = bundle.profile.name;
            req.records.assign(bundle.records.begin() + lo,
                               bundle.records.begin() + lo + kSegment);
            requests.push_back(std::move(req));
        }
        Tracer::Scope start(tracer, "serve", "serve.ServeServer::start",
                            setup.id());
        Status st = service.start(socket);
        if (!st)
            throw std::runtime_error("serve set-up failed: " +
                                     st.error().describe());
        o.setupSeconds.push_back(secondsSince(t0));
    }

    // Timed: closed loop, one outstanding segment per client. Each
    // client first makes kWarmup round trips, checked but not timed, so
    // the simulator pool is stocked and the allocator warm.
    std::atomic<std::uint64_t> shed{0}, answered{0};
    std::vector<std::vector<Answer>> answers(kClients);
    Clock::time_point timed;
    std::barrier warm(kClients, [&]() noexcept { timed = Clock::now(); });
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                ServeClient &client = *service.clients[c];
                for (std::size_t k = 0;; ++k) {
                    if (k == kWarmup)
                        warm.arrive_and_wait();
                    if (k > kWarmup && secondsSince(timed) >= opt.seconds &&
                        answered.load() >= kMinSegments)
                        break;
                    const SubmitRequest &req =
                        requests[(c + k * kClients) % requests.size()];
                    bool traced = opt.trace && k % 2 == 1;
                    Answer a;
                    if (traced) {
                        Tracer::Scope rtt(tracer, "serve",
                                          "serve.ServeClient::roundTrip");
                        a = roundTrip(client, req, shed);
                    } else {
                        a = roundTrip(client, req, shed);
                    }
                    a.traced = traced;
                    a.timed = k >= kWarmup;
                    if (a.timed)
                        a.doneAt = secondsSince(timed);
                    bool ok = !a.line.empty();
                    answers[c].push_back(std::move(a));
                    if (!ok) {
                        // A dead connection stays dead; never leave the
                        // other client waiting at the barrier.
                        if (k < kWarmup)
                            warm.arrive_and_drop();
                        break;
                    }
                    if (k >= kWarmup)
                        answered.fetch_add(1);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    double wall = secondsSince(timed);
    ServiceStats stats = service.server->stats();
    service.stop();

    // Off the clock: every RESULT must equal the batch path run
    // in-process on the same records. The replay (with construction)
    // is timed too, so RTT minus it is the service's own overhead.
    Clock::time_point check0 = Clock::now();
    std::vector<std::string> want(requests.size());
    std::vector<SimSummary> cells(requests.size());
    std::vector<double> inProcessS(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        TraceBundle seg;
        seg.profile = bundle.profile;
        seg.records = requests[i].records;
        Clock::time_point t0 = Clock::now();
        cells[i] = runSimulationJob(seg, job);
        inProcessS[i] = secondsSince(t0);
        want[i] = encodeSummaryLine(0, cells[i]);
    }
    // Throughput is the median over whole one-second windows, so a few
    // seconds of outside interference do not move it.
    std::vector<double> windowRefs(static_cast<std::size_t>(wall), 0.0);
    double refs = 0.0, tracedRefs = 0.0, tracedS = 0.0, untracedRefs = 0.0,
           untracedS = 0.0, busy = 0.0;
    std::vector<double> overheadMs;
    for (std::vector<Answer> &list : answers) {
        if (opt.corrupt && !list.empty())
            list.front().line = corruptSummaryLine(list.front().line);
        for (const Answer &a : list) {
            ++o.attempted;
            if (a.line != want[a.seg]) {
                ++o.failed;
                continue;
            }
            if (!a.timed)
                continue;
            o.unitMs.push_back(a.seconds * 1e3);
            double r = static_cast<double>(cells[a.seg].refs);
            refs += r;
            if (auto w = static_cast<std::size_t>(a.doneAt);
                w < windowRefs.size())
                windowRefs[w] += r;            busy += inProcessS[a.seg];
            overheadMs.push_back((a.seconds - inProcessS[a.seg]) * 1e3);
            (a.traced ? tracedRefs : untracedRefs) += r;
            (a.traced ? tracedS : untracedS) += a.seconds;
        }
    }
    // A refused submission counts as a failed attempt, even though the
    // client resubmitted it.
    o.attempted += shed.load();
    o.failed += shed.load();
    o.checkerTripped = checkerTrips(want[0]);
    o.passRefsPerSec = windowRefs;
    if (windowRefs.empty())
        o.passRefsPerSec.push_back(refs / wall);
    o.extras.push_back({"check_s", secondsSince(check0), "s"});

    o.simCyclesPerRef = cyclesPerRef(cells);
    appendSummaryCounts(cells, 0, o.layers);
    TailStat over = tailStat(overheadMs);
    o.extras.push_back({"segments", double(o.attempted), "count"});
    o.extras.push_back({"serve.overhead_ms.p50", over.p50, "ms"});
    o.extras.push_back({"serve.overhead_ms.p" + exactNumber(over.tailPct),
                        over.tail, "ms"});
    std::uint64_t pooled = stats.poolHits + stats.poolMisses;
    o.extras.push_back({"serve.pool_hit_ratio",
                        pooled ? double(stats.poolHits) / double(pooled)
                               : 0.0,
                        "ratio"});
    o.extras.push_back({"serve.shed", double(shed.load()), "count"});

    if (opt.trace) {
        o.layers.push_back({"trace.generate_s",
                            median(tracer.durations("trace.generateTrace")),
                            "s"});
        o.layers.push_back({"sim.cell_s.p50", median(inProcessS), "s"});
        o.layers.push_back({"sim.cell_s.max", maxOf(inProcessS), "s"});
        o.layers.push_back(
            {"sim.cell_wait_s", mean(overheadMs) * 1e-3, "s"});
        o.layers.push_back(
            {"sim.worker_busy_frac", busy / (wall * kWorkers), "ratio"});
        o.layers.push_back(
            {"sim.cells_retried", double(shed.load()), "count"});
        double tr = tracedRefs / tracedS, un = untracedRefs / untracedS;
        o.layers.push_back(
            {"bench.tracing_overhead_frac", 1.0 - tr / un, "ratio"});
        o.extras.push_back({"traced_refs_per_s", tr, "refs/s"});
        o.extras.push_back({"untraced_refs_per_s", un, "refs/s"});
        o.failed += runLadder({&bundle},
                              LadderConfig{job.l1Size, job.l2Size}, tracer,
                              o.layers);
    }
    return o;
}

} // namespace vrcbench
