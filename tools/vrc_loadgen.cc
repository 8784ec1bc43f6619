/**
 * @file
 * Load/chaos generator for the simulation service (vrc-sim --serve).
 *
 * Spawns a mix of clients against a running server:
 *
 *  - well-behaved clients split a workload's trace into segments,
 *    submit them concurrently, retry shed/lost segments a bounded
 *    number of times (reconnecting when the server -- or an injected
 *    fault -- cuts the connection), and with --verify byte-compare
 *    every RESULT line against the batch code path run in-process;
 *  - malformed clients send garbage after HELLO, repeatedly, and
 *    expect to end up quarantined by name;
 *  - disconnect clients hang up mid-submit and mid-wait;
 *  - slowloris clients dribble a frame a few bytes at a time and
 *    expect the server's read-timeout guillotine.
 *
 * The summary line on stderr ends with the latency of the segments
 * answered ok, each timed from its first SUBMIT to its RESULT (shed
 * retries and reconnects included): nearest-rank p50 and p99, max.
 *
 * Exit code: 0 when every well-behaved segment was answered (or
 * tolerably drained with --tolerate-drain) and no verified mismatch;
 * 1 otherwise; 2 on usage errors.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/atomic_file.hh"
#include "base/cli.hh"
#include "base/log.hh"
#include "serve/client.hh"
#include "serve/wire.hh"
#include "sim/campaign.hh"
#include "sim/experiment.hh"
#include "trace/generator.hh"
#include "trace/workload.hh"

using namespace vrc;

namespace
{

using Clock = std::chrono::steady_clock;

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: vrc_loadgen (--connect-unix=<path> | --connect-tcp=<port>)\n"
        "  --profile=<pops|thor|abaqus>  workload (default pops)\n"
        "  --scale=<f>      rescale the trace (default 1.0, 1e-6 to 1e6)\n"
        "  --org=<vr|rr|rr-noincl|vr-rlt>  organization (default vr)\n"
        "  --l1=<bytes> --l2=<bytes>  cache sizes (default 16K/256K)\n"
        "  --clients=<n>    well-behaved clients (default 4, 1 to 256)\n"
        "  --segments=<n>   trace segments to submit (default 8)\n"
        "  --malformed=<n>  garbage-sending clients (default 0, max 256)\n"
        "  --disconnect=<n> mid-segment hangup clients (default 0, max 256)\n"
        "  --slowloris=<n>  byte-dribbling clients (default 0, max 256)\n"
        "  --verify         byte-compare results against batch mode\n"
        "  --retry=<n>      resubmits after shed/lost (default 3)\n"
        "  --timeout=<s>    per-reply wait (default 60)\n"
        "  --tolerate-drain count drained/unanswered segments as ok\n"
        "                   (for soaks that SIGTERM the server)\n"
        "  --out=<path>     write received summary lines in segment\n"
        "                   order (diffs against vrc_sim --summary)\n";
    std::exit(2);
}

struct Config
{
    std::string unixPath;
    int tcpPort = -1;
    std::string profileName = "pops";
    double scale = 1.0;
    HierarchyKind kind = HierarchyKind::VirtualReal;
    std::uint32_t l1 = 16 * 1024, l2 = 256 * 1024;
    unsigned clients = 4;
    unsigned segments = 8;
    unsigned malformed = 0;
    unsigned disconnect = 0;
    unsigned slowloris = 0;
    bool verify = false;
    bool tolerateDrain = false;
    unsigned retries = 3;
    double timeout = 60.0;
    std::string outPath;
};

/** Per-segment outcome, filled in by whichever client ran it. */
enum class SegOutcome
{
    Pending,
    Ok,
    Mismatch,
    Drained,
    Failed,
};

struct Shared
{
    Config cfg;
    TraceBundle bundle;
    SimJob job;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    std::vector<SegOutcome> outcome;
    std::vector<std::string> lines; ///< received summary lines
    std::vector<double> latencyMs; ///< first SUBMIT to RESULT
    std::vector<std::string> expected; ///< batch lines (--verify)
    std::mutex mu;
    std::atomic<unsigned> shedRetries{0};
    std::atomic<unsigned> reconnects{0};
    std::atomic<unsigned> quarantinedSeen{0};
    std::atomic<unsigned> slowlorisKilled{0};
};

Status
connectClient(const Config &cfg, ServeClient &c)
{
    if (!cfg.unixPath.empty())
        return c.connectUnix(cfg.unixPath);
    return c.connectTcp(cfg.tcpPort);
}

SubmitRequest
makeSubmit(const Shared &sh, std::size_t seg)
{
    SubmitRequest req;
    req.segmentId = seg;
    req.job = sh.job;
    req.profileName = sh.cfg.profileName;
    req.scale = sh.cfg.scale;
    auto [lo, hi] = sh.ranges[seg];
    req.records.assign(sh.bundle.records.begin() + lo,
                       sh.bundle.records.begin() + hi);
    return req;
}

void
recordOutcome(Shared &sh, std::size_t seg, SegOutcome out,
              const std::string &line = "", double latency_ms = 0.0)
{
    std::lock_guard<std::mutex> g(sh.mu);
    sh.outcome[seg] = out;
    if (!line.empty()) {
        sh.lines[seg] = line;
        sh.latencyMs[seg] = latency_ms;
    }
}

/** `latency p50=... p99=... max=... ms (n=...)` over the ok segments. */
std::string
latencySummary(const Shared &sh)
{
    std::vector<double> ms;
    for (std::size_t seg = 0; seg < sh.outcome.size(); ++seg)
        if (sh.outcome[seg] == SegOutcome::Ok)
            ms.push_back(sh.latencyMs[seg]);
    std::sort(ms.begin(), ms.end());
    std::ostringstream os;
    os << std::fixed << std::setprecision(3) << "latency";
    // Nearest rank: the ceil(p/100 * n)-th smallest sample.
    auto pct = [&](std::size_t p) {
        return ms[(p * ms.size() + 99) / 100 - 1];
    };
    if (ms.empty())
        os << " p50=- p99=- max=-";
    else
        os << " p50=" << pct(50) << " p99=" << pct(99)
           << " max=" << ms.back();
    os << " ms (n=" << ms.size() << ")";
    return os.str();
}

/** A well-behaved client running its share of the segments. */
void
goodClient(Shared &sh, unsigned id)
{
    const Config &cfg = sh.cfg;
    std::string name = "lg-" + std::to_string(id);
    ServeClient c;
    bool connected = false;

    for (std::size_t seg = id; seg < sh.ranges.size();
         seg += cfg.clients) {
        bool answered = false, submitted = false;
        Clock::time_point first_submit;
        for (unsigned attempt = 0; attempt <= cfg.retries && !answered;
             ++attempt) {
            if (!connected) {
                Status conn = connectClient(cfg, c);
                if (!conn) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                    continue;
                }
                if (!c.hello(name)) {
                    c.close();
                    continue;
                }
                connected = true;
                if (attempt > 0 || seg != id)
                    sh.reconnects.fetch_add(1);
            }
            if (!submitted) {
                first_submit = Clock::now();
                submitted = true;
            }
            if (!c.submit(makeSubmit(sh, seg))) {
                c.close();
                connected = false;
                continue;
            }
            // Wait for this segment's reply; tolerate interleaved
            // frames for other segments (there are none today -- one
            // in-flight segment per client -- but stay honest).
            for (;;) {
                Result<Frame> fr = c.readFrame(cfg.timeout);
                if (!fr) {
                    // Timeout / EOF / torn frame: reconnect, retry.
                    c.close();
                    connected = false;
                    break;
                }
                Frame f = fr.take();
                if (f.type == FrameType::Result) {
                    Result<ResultReply> r = decodeResult(f.payload);
                    if (!r || r.value().segmentId != seg)
                        continue;
                    std::string line = r.take().summaryLine;
                    double ms = std::chrono::duration<double, std::milli>(
                                    Clock::now() - first_submit)
                                    .count();
                    SegOutcome out = SegOutcome::Ok;
                    if (cfg.verify && line != sh.expected[seg])
                        out = SegOutcome::Mismatch;
                    recordOutcome(sh, seg, out, line, ms);
                    answered = true;
                    break;
                }
                if (f.type == FrameType::Shed) {
                    sh.shedRetries.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(100));
                    break; // resubmit on the same connection
                }
                if (f.type == FrameType::Draining) {
                    recordOutcome(sh, seg, SegOutcome::Drained);
                    answered = true; // no point retrying
                    break;
                }
                if (f.type == FrameType::Error) {
                    Result<ErrorReply> e =
                        decodeErrorReply(f.payload);
                    warn(name, ": segment ", seg, " failed: ",
                         e ? e.value().message : "undecodable error");
                    recordOutcome(sh, seg, SegOutcome::Failed);
                    answered = true;
                    break;
                }
                if (f.type == FrameType::Quarantined ||
                    f.type == FrameType::Bye) {
                    c.close();
                    connected = false;
                    break;
                }
                // Unknown reply type: ignore.
            }
        }
        if (!answered)
            recordOutcome(sh, seg, SegOutcome::Failed);
    }
    if (connected)
        (void)c.send(encodeBye());
}

/** Sends garbage until quarantined by name. */
void
malformedClient(Shared &sh, unsigned id)
{
    const Config &cfg = sh.cfg;
    std::string name = "chaos-mal-" + std::to_string(id);
    for (unsigned round = 0; round < 8; ++round) {
        ServeClient c;
        if (!connectClient(cfg, c)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            continue;
        }
        if (!c.hello(name))
            continue;
        // The server may already have us quarantined: then the HELLO
        // answer is a QUARANTINED frame and the socket closes.
        Result<Frame> fr = c.readFrame(0.2);
        if (fr && fr.value().type == FrameType::Quarantined) {
            sh.quarantinedSeen.fetch_add(1);
            return;
        }
        // Not banned yet: poison this session with frame garbage.
        (void)c.send("this is definitely not a VRCW frame");
        // Drain whatever the server says until it hangs up.
        while (c.readFrame(1.0)) {
        }
        c.close();
    }
}

/** Hangs up mid-submit and mid-wait. */
void
disconnectClient(Shared &sh, unsigned id)
{
    const Config &cfg = sh.cfg;
    std::string name = "chaos-dc-" + std::to_string(id);
    for (unsigned round = 0; round < 4; ++round) {
        ServeClient c;
        if (!connectClient(cfg, c))
            return;
        if (!c.hello(name))
            continue;
        std::string frame = encodeSubmit(
            makeSubmit(sh, id % sh.ranges.size()));
        if (round % 2 == 0) {
            // Half a SUBMIT, then vanish: the server must reap the
            // torn session, not wait forever.
            (void)c.send(frame.substr(0, frame.size() / 2));
            c.close();
        } else {
            // Full SUBMIT, then vanish while the segment runs: the
            // server must abandon the work, not crash on the reply.
            (void)c.send(frame);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            c.close();
        }
    }
}

/** Dribbles a frame slower than the server's read timeout. */
void
slowlorisClient(Shared &sh, unsigned id)
{
    const Config &cfg = sh.cfg;
    ServeClient c;
    if (!connectClient(cfg, c))
        return;
    if (!c.hello("chaos-slow-" + std::to_string(id)))
        return;
    std::string frame =
        encodeSubmit(makeSubmit(sh, id % sh.ranges.size()));
    // One byte every 200 ms: a 9-byte header alone outlasts any
    // sub-2s read timeout. The server must cut us off; a successful
    // write after the guillotine would mean it did not.
    for (std::size_t i = 0; i < frame.size(); ++i) {
        if (!c.send(frame.substr(i, 1))) {
            sh.slowlorisKilled.fetch_add(1);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        Result<Frame> fr = c.readFrame(0.001);
        if (!fr && fr.error().kind == ErrorKind::Io) {
            sh.slowlorisKilled.fetch_add(1); // peer closed on us
            return;
        }
        if (fr && (fr.value().type == FrameType::Error ||
                   fr.value().type == FrameType::Bye)) {
            sh.slowlorisKilled.fetch_add(1);
            return;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    const cli::Tool tool{"vrc-loadgen", usage};
    cli::parse(tool, argc, argv, {
        {"--connect-unix", cfg.unixPath},
        {"--connect-tcp", cfg.tcpPort, 0, 65535},
        {"--profile", cfg.profileName},
        {"--scale", cfg.scale, 1e-6, 1e6},
        {"--org",
         [&](const std::string &v) {
             return cli::store(cfg.kind, hierarchyKindFromArg(v));
         }},
        {"--l1", cfg.l1},
        {"--l2", cfg.l2},
        {"--clients", cfg.clients, 1u, cli::kMaxThreads},
        {"--segments", cfg.segments, 1u},
        {"--malformed", cfg.malformed, 0u, cli::kMaxThreads},
        {"--disconnect", cfg.disconnect, 0u, cli::kMaxThreads},
        {"--slowloris", cfg.slowloris, 0u, cli::kMaxThreads},
        {"--verify", cfg.verify},
        {"--tolerate-drain", cfg.tolerateDrain},
        {"--retry", cfg.retries},
        {"--timeout", cfg.timeout, 0.0, 1e6},
        {"--out", cfg.outPath},
    });
    if (cfg.unixPath.empty() && cfg.tcpPort < 0)
        usage();

    Shared sh;
    sh.cfg = cfg;
    sh.job = SimJob{cfg.kind, cfg.l1, cfg.l2, false, 0,
                    TimingMode::Analytic};
    WorkloadProfile profile =
        scaled(profileByName(cfg.profileName), cfg.scale);
    cli::check(tool,
               checkMachineConfig(jobMachineConfig(sh.job, profile.pageSize)));
    sh.bundle = generateTrace(profile);

    // Contiguous segments covering the whole trace.
    std::size_t total = sh.bundle.records.size();
    std::size_t per = total / cfg.segments;
    if (per == 0)
        fatal("trace of ", total, " records is too short for ",
              cfg.segments, " segments");
    for (unsigned s = 0; s < cfg.segments; ++s) {
        std::size_t lo = s * per;
        std::size_t hi = s + 1 == cfg.segments ? total : lo + per;
        sh.ranges.emplace_back(lo, hi);
    }
    sh.outcome.assign(cfg.segments, SegOutcome::Pending);
    sh.lines.assign(cfg.segments, "");
    sh.latencyMs.assign(cfg.segments, 0.0);

    if (cfg.verify) {
        // The ground truth is the batch code path itself, run
        // in-process on the same bytes the server gets.
        sh.expected.assign(cfg.segments, "");
        for (unsigned s = 0; s < cfg.segments; ++s) {
            TraceBundle seg;
            seg.profile = sh.bundle.profile;
            auto [lo, hi] = sh.ranges[s];
            seg.records.assign(sh.bundle.records.begin() + lo,
                               sh.bundle.records.begin() + hi);
            sh.expected[s] =
                encodeSummaryLine(0, runSimulationJob(seg, sh.job));
        }
    }

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < cfg.clients; ++i)
        threads.emplace_back([&sh, i] { goodClient(sh, i); });
    for (unsigned i = 0; i < cfg.malformed; ++i)
        threads.emplace_back([&sh, i] { malformedClient(sh, i); });
    for (unsigned i = 0; i < cfg.disconnect; ++i)
        threads.emplace_back([&sh, i] { disconnectClient(sh, i); });
    for (unsigned i = 0; i < cfg.slowloris; ++i)
        threads.emplace_back([&sh, i] { slowlorisClient(sh, i); });
    for (std::thread &t : threads)
        t.join();

    unsigned ok = 0, mismatch = 0, drained = 0, failed = 0;
    for (SegOutcome o : sh.outcome) {
        switch (o) {
          case SegOutcome::Ok:
            ++ok;
            break;
          case SegOutcome::Mismatch:
            ++mismatch;
            break;
          case SegOutcome::Drained:
            ++drained;
            break;
          default:
            ++failed;
            break;
        }
    }
    std::cerr << "loadgen: " << ok << "/" << cfg.segments
              << " segments ok, " << mismatch << " mismatched, "
              << drained << " drained, " << failed << " failed; "
              << sh.shedRetries.load() << " shed retries, "
              << sh.reconnects.load() << " reconnects, "
              << sh.quarantinedSeen.load() << "/" << cfg.malformed
              << " malformed clients quarantined, "
              << sh.slowlorisKilled.load() << "/" << cfg.slowloris
              << " slowloris cut off; " << latencySummary(sh) << "\n";

    if (!cfg.outPath.empty()) {
        std::string out;
        for (unsigned s = 0; s < cfg.segments; ++s)
            if (!sh.lines[s].empty())
                out += sh.lines[s] + "\n";
        Status wrote = writeFileAtomic(cfg.outPath, out);
        if (!wrote)
            fatal("cannot write ", cfg.outPath, ": ",
                  wrote.error().message);
    }

    if (mismatch > 0)
        return 1;
    if (failed > 0 && !cfg.tolerateDrain)
        return 1;
    if (drained > 0 && !cfg.tolerateDrain)
        return 1;
    if (cfg.malformed > 0 &&
        sh.quarantinedSeen.load() == 0)
        return 1;
    return 0;
}
