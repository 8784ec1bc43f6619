/**
 * @file
 * Long-running multi-tenant simulation service (vrc-sim --serve).
 *
 * Many concurrent clients stream trace segments over the framed wire
 * protocol (wire.hh) on a unix socket and/or localhost TCP; the
 * server multiplexes them onto a pool of worker threads, each
 * replaying on a never-used simulator (its one spare, built after its
 * previous reply, when the machine matches), and streams back each
 * segment's stats as the campaign journal's hexfloat summary line --
 * bit-identical to running the same segment through batch vrc-sim.
 * A SUBMIT may instead name a cell (profile + exact scale, no
 * records): the worker generates that trace once, keeps it in a small
 * cache, and replays it like a segment. That is how vrc-sim
 * --coordinate runs its grid on served sessions (sim/shard.hh).
 *
 * Robustness is the design center, reusing the batch campaign's
 * failure machinery in a serving shape:
 *
 *  - Per-session state machine with validating frame decode: a
 *    malformed frame (bad magic, oversized payload, garbage body)
 *    poisons only that session -- the socket is closed, the offense
 *    is counted, and every other client keeps streaming.
 *  - Bounded admission: a per-client in-flight cap and a global
 *    queue cap; work beyond either bound is refused with an explicit
 *    SHED frame (backpressure the client can see), never queued
 *    without limit.
 *  - Per-segment deadlines: each attempt is the campaign's cell
 *    attempt (invokeGuarded() over replayCancellable()), so a segment
 *    that exceeds the deadline is cut off with a Timeout error by the
 *    same code that times out a campaign cell. The deadline starts
 *    with the replay; the attempt's token is a child of the session's,
 *    which closing the session cancels, so a client gone mid-segment
 *    stops the replay too.
 *  - Bounded retry + quarantine: transient failures (including
 *    injected ones) are retried like campaign cells; clients whose
 *    sessions keep getting poisoned are quarantined by name and
 *    refused at HELLO.
 *  - Graceful drain: the first SIGINT/SIGTERM (or requestDrain())
 *    stops accepting connections and admitting segments, finishes
 *    everything in flight, flushes the service manifest atomically,
 *    and exits with the documented interrupted code; the second
 *    signal hard-exits.
 *  - Deterministic fault injection on the service path itself
 *    (--inject-faults drop=/tear=): responses are dropped or torn on
 *    a pure (seed, session, sequence) hash so the soak script can
 *    prove clients survive a flaky server.
 */

#ifndef VRC_SERVE_SERVER_HH
#define VRC_SERVE_SERVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/error.hh"

namespace vrc
{

/** Service configuration. */
struct ServeOptions
{
    /** Unix-domain listening socket path; empty = no unix listener. */
    std::string unixPath;

    /**
     * Localhost TCP port; -1 = no TCP listener, 0 = kernel-assigned
     * (query the bound port with ServeServer::tcpPort()).
     */
    int tcpPort = -1;

    /** Worker threads running segments. */
    unsigned workers = 2;

    /** Global admission queue bound (segments queued, not running). */
    std::size_t queueCap = 64;

    /** Per-session in-flight segment bound. */
    std::size_t perClientCap = 4;

    /** Per-segment wall-clock deadline in seconds; 0 = none. */
    double segmentDeadline = 0.0;

    /** Retries after a failed segment attempt (not timeouts). */
    unsigned maxRetries = 0;

    /**
     * Slowloris guillotine: a frame that has not completed this many
     * seconds after its first byte arrived kills the session.
     */
    double readTimeoutSeconds = 10.0;

    /** Largest accepted frame payload. */
    std::size_t maxFrameBytes = 64u << 20;

    /** Poisoned sessions per client name before HELLO is refused. */
    unsigned quarantineThreshold = 3;

    /** Service manifest path (written atomically on drain). */
    std::string manifest;
};

/** Per-session protocol state (the session state machine). */
enum class SessionState : std::uint8_t
{
    AwaitHello, ///< connected, nothing valid received yet
    Ready,      ///< HELLO accepted; SUBMIT frames welcome
    Poisoned,   ///< protocol violation; socket closed, offense counted
    Closed,     ///< clean close (BYE, EOF, drain)
};

/** Printable session-state name. */
const char *sessionStateName(SessionState s);

/** Counters for the service manifest and the soak checks. */
struct ServiceStats
{
    std::uint64_t sessionsAccepted = 0;
    std::uint64_t sessionsPoisoned = 0;
    std::uint64_t hellosRejected = 0; ///< quarantined clients refused
    std::uint64_t segmentsCompleted = 0;
    std::uint64_t segmentsFailed = 0; ///< exhausted retries / fatal
    std::uint64_t segmentsShed = 0;
    std::uint64_t segmentsDrained = 0; ///< refused while draining
    std::uint64_t segmentsTimedOut = 0;
    std::uint64_t segmentsAbandoned = 0; ///< client gone mid-segment
    std::uint64_t responsesDropped = 0;  ///< injected connection drops
    std::uint64_t responsesTorn = 0;     ///< injected torn frames
    std::uint64_t poolHits = 0;   ///< attempts replayed on a spare
    std::uint64_t poolMisses = 0; ///< attempts that built inline
    std::vector<std::string> quarantinedClients;
};

/**
 * Test hook run before every simulator build, a segment's inline one
 * and a worker's spare alike. A test installs one that throws to stand
 * in for a failed allocation, or that blocks to hold a segment;
 * install it before the server starts and clear it after the server
 * is destroyed.
 */
std::function<void()> &simulatorBuildHookForTest();

/** The service. Construct, start(), then waitUntilDrained(). */
class ServeServer
{
  public:
    explicit ServeServer(ServeOptions opt);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Bind the listeners and spawn the accept/worker threads. */
    Status start();

    /**
     * Block until a drain completes (signal or requestDrain()), then
     * tear everything down, write the manifest, and return the
     * process exit code: kExitInterrupted after a signal, 0 after a
     * programmatic drain.
     */
    int waitUntilDrained();

    /** Begin a graceful drain (idempotent, callable from any thread). */
    void requestDrain();

    /** The bound TCP port (after start(); -1 when no TCP listener). */
    int tcpPort() const;

    /** Snapshot of the service counters. */
    ServiceStats stats() const;

    /** The service manifest as JSON (what drain writes). */
    std::string manifestJson(bool drained, int signal) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace vrc

#endif // VRC_SERVE_SERVER_HH
