/**
 * @file
 * Framed wire protocol for the simulation service (vrc-sim --serve).
 *
 * Everything on the socket is a length-prefixed frame:
 *
 *     u32 magic 'VRCW' | u8 type | u32 payloadLen | payload bytes
 *
 * (little-endian, 9-byte header). The protocol is deliberately dumb:
 * no compression, no pipident negotiation beyond a version number in
 * HELLO, and the stats payload is the campaign journal's hexfloat
 * summary line verbatim -- the same wire-stable encoding the
 * checkpoint/resume machinery already proves bit-identical to batch
 * mode.
 *
 * Every decoder here is a validating `try*` in the base/error.hh
 * sense: bad magic, an unknown frame type, an oversized length, or a
 * payload that does not parse all come back as a Result carrying the
 * failure taxonomy, never as UB or a dead server. A malformed frame
 * poisons *its session*; the framing layer itself has no global
 * state.
 *
 * A segment SUBMIT embeds the standard binary trace container (trace_io
 * magic + version + count + packed records), so a client can stream a
 * .vrct file's bytes unchanged and the server revalidates them with
 * the same tryReadTraceBinary() the batch loader uses. A cell SUBMIT
 * stops after the profile name: the server generates the trace.
 */

#ifndef VRC_SERVE_WIRE_HH
#define VRC_SERVE_WIRE_HH

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hh"
#include "sim/experiment.hh"
#include "trace/record.hh"

namespace vrc
{

/** Frame magic: "VRCW" little-endian. */
inline constexpr std::uint32_t wireMagic = 0x57435256;

/** Protocol version carried in HELLO. */
inline constexpr std::uint32_t wireVersion = 1;

/** Wire frame header size in bytes. */
inline constexpr std::size_t wireHeaderBytes = 9;

/** Default cap on one frame's payload (a segment of trace records). */
inline constexpr std::size_t wireMaxPayloadDefault = 64u << 20;

/** Frame types. */
enum class FrameType : std::uint8_t
{
    Hello = 1,       ///< client -> server: version + client name
    Submit = 2,      ///< client -> server: one trace segment to run
    Result = 3,      ///< server -> client: hexfloat summary line
    Error = 4,       ///< server -> client: taxonomy kind + message
    Shed = 5,        ///< server -> client: admission refused (backpressure)
    Draining = 6,    ///< server -> client: shutting down, no new work
    Quarantined = 7, ///< server -> client: this client is banned
    Bye = 8,         ///< either direction: clean close

    // Codes 9-12 are reserved: they carried the retired shard-worker
    // frames. The header check refuses them like any unknown type.
};

/** Printable frame-type name (diagnostics). */
const char *frameTypeName(FrameType t);

/** One decoded frame: type + raw payload. */
struct Frame
{
    FrameType type = FrameType::Bye;
    std::string payload;
};

/** HELLO payload: protocol version + client name. */
struct HelloRequest
{
    std::uint32_t version = wireVersion;
    std::string client; ///< stable client identity (quarantine key)
};

/**
 * SUBMIT payload: which machine, which workload, which records. It has
 * one of two bodies. A segment carries its records; a cell carries
 * none and names its trace by (profileName, exact scale), which the
 * server generates. A cell does not carry job.invariantPeriod.
 */
struct SubmitRequest
{
    std::uint64_t segmentId = 0; ///< client-chosen, echoed in replies
    SimJob job;                  ///< organization / sizes / timing
    std::string profileName;     ///< pops | thor | abaqus
    double scale = 1.0;          ///< profile scale (exact double bits)
    std::vector<TraceRecord> records; ///< a segment's; empty for a cell
    bool cell = false; ///< a cell body: no trace container follows
};

/** RESULT payload: segment id + the exact summary line. */
struct ResultReply
{
    std::uint64_t segmentId = 0;
    std::string summaryLine; ///< encodeSummaryLine(segmentId, summary)
};

/** ERROR / SHED / DRAINING / QUARANTINED payload. */
struct ErrorReply
{
    std::uint64_t segmentId = 0; ///< 0 = session-level
    ErrorKind kind = ErrorKind::Worker;
    std::string message;
};

// ---- encoding -------------------------------------------------------

/** Wrap @p payload in a frame header. */
std::string encodeFrame(FrameType type, const std::string &payload);

std::string encodeHello(const HelloRequest &h);
std::string encodeSubmit(const SubmitRequest &s);
std::string encodeResult(const ResultReply &r);

/** ERROR, SHED, DRAINING and QUARANTINED share one payload shape. */
std::string encodeErrorReply(FrameType type, const ErrorReply &e);

/** A BYE frame (empty payload). */
std::string encodeBye();

// ---- decoding -------------------------------------------------------

Result<HelloRequest> decodeHello(const std::string &payload);
Result<SubmitRequest> decodeSubmit(const std::string &payload);
Result<ResultReply> decodeResult(const std::string &payload);
Result<ErrorReply> decodeErrorReply(const std::string &payload);

/**
 * A server's listening sockets: a unix-domain path and/or a TCP port
 * on 127.0.0.1: the service's. Closing (explicitly or on destruction) unlinks the
 * unix path.
 */
class Listeners
{
  public:
    Listeners() = default;
    ~Listeners() { close(); }

    Listeners(const Listeners &) = delete;
    Listeners &operator=(const Listeners &) = delete;

    /**
     * Bind and listen on @p unixPath (empty = none) and on TCP
     * @p tcpPort (0 = ephemeral, -1 = none); at least one is
     * required. @p who prefixes the error when neither is given.
     */
    Status open(const std::string &unixPath, int tcpPort,
                const char *who);

    /** Close both sockets and unlink the unix path. */
    void close();

    bool isOpen() const { return _unixFd >= 0 || _tcpFd >= 0; }

    /**
     * One turn of an accept loop: wait up to @p timeoutMs for a
     * connection (or for one of @p wakeFds to turn readable), then
     * hand each accepted socket to @p adopt. Returns false, accepting
     * nothing, when poll() fails or @p stop() holds after the wait.
     */
    bool acceptTurn(int timeoutMs, std::initializer_list<int> wakeFds,
                    const std::function<bool()> &stop,
                    const std::function<void(int)> &adopt);

    /** The bound TCP port (ephemeral resolved); -1 = no TCP. */
    int tcpPort() const { return _tcpPort; }

  private:
    std::string _unixPath;
    int _unixFd = -1;
    int _tcpFd = -1;
    int _tcpPort = -1;
};

/**
 * connect() retrying EINTR. POSIX says an interrupted connect keeps
 * establishing in the background, so the retry waits for writability
 * and reads SO_ERROR instead of calling connect() again (which would
 * fail with EALREADY).
 */
Status connectRetryFd(int fd, const void *sockaddrPtr,
                      unsigned sockaddrLen);

/**
 * Incremental frame scanner: feed() bytes as they arrive, next() pops
 * complete frames. A header failing validation (bad magic, unknown
 * type, payload above @p maxPayload) is a sticky Parse/Bounds error:
 * once the stream is off the rails there is no way to resynchronize,
 * so the session must be poisoned.
 */
class FrameReader
{
  public:
    explicit FrameReader(std::size_t maxPayload = wireMaxPayloadDefault)
        : _maxPayload(maxPayload)
    {
    }

    /** Append raw bytes from the socket. */
    void feed(const char *data, std::size_t n);

    /**
     * Pop the next complete frame. Ok+frame when one is ready; Ok with
     * std::nullopt-like empty optional is expressed as ok(false): use
     * hasFrame()/take pattern instead -- see below.
     */
    enum class State
    {
        NeedMore, ///< no complete frame buffered yet
        Frame,    ///< take() returns the next frame
        Broken,   ///< validation failed; error() explains
    };

    /** Scan the buffer; never blocks. */
    State poll();

    /** The frame after poll() == Frame. */
    Frame take();

    /** The validation failure after poll() == Broken. */
    const Error &error() const { return _error; }

    /** Bytes buffered but not yet consumed (diagnostics). */
    std::size_t pendingBytes() const { return _buf.size() - _pos; }

  private:
    std::size_t _maxPayload;
    std::string _buf;
    std::size_t _pos = 0;
    bool _broken = false;
    Error _error;
};

/**
 * One framed stream socket: the fd, its FrameReader and a write lock.
 * The service's sessions and ServeClient (which the shard coordinator
 * dials its servers with) all speak VRCW through one of these, so the socket
 * is read and written in exactly one place (and a transport other
 * than a socket would plug in here).
 *
 * Every syscall retries EINTR and short writes: a signal landing
 * mid-call (SIGUSR1 from a profiler, SIGCHLD from a supervisor, the
 * drain SIGTERM itself when the handler is installed without
 * SA_RESTART) must not tear a frame in half or poison the session.
 *
 * Threading: any thread may send() or shut(); one reader thread owns
 * readFrame(). reset() and close() must not race a readFrame().
 * Destruction closes the fd.
 */
class FrameConn
{
  public:
    explicit FrameConn(int fd = -1,
                       std::size_t maxPayload = wireMaxPayloadDefault)
        : _fd(fd), _frames(maxPayload)
    {
    }

    ~FrameConn() { close(); }

    FrameConn(const FrameConn &) = delete;
    FrameConn &operator=(const FrameConn &) = delete;

    /** Close the current fd, if any; adopt @p fd with nothing buffered. */
    void reset(int fd, std::size_t maxPayload = wireMaxPayloadDefault);

    /** Close the fd; later sends and reads fail. */
    void close() { reset(-1); }

    /** The socket (-1 once closed). */
    int fd() const { return _fd; }

    /**
     * Write @p bytes whole under the write lock, then shut the socket
     * when @p thenShut, so no other thread's frame lands between the
     * two. Returns false, writing nothing and with errno EPIPE, once
     * the socket is shut or closed; a failed write shuts it too.
     */
    bool send(std::string_view bytes, bool thenShut = false);

    /** Shut the socket down both ways (idempotent); later sends fail. */
    void shut();

    /**
     * The next frame, buffered ones first, waiting up to
     * @p timeoutSeconds for more bytes. Fails with Timeout when no
     * frame completed in time (pendingBytes() then tells an idle link
     * from a stalled frame), Io at peer EOF, on a read error or on a
     * closed connection, or the reader's sticky Parse/Format/Bounds
     * error for a broken stream.
     */
    Result<Frame> readFrame(double timeoutSeconds);

    /** Bytes of an incomplete frame buffered by the reader. */
    std::size_t pendingBytes() const { return _frames.pendingBytes(); }

  private:
    int _fd;
    FrameReader _frames; ///< the reader thread's
    std::mutex _writeMu;
    bool _shut = false; ///< under _writeMu
};

} // namespace vrc

#endif // VRC_SERVE_WIRE_HH
