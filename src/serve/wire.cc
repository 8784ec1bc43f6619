#include "serve/wire.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "trace/trace_io.hh"

namespace vrc
{

namespace
{

void
putU8(std::string &out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU16(std::string &out, std::uint16_t v)
{
    for (int i = 0; i < 2; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/** Bounds-checked little-endian cursor over a payload. */
class Cursor
{
  public:
    explicit Cursor(const std::string &buf) : _buf(buf) {}

    bool
    u8(std::uint8_t &v)
    {
        if (_pos + 1 > _buf.size())
            return false;
        v = static_cast<std::uint8_t>(_buf[_pos++]);
        return true;
    }

    bool
    u16(std::uint16_t &v)
    {
        if (_pos + 2 > _buf.size())
            return false;
        v = 0;
        for (int i = 0; i < 2; ++i)
            v |= static_cast<std::uint16_t>(
                     static_cast<unsigned char>(_buf[_pos + i]))
                 << (8 * i);
        _pos += 2;
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        if (_pos + 4 > _buf.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(_buf[_pos + i]))
                 << (8 * i);
        _pos += 4;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        if (_pos + 8 > _buf.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(_buf[_pos + i]))
                 << (8 * i);
        _pos += 8;
        return true;
    }

    bool
    bytes(std::size_t n, std::string &out)
    {
        if (_pos + n > _buf.size())
            return false;
        out.assign(_buf, _pos, n);
        _pos += n;
        return true;
    }

    /** Everything left, as a string. */
    std::string
    rest()
    {
        std::string out = _buf.substr(_pos);
        _pos = _buf.size();
        return out;
    }

    std::size_t remaining() const { return _buf.size() - _pos; }
    std::size_t pos() const { return _pos; }

  private:
    const std::string &_buf;
    std::size_t _pos = 0;
};

/** Sane cap for the client-name string in HELLO. */
constexpr std::size_t maxNameBytes = 256;


// Every socket syscall retries EINTR (and writes retry short writes):
// see FrameConn.

/** write() all @p n bytes. */
bool
writeAllFd(int fd, const char *data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        // MSG_NOSIGNAL: a peer that vanished mid-write must surface
        // as EPIPE, not kill a library embedder that never installed
        // a SIGPIPE handler (a server answering a coordinator that
        // has already gone, for instance).
        ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0 && errno == ENOTSOCK)
            w = ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    return true;
}

/**
 * One read() of up to @p n bytes: the byte count, 0 at EOF, or -1
 * with errno set.
 */
long
readSomeFd(int fd, char *data, std::size_t n)
{
    for (;;) {
        ssize_t r = ::read(fd, data, n);
        if (r < 0 && errno == EINTR)
            continue;
        return static_cast<long>(r);
    }
}

/** accept(): the fd, or -1 with errno set. */
int
acceptRetryFd(int listenFd)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0 && errno == EINTR)
            continue;
        return fd;
    }
}

} // namespace

const char *
frameTypeName(FrameType t)
{
    switch (t) {
      case FrameType::Hello:
        return "hello";
      case FrameType::Submit:
        return "submit";
      case FrameType::Result:
        return "result";
      case FrameType::Error:
        return "error";
      case FrameType::Shed:
        return "shed";
      case FrameType::Draining:
        return "draining";
      case FrameType::Quarantined:
        return "quarantined";
      case FrameType::Bye:
        return "bye";
    }
    return "unknown";
}

std::string
encodeFrame(FrameType type, const std::string &payload)
{
    std::string out;
    out.reserve(wireHeaderBytes + payload.size());
    putU32(out, wireMagic);
    putU8(out, static_cast<std::uint8_t>(type));
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out += payload;
    return out;
}

std::string
encodeHello(const HelloRequest &h)
{
    std::string p;
    putU32(p, h.version);
    putU16(p, static_cast<std::uint16_t>(h.client.size()));
    p += h.client;
    return encodeFrame(FrameType::Hello, p);
}

std::string
encodeSubmit(const SubmitRequest &s)
{
    std::string p;
    putU64(p, s.segmentId);
    putU8(p, static_cast<std::uint8_t>(s.job.kind));
    putU32(p, s.job.l1Size);
    putU32(p, s.job.l2Size);
    putU8(p, s.job.split ? 1 : 0);
    putU8(p, static_cast<std::uint8_t>(s.job.timingMode));
    std::uint64_t scale_bits;
    static_assert(sizeof(scale_bits) == sizeof(s.scale));
    std::memcpy(&scale_bits, &s.scale, sizeof(scale_bits));
    putU64(p, scale_bits);
    putU16(p, static_cast<std::uint16_t>(s.profileName.size()));
    p += s.profileName;
    if (!s.cell) {
        std::ostringstream trace;
        writeTraceBinary(trace, s.records);
        p += trace.str();
    }
    return encodeFrame(FrameType::Submit, p);
}

std::string
encodeResult(const ResultReply &r)
{
    std::string p;
    putU64(p, r.segmentId);
    p += r.summaryLine;
    return encodeFrame(FrameType::Result, p);
}

std::string
encodeErrorReply(FrameType type, const ErrorReply &e)
{
    std::string p;
    putU64(p, e.segmentId);
    putU8(p, static_cast<std::uint8_t>(e.kind));
    p += e.message;
    return encodeFrame(type, p);
}

std::string
encodeBye()
{
    return encodeFrame(FrameType::Bye, "");
}

Result<HelloRequest>
decodeHello(const std::string &payload)
{
    Cursor c(payload);
    HelloRequest h;
    std::uint16_t name_len;
    if (!c.u32(h.version) || !c.u16(name_len))
        return makeError(ErrorKind::Parse, "short hello payload");
    if (h.version != wireVersion)
        return makeError(ErrorKind::Format,
                         "unsupported protocol version ", h.version,
                         " (this server speaks ", wireVersion, ")");
    if (name_len > maxNameBytes)
        return makeError(ErrorKind::Bounds, "client name of ",
                         name_len, " bytes exceeds the ",
                         maxNameBytes, "-byte cap");
    if (!c.bytes(name_len, h.client) || c.remaining() != 0)
        return makeError(ErrorKind::Parse,
                         "hello payload length mismatch");
    if (h.client.empty())
        return makeError(ErrorKind::Bounds, "empty client name");
    return h;
}

Result<SubmitRequest>
decodeSubmit(const std::string &payload)
{
    Cursor c(payload);
    SubmitRequest s;
    std::uint8_t org, split, timing;
    std::uint64_t scale_bits;
    std::uint16_t name_len;
    if (!c.u64(s.segmentId) || !c.u8(org) || !c.u32(s.job.l1Size) ||
        !c.u32(s.job.l2Size) || !c.u8(split) || !c.u8(timing) ||
        !c.u64(scale_bits) || !c.u16(name_len))
        return makeError(ErrorKind::Parse, "short submit payload");
    if (org >= kHierarchyKindCount)
        return makeError(ErrorKind::Bounds,
                         "bad organization code ", unsigned(org));
    if (split > 1)
        return makeError(ErrorKind::Bounds, "bad split flag ",
                         unsigned(split));
    if (timing > 1)
        return makeError(ErrorKind::Bounds, "bad timing mode ",
                         unsigned(timing));
    s.job.kind = static_cast<HierarchyKind>(org);
    s.job.split = split != 0;
    s.job.timingMode = static_cast<TimingMode>(timing);
    std::memcpy(&s.scale, &scale_bits, sizeof(s.scale));
    if (!(s.scale > 0.0) || s.scale > 1e6)
        return makeError(ErrorKind::Bounds, "bad profile scale");
    if (name_len == 0 || name_len > maxNameBytes)
        return makeError(ErrorKind::Bounds, "bad profile name length ",
                         name_len);
    if (!c.bytes(name_len, s.profileName))
        return makeError(ErrorKind::Parse, "short submit payload");

    // Nothing after the name is a cell body.
    s.cell = c.remaining() == 0;
    if (s.cell)
        return s;

    // The rest of a segment is the standard binary trace container; revalidate it
    // with the same loader batch mode uses (magic, version, count
    // against size, record type bytes).
    std::istringstream trace(payload.substr(c.pos()));
    Result<std::vector<TraceRecord>> records =
        tryReadTraceBinary(trace, "submit segment");
    if (!records)
        return records.error();
    s.records = records.take();
    return s;
}

Result<ResultReply>
decodeResult(const std::string &payload)
{
    Cursor c(payload);
    ResultReply r;
    if (!c.u64(r.segmentId))
        return makeError(ErrorKind::Parse, "short result payload");
    r.summaryLine = c.rest();
    if (r.summaryLine.empty())
        return makeError(ErrorKind::Parse, "empty result summary");
    return r;
}

Result<ErrorReply>
decodeErrorReply(const std::string &payload)
{
    Cursor c(payload);
    ErrorReply e;
    std::uint8_t kind;
    if (!c.u64(e.segmentId) || !c.u8(kind))
        return makeError(ErrorKind::Parse, "short error payload");
    if (kind > static_cast<std::uint8_t>(ErrorKind::Unrecoverable))
        return makeError(ErrorKind::Bounds, "bad error kind ",
                         unsigned(kind));
    e.kind = static_cast<ErrorKind>(kind);
    e.message = c.rest();
    return e;
}

void
FrameReader::feed(const char *data, std::size_t n)
{
    if (_broken)
        return;
    // Drop consumed prefix before it grows without bound.
    if (_pos > 0 && (_pos >= _buf.size() || _pos > (1u << 16))) {
        _buf.erase(0, _pos);
        _pos = 0;
    }
    _buf.append(data, n);
}

FrameReader::State
FrameReader::poll()
{
    if (_broken)
        return State::Broken;
    if (_buf.size() - _pos < wireHeaderBytes)
        return State::NeedMore;
    const unsigned char *h =
        reinterpret_cast<const unsigned char *>(_buf.data()) + _pos;
    std::uint32_t magic = 0, len = 0;
    for (int i = 0; i < 4; ++i)
        magic |= static_cast<std::uint32_t>(h[i]) << (8 * i);
    std::uint8_t type = h[4];
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(h[5 + i]) << (8 * i);
    if (magic != wireMagic) {
        _broken = true;
        _error = makeError(ErrorKind::Parse,
                           "bad frame magic 0x", std::hex, magic);
        return State::Broken;
    }
    if (type < static_cast<std::uint8_t>(FrameType::Hello) ||
        type > static_cast<std::uint8_t>(FrameType::Bye)) {
        _broken = true;
        _error = makeError(ErrorKind::Format, "unknown frame type ",
                           unsigned(type));
        return State::Broken;
    }
    if (len > _maxPayload) {
        _broken = true;
        _error = makeError(ErrorKind::Bounds, "frame payload of ",
                           len, " bytes exceeds the ", _maxPayload,
                           "-byte cap");
        return State::Broken;
    }
    if (_buf.size() - _pos < wireHeaderBytes + len)
        return State::NeedMore;
    return State::Frame;
}

Frame
FrameReader::take()
{
    panicIfNot(poll() == State::Frame,
               "FrameReader::take() without a complete frame");
    const unsigned char *h =
        reinterpret_cast<const unsigned char *>(_buf.data()) + _pos;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(h[5 + i]) << (8 * i);
    Frame f;
    f.type = static_cast<FrameType>(h[4]);
    f.payload = _buf.substr(_pos + wireHeaderBytes, len);
    _pos += wireHeaderBytes + len;
    return f;
}

void
FrameConn::reset(int fd, std::size_t maxPayload)
{
    std::lock_guard<std::mutex> g(_writeMu);
    if (_fd >= 0)
        ::close(_fd);
    _fd = fd;
    _shut = false;
    _frames = FrameReader(maxPayload);
}

bool
FrameConn::send(std::string_view bytes, bool thenShut)
{
    std::lock_guard<std::mutex> g(_writeMu);
    if (_shut || _fd < 0) {
        errno = EPIPE;
        return false;
    }
    bool wrote = writeAllFd(_fd, bytes.data(), bytes.size());
    if (!wrote || thenShut) {
        _shut = true;
        ::shutdown(_fd, SHUT_RDWR);
    }
    return wrote;
}

void
FrameConn::shut()
{
    std::lock_guard<std::mutex> g(_writeMu);
    if (!_shut && _fd >= 0) {
        _shut = true;
        ::shutdown(_fd, SHUT_RDWR);
    }
}

Result<Frame>
FrameConn::readFrame(double timeoutSeconds)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    char buf[64 * 1024];
    for (;;) {
        FrameReader::State st = _frames.poll();
        if (st == FrameReader::State::Frame)
            return _frames.take();
        if (st == FrameReader::State::Broken)
            return _frames.error();
        if (_fd < 0)
            return makeError(ErrorKind::Io,
                             "read on a closed connection");

        double left =
            timeoutSeconds -
            std::chrono::duration<double>(Clock::now() - start).count();
        if (left <= 0.0)
            return makeError(ErrorKind::Timeout, "no frame within ",
                             timeoutSeconds, " s");
        pollfd p = {_fd, POLLIN, 0};
        int pr = ::poll(&p, 1,
                        static_cast<int>(std::min(left, 60.0) * 1000.0) + 1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return makeError(ErrorKind::Io, "poll: ",
                             std::strerror(errno));
        }
        if (pr == 0)
            continue; // the loop re-checks the deadline
        long n = readSomeFd(_fd, buf, sizeof(buf));
        if (n == 0)
            return makeError(ErrorKind::Io,
                             "peer closed the connection");
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                continue;
            return makeError(ErrorKind::Io, "read: ",
                             std::strerror(errno));
        }
        _frames.feed(buf, static_cast<std::size_t>(n));
    }
}

Status
Listeners::open(const std::string &unixPath, int tcpPort, const char *who)
{
    if (unixPath.empty() && tcpPort < 0)
        return makeError(ErrorKind::Io, who,
                         ": no listener configured (need a unix path "
                         "and/or a TCP port)");
    if (!unixPath.empty()) {
        sockaddr_un sa = {};
        if (unixPath.size() >= sizeof(sa.sun_path))
            return makeError(ErrorKind::Bounds,
                             "unix socket path too long: ", unixPath);
        _unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (_unixFd < 0)
            return makeError(ErrorKind::Io, "socket(AF_UNIX): ",
                             std::strerror(errno));
        _unixPath = unixPath;
        sa.sun_family = AF_UNIX;
        std::strncpy(sa.sun_path, unixPath.c_str(),
                     sizeof(sa.sun_path) - 1);
        ::unlink(unixPath.c_str());
        if (::bind(_unixFd, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0 ||
            ::listen(_unixFd, 64) != 0)
            return makeError(ErrorKind::Io, "cannot listen on ",
                             unixPath, ": ", std::strerror(errno));
    }
    if (tcpPort >= 0) {
        _tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (_tcpFd < 0)
            return makeError(ErrorKind::Io, "socket(AF_INET): ",
                             std::strerror(errno));
        int one = 1;
        ::setsockopt(_tcpFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in sa = {};
        sa.sin_family = AF_INET;
        sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        sa.sin_port = htons(static_cast<std::uint16_t>(tcpPort));
        if (::bind(_tcpFd, reinterpret_cast<sockaddr *>(&sa),
                   sizeof(sa)) != 0 ||
            ::listen(_tcpFd, 64) != 0)
            return makeError(ErrorKind::Io,
                             "cannot listen on 127.0.0.1:", tcpPort,
                             ": ", std::strerror(errno));
        socklen_t len = sizeof(sa);
        ::getsockname(_tcpFd, reinterpret_cast<sockaddr *>(&sa), &len);
        _tcpPort = ntohs(sa.sin_port);
    }
    return okStatus();
}

void
Listeners::close()
{
    if (_unixFd >= 0) {
        ::close(_unixFd);
        _unixFd = -1;
        ::unlink(_unixPath.c_str());
    }
    if (_tcpFd >= 0) {
        ::close(_tcpFd);
        _tcpFd = -1;
    }
}

bool
Listeners::acceptTurn(int timeoutMs, std::initializer_list<int> wakeFds,
                      const std::function<bool()> &stop,
                      const std::function<void(int)> &adopt)
{
    std::vector<pollfd> fds;
    for (int fd : {_unixFd, _tcpFd})
        if (fd >= 0)
            fds.push_back({fd, POLLIN, 0});
    std::size_t listening = fds.size();
    for (int fd : wakeFds)
        if (fd >= 0)
            fds.push_back({fd, POLLIN, 0});
    int pr = ::poll(fds.data(), fds.size(), timeoutMs);
    if ((pr < 0 && errno != EINTR) || stop())
        return false;
    for (std::size_t i = 0; i < listening && pr > 0; ++i) {
        if (!(fds[i].revents & POLLIN))
            continue;
        int fd = acceptRetryFd(fds[i].fd);
        if (fd >= 0)
            adopt(fd);
    }
    return true;
}

Status
connectRetryFd(int fd, const void *sockaddrPtr, unsigned sockaddrLen)
{
    const struct sockaddr *sa =
        static_cast<const struct sockaddr *>(sockaddrPtr);
    if (::connect(fd, sa, static_cast<socklen_t>(sockaddrLen)) == 0)
        return okStatus();
    if (errno != EINTR && errno != EINPROGRESS)
        return makeError(ErrorKind::Io, "connect: ",
                         std::strerror(errno));
    // The interrupted attempt keeps establishing in the background:
    // wait for writability, then read the socket's final verdict.
    for (;;) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLOUT;
        pfd.revents = 0;
        int pr = ::poll(&pfd, 1, -1);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return makeError(ErrorKind::Io, "poll(connect): ",
                             std::strerror(errno));
        }
        break;
    }
    int soerr = 0;
    socklen_t elen = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &elen) != 0)
        return makeError(ErrorKind::Io, "getsockopt(SO_ERROR): ",
                         std::strerror(errno));
    if (soerr != 0)
        return makeError(ErrorKind::Io, "connect: ",
                         std::strerror(soerr));
    return okStatus();
}

} // namespace vrc
