#include "serve/client.hh"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace vrc
{

Status
ServeClient::connectUnix(const std::string &path)
{
    close();
    sockaddr_un sa = {};
    if (path.size() >= sizeof(sa.sun_path))
        return makeError(ErrorKind::Bounds,
                         "unix socket path too long: ", path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return makeError(ErrorKind::Io, "socket(AF_UNIX): ",
                         std::strerror(errno));
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
    Status connected = connectRetryFd(fd, &sa, sizeof(sa));
    if (!connected) {
        ::close(fd);
        return makeError(ErrorKind::Io, "connect(", path, "): ",
                         connected.error().message);
    }
    _conn.reset(fd);
    return okStatus();
}

Status
ServeClient::connectTcp(int port)
{
    close();
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return makeError(ErrorKind::Io, "socket(AF_INET): ",
                         std::strerror(errno));
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(static_cast<std::uint16_t>(port));
    Status connected = connectRetryFd(fd, &sa, sizeof(sa));
    if (!connected) {
        ::close(fd);
        return makeError(ErrorKind::Io, "connect(127.0.0.1:", port,
                         "): ", connected.error().message);
    }
    _conn.reset(fd);
    return okStatus();
}

Status
ServeClient::send(const std::string &bytes)
{
    if (_conn.fd() < 0)
        return makeError(ErrorKind::Io, "send on a closed client");
    if (!_conn.send(bytes))
        return makeError(ErrorKind::Io, "write: ",
                         std::strerror(errno));
    return okStatus();
}

Status
ServeClient::hello(const std::string &client)
{
    return send(encodeHello(HelloRequest{wireVersion, client}));
}

Status
ServeClient::submit(const SubmitRequest &req)
{
    return send(encodeSubmit(req));
}

Result<Frame>
ServeClient::readFrame(double timeoutSeconds)
{
    return _conn.readFrame(timeoutSeconds);
}

void
ServeClient::closeWrite()
{
    if (_conn.fd() >= 0)
        ::shutdown(_conn.fd(), SHUT_WR);
}

void
ServeClient::close()
{
    _conn.close();
}

} // namespace vrc
