/**
 * @file
 * Client side of the simulation service wire protocol.
 *
 * A thin blocking client used by vrc-loadgen and the serve tests:
 * connect over a unix socket or localhost TCP, say HELLO, SUBMIT
 * segments, and read framed replies with a timeout. Raw send() is
 * exposed on purpose -- the chaos clients need to write garbage and
 * half-frames to prove the server survives them.
 */

#ifndef VRC_SERVE_CLIENT_HH
#define VRC_SERVE_CLIENT_HH

#include <string>

#include "base/error.hh"
#include "serve/wire.hh"

namespace vrc
{

/** Blocking wire-protocol client. */
class ServeClient
{
  public:
    ServeClient() = default;

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to a unix-domain socket. */
    Status connectUnix(const std::string &path);

    /** Connect to 127.0.0.1:@p port. */
    Status connectTcp(int port);

    /** True between a successful connect and close(). */
    bool connected() const { return _conn.fd() >= 0; }

    /** Raw socket fd (chaos clients poke it directly). */
    int fd() const { return _conn.fd(); }

    /** Send raw bytes verbatim (also how garbage gets sent). */
    Status send(const std::string &bytes);

    /** Send a HELLO frame. */
    Status hello(const std::string &client);

    /** Send a SUBMIT frame. */
    Status submit(const SubmitRequest &req);

    /**
     * Read the next frame, waiting up to @p timeoutSeconds. Timeout,
     * peer EOF and a broken frame stream all come back as errors
     * (Timeout / Io / the reader's own taxonomy).
     */
    Result<Frame> readFrame(double timeoutSeconds);

    /** Shut down the write side only (tells the server we are done). */
    void closeWrite();

    /** Close the socket. */
    void close();

  private:
    FrameConn _conn;
};

} // namespace vrc

#endif // VRC_SERVE_CLIENT_HH
