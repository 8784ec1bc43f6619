/**
 * @file
 * Structured, recoverable errors.
 *
 * log.hh's fatal() is the right tool for a CLI entry point, but a
 * library that kills the process on the first malformed byte cannot
 * serve a long-running campaign: one corrupt trace in a thousand-cell
 * sweep must quarantine that cell, not abort the other 999. The
 * parsers and the campaign engine therefore report failures as values:
 *
 *   Error      - what went wrong (taxonomy kind, message, source
 *                context, line/record number)
 *   Result<T>  - either a T or an Error; [[nodiscard]] so a caller
 *                cannot silently drop a failure
 *
 * A CLI tool that cannot go on without the value ends on the error
 * with `r.orDie()`, a one-line diagnostic.
 * ErrorException carries an Error across a thread or pool boundary
 * where exceptions are the only transport.
 */

#ifndef VRC_BASE_ERROR_HH
#define VRC_BASE_ERROR_HH

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "base/log.hh"

namespace vrc
{

/** Failure taxonomy: every recoverable error is one of these. */
enum class ErrorKind : std::uint8_t
{
    Io,        ///< file missing/unreadable/unwritable
    Parse,     ///< malformed input bytes (trace, profile, replay, journal)
    Format,    ///< recognized container, unsupported magic/version
    Bounds,    ///< structurally valid but inconsistent sizes/counts/ranges
    Timeout,   ///< a watchdog deadline expired
    Worker,    ///< a campaign cell threw
    Cancelled, ///< cooperative cancellation observed
    Injected,  ///< deliberately injected by the fault harness
    Mismatch,  ///< checkpoint/journal belongs to a different campaign
    Unrecoverable, ///< simulated machine check (uncorrectable soft error)
};

/** Printable taxonomy name. */
inline const char *
errorKindName(ErrorKind k)
{
    switch (k) {
      case ErrorKind::Io:
        return "io";
      case ErrorKind::Parse:
        return "parse";
      case ErrorKind::Format:
        return "format";
      case ErrorKind::Bounds:
        return "bounds";
      case ErrorKind::Timeout:
        return "timeout";
      case ErrorKind::Worker:
        return "worker";
      case ErrorKind::Cancelled:
        return "cancelled";
      case ErrorKind::Injected:
        return "injected";
      case ErrorKind::Mismatch:
        return "mismatch";
      case ErrorKind::Unrecoverable:
        return "unrecoverable";
    }
    return "unknown";
}

/** One structured, recoverable error. */
struct Error
{
    ErrorKind kind = ErrorKind::Io;
    std::string message;  ///< what went wrong, human-readable
    std::string context;  ///< where: file path, stream name, component
    std::uint64_t line = 0; ///< 1-based line/record number (0 = n/a)

    /** "parse error in pops.trace, line 12: bad type letter 'Q'" */
    std::string
    describe() const
    {
        std::ostringstream os;
        os << errorKindName(kind) << " error";
        if (!context.empty())
            os << " in " << context;
        if (line)
            os << ", line " << line;
        os << ": " << message;
        return os.str();
    }
};

/** Build an Error from streamable message pieces. */
template <typename... Args>
Error
makeError(ErrorKind kind, const Args &...args)
{
    std::ostringstream os;
    detail::appendAll(os, args...);
    return Error{kind, os.str(), "", 0};
}

/** makeError with a source context (file path) and line/record number. */
template <typename... Args>
Error
makeErrorAt(ErrorKind kind, std::string context, std::uint64_t line,
            const Args &...args)
{
    Error e = makeError(kind, args...);
    e.context = std::move(context);
    e.line = line;
    return e;
}

/** An Error that must travel as an exception (thread/pool boundary). */
class ErrorException : public std::runtime_error
{
  public:
    explicit ErrorException(Error err)
        : std::runtime_error(err.describe()), _err(std::move(err))
    {
    }

    const Error &err() const { return _err; }

  private:
    Error _err;
};

/**
 * Either a value or an Error. [[nodiscard]] so parse failures cannot
 * be dropped on the floor.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : _value(std::move(value)) {}
    Result(Error error) : _error(std::move(error)) {}

    bool ok() const { return _value.has_value(); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const &
    {
        panicIfNot(ok(), "Result::value() on error: ",
                   _error ? _error->describe() : "?");
        return *_value;
    }

    T &
    value() &
    {
        panicIfNot(ok(), "Result::value() on error: ",
                   _error ? _error->describe() : "?");
        return *_value;
    }

    /** Move the value out (the Result is dead afterwards). */
    T
    take()
    {
        panicIfNot(ok(), "Result::take() on error: ",
                   _error ? _error->describe() : "?");
        return std::move(*_value);
    }

    const Error &
    error() const
    {
        panicIfNot(!ok(), "Result::error() on success");
        return *_error;
    }

    /** The value, or the fallback when this Result failed. */
    T
    valueOr(T fallback) const &
    {
        return ok() ? *_value : std::move(fallback);
    }

    /**
     * For CLI tools: fatal(describe()) on error, the value otherwise,
     * e.g. `tryLoadTrace(path).orDie()`.
     */
    T
    orDie() &&
    {
        if (!ok())
            fatal(_error->describe());
        return std::move(*_value);
    }

    /** Rethrow as ErrorException on failure, the value otherwise. */
    T
    orThrow() &&
    {
        if (!ok())
            throw ErrorException(*_error);
        return std::move(*_value);
    }

  private:
    std::optional<T> _value;
    std::optional<Error> _error;
};

/** Result for operations with no payload. */
struct Unit
{
};
using Status = Result<Unit>;

/** Success value for Status-returning functions. */
inline Status
okStatus()
{
    return Status(Unit{});
}

} // namespace vrc

#endif // VRC_BASE_ERROR_HH
