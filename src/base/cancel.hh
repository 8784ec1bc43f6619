/**
 * @file
 * Cooperative cancellation token.
 *
 * A compute-bound cell attempt cannot be preempted; it can only be
 * asked to stop. A CancelToken is the ask: cancel(), an optional
 * wall-clock deadline, or an optional parent token (a served segment's
 * attempt is a child of its session's token, cancelled on close).
 * Every cancellation point in an attempt (the replay loop, an injected
 * stall, a backoff sleep) polls it and unwinds. A poll is a relaxed
 * atomic load per link, plus a clock read when a deadline is set, so a
 * poll every few thousand references costs nothing measurable.
 */

#ifndef VRC_BASE_CANCEL_HH
#define VRC_BASE_CANCEL_HH

#include <atomic>
#include <chrono>
#include <thread>

namespace vrc
{

/** A one-way "please stop" flag, with an optional deadline and parent. */
class CancelToken
{
  public:
    /** Never cancelled unless cancel() is called; never expires. */
    CancelToken() = default;

    /** Cancelled whenever @p parent is, too. */
    explicit CancelToken(const CancelToken *parent) : _parent(parent) {}

    // The token is shared by address; it never moves.
    CancelToken(const CancelToken &) = delete;
    CancelToken &operator=(const CancelToken &) = delete;

    /** Cancelled, expired, or the parent is cancelled. */
    bool
    cancelled() const
    {
        return _flag.load(std::memory_order_relaxed) || expired() ||
               (_parent && _parent->cancelled());
    }

    void
    cancel()
    {
        _flag.store(true, std::memory_order_relaxed);
    }

    /** Expire @p seconds from now; 0 means no deadline. */
    void
    expireAfter(double seconds)
    {
        _deadline.store(seconds > 0.0 ? now() + seconds : 0.0,
                        std::memory_order_relaxed);
    }

    /**
     * This token's own deadline has passed. A cancel() or a cancelled
     * parent does not count, so a driver can tell a timeout from a
     * cancellation.
     */
    bool
    expired() const
    {
        double d = _deadline.load(std::memory_order_relaxed);
        return d != 0.0 && now() >= d;
    }

    /**
     * Sleep for @p seconds in short slices, returning early (false)
     * if cancelled; true when the full duration elapsed.
     */
    bool
    sleepFor(double seconds) const
    {
        for (double end = now() + seconds; now() < end;) {
            if (cancelled())
                return false;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        return !cancelled();
    }

  private:
    /** Seconds on the steady clock. */
    static double
    now()
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::atomic<bool> _flag{false};
    std::atomic<double> _deadline{0.0}; ///< steady seconds; 0 = none
    const CancelToken *_parent = nullptr;
};

} // namespace vrc

#endif // VRC_BASE_CANCEL_HH
