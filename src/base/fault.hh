/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * A recovery path that is never exercised is indistinguishable from
 * one that is broken. The input loaders and the campaign engine carry
 * hooks that -- once armed with a seed -- corrupt or truncate loaded
 * bytes, throw from campaign cells, and stall cells long enough to
 * trip the watchdog. Every decision is a pure hash of
 * (seed, site, keys), so a fault schedule is reproducible from its
 * spec string alone, independent of thread scheduling:
 *
 *     --inject-faults="seed=7,corrupt=0.1,throw=0.3,stall=0.2,stall_ms=300"
 *
 * Until armed, each hook is a single branch on a bool.
 *
 * Arming this injector (--inject-faults) is process-wide and intended
 * to happen once, from the CLI, before any worker threads start. The
 * soft-error model below is instead a setting of each machine.
 */

#ifndef VRC_BASE_FAULT_HH
#define VRC_BASE_FAULT_HH

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "base/cancel.hh"
#include "base/error.hh"

namespace vrc
{

/** What to inject, with what probability. All off by default. */
struct FaultConfig
{
    std::uint64_t seed = 0;     ///< 0 = disarmed
    double corrupt = 0.0;       ///< P(flip bytes in a loaded input)
    double truncate = 0.0;      ///< P(truncate a loaded input)
    double throwProb = 0.0;     ///< P(a campaign cell attempt throws)
    double stall = 0.0;         ///< P(a campaign cell attempt stalls)
    double stallSeconds = 0.25; ///< injected stall length

    // Service-path faults (vrc-sim --serve): exercised by the soak
    // script so the server's client-retry story is tested, not told.
    double connDrop = 0.0;  ///< P(drop the connection after a response)
    double frameTear = 0.0; ///< P(tear a response frame mid-write, then drop)
};

/** Verdict of the service-path injector for one response frame. */
enum class ServeFault : std::uint8_t
{
    None, ///< deliver the frame normally
    Drop, ///< deliver it, then close the connection
    Tear, ///< write only a prefix of the frame, then close
};

/** Exception thrown by an injected cell fault. */
class InjectedFault : public ErrorException
{
  public:
    explicit InjectedFault(const std::string &what)
        : ErrorException(makeError(ErrorKind::Injected, what))
    {
    }
};

/**
 * Exception raised when the simulated hardware hits an uncorrectable
 * soft error it cannot recover from (a dirty line with detected-corrupt
 * array bits, or a bus transaction lost beyond the retry budget): the
 * machine-check semantics. The campaign layer quarantines the cell like
 * any other worker error; interactive tools report and exit.
 */
class FaultUnrecoverable : public ErrorException
{
  public:
    explicit FaultUnrecoverable(const std::string &what)
        : ErrorException(makeError(ErrorKind::Unrecoverable, what))
    {
    }
};

/** Hash helpers shared by the campaign injector and the soft-error model. */
namespace fault_detail
{

inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

inline std::uint64_t
hashSite(const char *site)
{
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a
    for (const char *p = site; *p; ++p)
        h = (h ^ static_cast<unsigned char>(*p)) *
            0x100000001b3ull;
    return h;
}

// Value readers of the spec parsers: each stores a valid value and
// returns nullptr, or returns what the value should have been.

/** A decimal integer that fits @p out: digits only, all consumed. */
template <typename Int>
const char *
readSpecInt(const std::string &val, Int &out)
{
    const char *want = "an unsigned integer";
    if (val.empty() || val.find_first_not_of("0123456789") !=
                           std::string::npos) {
        return want;
    }
    errno = 0;
    unsigned long long v = std::strtoull(val.c_str(), nullptr, 10);
    if (errno == ERANGE || v > std::numeric_limits<Int>::max())
        return want;
    out = static_cast<Int>(v);
    return nullptr;
}

/**
 * A finite number no smaller than 0 and no larger than @p max (a
 * probability when @p max is 1).
 */
inline const char *
readSpecReal(const std::string &val, double max, double &out)
{
    char *end = nullptr;
    double v = std::strtod(val.c_str(), &end);
    if (val.empty() || *end != '\0' || !std::isfinite(v) || v < 0.0 ||
        v > max) {
        return max == 1.0 ? "a probability in [0,1]"
                          : "a non-negative number";
    }
    out = v;
    return nullptr;
}

/**
 * Tokenize a "key=number[,key=number...]" spec -- a bare number is
 * shorthand for "seed=N", empty entries are skipped -- and hand each
 * entry to @p read(key, value), which stores it and returns nullptr, or
 * returns what the entry should have been. @p what names the spec in
 * the error.
 */
template <typename Read>
Status
parseSpec(const std::string &spec, const char *what, Read read)
{
    std::istringstream is(spec);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        bool bare = eq == std::string::npos;
        const char *want = read(bare ? std::string("seed")
                                     : item.substr(0, eq),
                                bare ? item : item.substr(eq + 1));
        if (want) {
            return makeError(ErrorKind::Parse, "bad ", what,
                             " spec entry '", item, "' (expected ",
                             want, ")");
        }
    }
    return okStatus();
}

} // namespace fault_detail

/** Process-wide injector configuration. */
inline FaultConfig &
faultConfig()
{
    static FaultConfig cfg;
    return cfg;
}

/** True when a nonzero seed armed the injector. */
inline bool
faultsArmed()
{
    return faultConfig().seed != 0;
}

/**
 * Deterministic verdict for one potential fault: true with
 * probability @p p, as a pure function of (seed, site, a, b).
 */
inline bool
faultDecision(const char *site, std::uint64_t a, std::uint64_t b,
              double p)
{
    if (p <= 0.0 || !faultsArmed())
        return false;
    std::uint64_t h = fault_detail::splitmix64(
        faultConfig().seed ^ fault_detail::hashSite(site) ^
        fault_detail::splitmix64(a * 2 + 1) ^
        fault_detail::splitmix64(~b));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < p;
}

/**
 * Possibly corrupt or truncate freshly loaded input bytes, keyed by
 * the input's context string (its path). The corruption itself is
 * deterministic: which bytes flip and where the cut lands are drawn
 * from the same hash stream as the verdict.
 */
inline void
injectInputFaults(const char *what, const std::string &context,
                  std::string &bytes)
{
    if (!faultsArmed() || bytes.empty())
        return;
    std::uint64_t key = fault_detail::hashSite(context.c_str());
    if (faultDecision("input-truncate", key, bytes.size(),
                      faultConfig().truncate)) {
        std::size_t cut =
            fault_detail::splitmix64(key ^ 0x7457) % bytes.size();
        warn("fault injection: truncating ", what, " '", context,
             "' to ", cut, " of ", bytes.size(), " bytes");
        bytes.resize(cut);
        return;
    }
    if (faultDecision("input-corrupt", key, bytes.size(),
                      faultConfig().corrupt)) {
        std::uint64_t h = fault_detail::splitmix64(key ^ 0xC0DE);
        unsigned flips = 1 + h % 8;
        warn("fault injection: flipping ", flips, " bytes of ", what,
             " '", context, "'");
        for (unsigned i = 0; i < flips; ++i) {
            h = fault_detail::splitmix64(h);
            bytes[h % bytes.size()] ^=
                static_cast<char>(0x01 | (h >> 32));
        }
    }
}

/**
 * Possibly throw InjectedFault or stall (cancellably) before a
 * campaign cell attempt runs. Keyed by (cell, attempt) so a cell that
 * fails on one attempt can succeed on the retry.
 */
inline void
maybeInjectCellFault(std::size_t cell, unsigned attempt,
                     const CancelToken &token)
{
    if (!faultsArmed())
        return;
    if (faultDecision("cell-stall", cell, attempt,
                      faultConfig().stall)) {
        warn("fault injection: stalling cell ", cell, " attempt ",
             attempt, " for ", faultConfig().stallSeconds, " s");
        token.sleepFor(faultConfig().stallSeconds);
    }
    if (faultDecision("cell-throw", cell, attempt,
                      faultConfig().throwProb)) {
        std::ostringstream os;
        os << "injected worker exception in cell " << cell
           << " (attempt " << attempt << ")";
        throw InjectedFault(os.str());
    }
}

/**
 * Service-path verdict for one response frame, keyed by (session,
 * frame sequence) so a resubmitted segment meets a fresh decision.
 * Tear wins over Drop when both fire (it is the nastier failure).
 */
inline ServeFault
maybeInjectServeFault(std::uint64_t session, std::uint64_t seq)
{
    if (!faultsArmed())
        return ServeFault::None;
    if (faultDecision("serve-tear", session, seq,
                      faultConfig().frameTear))
        return ServeFault::Tear;
    if (faultDecision("serve-drop", session, seq,
                      faultConfig().connDrop))
        return ServeFault::Drop;
    return ServeFault::None;
}

/**
 * Arm the injector from a spec string:
 * "seed=N[,corrupt=P][,truncate=P][,throw=P][,stall=P][,stall_ms=M]
 *  [,drop=P][,tear=P]".
 * A bare number is shorthand for "seed=N" with default probabilities
 * (throw/stall/corrupt all 0.25).
 */
inline Status
configureFaultInjection(const std::string &spec)
{
    using namespace fault_detail;
    FaultConfig cfg;
    bool any_prob = false;
    Status parsed = parseSpec(
        spec, "fault",
        [&](const std::string &key, const std::string &val)
            -> const char * {
            if (key == "seed")
                return readSpecInt(val, cfg.seed);
            if (key == "stall_ms") {
                double ms = 0.0;
                const char *want = readSpecReal(
                    val, std::numeric_limits<double>::max(), ms);
                cfg.stallSeconds = ms / 1000.0;
                return want;
            }
            using P = double FaultConfig::*;
            static const std::pair<const char *, P> probs[] = {
                {"corrupt", &FaultConfig::corrupt},
                {"truncate", &FaultConfig::truncate},
                {"throw", &FaultConfig::throwProb},
                {"stall", &FaultConfig::stall},
                {"drop", &FaultConfig::connDrop},
                {"tear", &FaultConfig::frameTear},
            };
            for (auto [name, prob] : probs) {
                if (key == name) {
                    any_prob = true;
                    return readSpecReal(val, 1.0, cfg.*prob);
                }
            }
            return "a known key";
        });
    if (!parsed)
        return parsed;
    if (!cfg.seed)
        return makeError(ErrorKind::Parse,
                         "fault spec needs a nonzero seed: '", spec,
                         "'");
    if (!any_prob)
        cfg.corrupt = cfg.throwProb = cfg.stall = 0.25;
    faultConfig() = cfg;
    return okStatus();
}

/** Disarm (tests). */
inline void
disarmFaultInjection()
{
    faultConfig() = FaultConfig{};
}


// ===== soft errors inside the simulated hardware ======================
//
// A second, independent fault domain: where the campaign injector above
// attacks the *experiment harness* (inputs, workers), the soft-error
// model attacks the *simulated machine* -- tag arrays, coherence-state
// bits, r-/v-pointer metadata and in-flight bus transactions. The
// scheduling discipline is identical: every strike is a pure hash of
// (seed, site, keys), so a schedule reproduces from its spec string at
// any --jobs count, and an unarmed run takes one branch per reference.

/**
 * Strike probabilities per fault site, all off by default: a setting
 * of one simulated machine (HierarchyParams::softErrors).
 */
struct SoftErrorConfig
{
    std::uint64_t seed = 0; ///< 0 = disarmed
    double tag = 0.0;       ///< P(strike a level-1 tag array) per ref
    double state = 0.0;     ///< P(strike a level-2 state array) per ref
    double ptr = 0.0;       ///< P(strike r-/v-pointer metadata) per ref
    double bus = 0.0;       ///< P(one bus broadcast attempt is lost)
    unsigned busRetryLimit = 4; ///< lost attempts before machine check

    /** True when a nonzero seed armed the model. */
    bool armed() const { return seed != 0; }

    /** Pure strike-parameter hash of (seed, site, a, b). */
    std::uint64_t
    hash(const char *site, std::uint64_t a, std::uint64_t b) const
    {
        using namespace fault_detail;
        return splitmix64(seed ^ hashSite(site) ^ splitmix64(a * 2 + 1) ^
                          splitmix64(~b));
    }

    /**
     * Strike verdict: true with probability @p p as a pure function of
     * (seed, site, a, b) -- thread- and schedule-independent.
     */
    bool
    strikes(const char *site, std::uint64_t a, std::uint64_t b,
            double p) const
    {
        return p > 0.0 && armed() &&
            static_cast<double>(hash(site, a, b) >> 11) * 0x1.0p-53 < p;
    }

    bool operator==(const SoftErrorConfig &) const = default;
};

/** The spec key of each strike probability. */
inline constexpr std::pair<const char *, double SoftErrorConfig::*>
    kSoftErrorSites[] = {
        {"tag", &SoftErrorConfig::tag},
        {"state", &SoftErrorConfig::state},
        {"ptr", &SoftErrorConfig::ptr},
        {"bus", &SoftErrorConfig::bus},
};

/**
 * Flip count of one strike, drawn from the same hash stream: single-bit
 * upsets dominate real soft-error data; one strike in eight flips two
 * adjacent bits (defeating SECDED correction, aliasing past parity).
 */
inline unsigned
softErrorFlips(std::uint64_t h)
{
    return (h >> 17) % 8 == 0 ? 2 : 1;
}

/**
 * Parse a strike spec:
 * "seed=N[,tag=P][,state=P][,ptr=P][,bus=P][,retry=N]".
 * A bare number is shorthand for "seed=N" with default probabilities
 * (tag/state/ptr 1e-3, bus 1e-4).
 */
inline Result<SoftErrorConfig>
parseSoftErrors(const std::string &spec)
{
    using namespace fault_detail;
    SoftErrorConfig cfg;
    bool any_prob = false;
    Status parsed = parseSpec(
        spec, "soft-error",
        [&](const std::string &key, const std::string &val)
            -> const char * {
            if (key == "seed")
                return readSpecInt(val, cfg.seed);
            if (key == "retry")
                return readSpecInt(val, cfg.busRetryLimit);
            for (auto [name, prob] : kSoftErrorSites) {
                if (key == name) {
                    any_prob = true;
                    return readSpecReal(val, 1.0, cfg.*prob);
                }
            }
            return "a known key";
        });
    if (!parsed)
        return parsed.error();
    if (!cfg.armed())
        return makeError(ErrorKind::Parse,
                         "soft-error spec needs a nonzero seed: '",
                         spec, "'");
    if (!any_prob) {
        cfg.tag = cfg.state = cfg.ptr = 1e-3;
        cfg.bus = 1e-4;
    }
    return cfg;
}

/** @p cfg as a full spec that parseSoftErrors() reads back exactly. */
inline std::string
softErrorSpec(const SoftErrorConfig &cfg)
{
    std::string spec = "seed=" + std::to_string(cfg.seed);
    for (auto [name, prob] : kSoftErrorSites) {
        char buf[32];
        spec += std::string(",") + name + "=";
        spec.append(buf, std::to_chars(buf, buf + sizeof buf, cfg.*prob).ptr);
    }
    return spec + ",retry=" + std::to_string(cfg.busRetryLimit);
}


} // namespace vrc

#endif // VRC_BASE_FAULT_HH
