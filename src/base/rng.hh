/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicitly
 * seeded Rng; the same seed always reproduces bit-identical traces and
 * simulation results. Wall-clock seeding is deliberately not provided.
 *
 * The draw path is implemented here rather than borrowed from <random>,
 * so traces do not depend on standard-library internals. Each piece
 * reproduces, draw for draw, what libstdc++ 12 does with the standard
 * components it replaces (rng_test holds the two side by side):
 *
 *  - Mt19937_64 is the MT19937-64 sequence of std::mt19937_64;
 *  - below()/range() are uniform_int_distribution<uint64_t>'s 128-bit
 *    nearly-divisionless reduction (Lemire 2019);
 *  - uniform() is uniform_real_distribution<double>(0, 1): one draw
 *    scaled by 2^-64, results that round up to 1 clamped below it.
 */

#ifndef VRC_BASE_RNG_HH
#define VRC_BASE_RNG_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace vrc
{

/**
 * The 64-bit Mersenne Twister, MT19937-64 (Matsumoto & Nishimura 2000).
 *
 * Equal to std::mt19937_64 output for output and seed for seed. The
 * state refill selects the twist constant with a mask instead of a
 * data-dependent branch, which is what makes it cheaper than the
 * library engine: half of those branches mispredict.
 */
class Mt19937_64
{
  public:
    explicit Mt19937_64(std::uint64_t seed)
    {
        _x[0] = seed;
        for (std::size_t i = 1; i < kN; ++i)
            _x[i] = kInitMul * (_x[i - 1] ^ (_x[i - 1] >> 62)) + i;
    }

    std::uint64_t
    operator()()
    {
        if (_next >= kN)
            refill();
        std::uint64_t z = _x[_next++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr std::size_t kN = 312;
    static constexpr std::size_t kM = 156;
    static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
    static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
    static constexpr std::uint64_t kInitMul = 6364136223846793005ULL;

    /** New word k from words k, k+1 and k+m (indices mod n). */
    static std::uint64_t
    twist(std::uint64_t k, std::uint64_t k1, std::uint64_t km)
    {
        std::uint64_t y = (k & kUpperMask) | (k1 & ~kUpperMask);
        return km ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
    }

    void
    refill()
    {
        std::size_t k = 0;
        for (; k < kN - kM; ++k)
            _x[k] = twist(_x[k], _x[k + 1], _x[k + kM]);
        for (; k < kN - 1; ++k)
            _x[k] = twist(_x[k], _x[k + 1], _x[k + kM - kN]);
        _x[kN - 1] = twist(_x[kN - 1], _x[0], _x[kM - 1]);
        _next = 0;
    }

    std::array<std::uint64_t, kN> _x{};
    std::size_t _next = kN;
};

/** Deterministic pseudo-random source (MT19937-64 behind a small API). */
class Rng
{
  public:
    __extension__ typedef unsigned __int128 U128;

    /**
     * A Bernoulli test with a fixed probability, precomputed by
     * threshold(): chance(threshold(p)) draws once and returns exactly
     * what chance(p) would, with one integer compare and no conversion.
     */
    struct Threshold
    {
        U128 limit = 0; ///< true iff the draw is below this, in [0, 2^64]
    };

    explicit Rng(std::uint64_t seed) : _engine(seed) {}

    /** One raw 64-bit draw. */
    std::uint64_t raw() { return _engine(); }

    /** Uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    below(std::uint64_t bound)
    {
        assert(bound > 0);
        U128 product = U128{raw()} * bound;
        std::uint64_t low = static_cast<std::uint64_t>(product);
        if (low < bound) {
            // Reject the few low words that would bias the result.
            std::uint64_t reject = -bound % bound;
            while (low < reject) {
                product = U128{raw()} * bound;
                low = static_cast<std::uint64_t>(product);
            }
        }
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        assert(lo <= hi);
        std::uint64_t span = hi - lo;
        return lo + (span == ~std::uint64_t{0} ? raw() : below(span + 1));
    }

    /** Uniform real in [0, 1). */
    double uniform() { return toUnit(raw()); }

    /** Bernoulli trial with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /** Bernoulli trial with a precomputed probability. */
    bool chance(Threshold t) { return raw() < t.limit; }

    /**
     * The Threshold of @p p: the smallest draw x with !(toUnit(x) < p).
     * toUnit() is monotone, so the draws for which chance(p) holds are
     * exactly those below it. 0 for p <= 0 or NaN; 2^64 for p >= 1.
     */
    static Threshold
    threshold(double p)
    {
        const std::uint64_t top = ~std::uint64_t{0};
        if (!(toUnit(0) < p))
            return {0};
        if (toUnit(top) < p)
            return {U128{1} << 64};
        // Invariant: toUnit(lo) < p and !(toUnit(hi) < p). The answer
        // is within an ulp of p * 2^64: start next to it if that holds.
        std::uint64_t lo = 0, hi = top;
        const std::uint64_t near = static_cast<std::uint64_t>(p * 0x1p64);
        constexpr std::uint64_t kSlack = std::uint64_t{1} << 12;
        if (near > kSlack && toUnit(near - kSlack) < p)
            lo = near - kSlack;
        if (near < top - kSlack && !(toUnit(near + kSlack) < p))
            hi = near + kSlack;
        while (hi - lo > 1) {
            std::uint64_t mid = lo + (hi - lo) / 2;
            if (toUnit(mid) < p)
                lo = mid;
            else
                hi = mid;
        }
        return {hi};
    }

    /**
     * The double uniform() returns for draw @p x: x rounded to nearest
     * (converted as two exact 32-bit halves and one rounding add, with
     * no branch on the top bit) times 2^-64, clamped below 1.
     */
    static double
    toUnit(std::uint64_t x)
    {
        double hi = static_cast<double>(static_cast<std::int64_t>(x >> 32));
        double lo = static_cast<double>(
            static_cast<std::int64_t>(x & 0xffffffffULL));
        return std::min(hi * 0x1p32 + lo, kBelowTwo64) * 0x1p-64;
    }

    /** Geometric-ish burst length in [1, cap]. */
    std::uint64_t
    geometric(double p, std::uint64_t cap)
    {
        std::uint64_t n = 1;
        while (n < cap && !chance(p))
            ++n;
        return n;
    }

    /**
     * Sample an index in [0, n) with probability proportional to
     * weights[i].
     */
    std::size_t
    weighted(const std::vector<double> &weights)
    {
        return weighted(weights, weightTotal(weights));
    }

    /** weighted() with the total precomputed by weightTotal(). */
    std::size_t
    weighted(const std::vector<double> &weights, double total)
    {
        assert(!weights.empty());
        double x = uniform() * total;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            if (x < weights[i])
                return i;
            x -= weights[i];
        }
        return weights.size() - 1;
    }

    /** Sum of @p weights, added in index order as weighted() needs. */
    static double
    weightTotal(const std::vector<double> &weights)
    {
        double total = 0.0;
        for (double w : weights)
            total += w;
        return total;
    }

    /** Derive an independent child generator (for per-CPU streams). */
    Rng
    fork()
    {
        return Rng(raw() ^ 0x9e3779b97f4a7c15ULL);
    }

  private:
    /** 2^64 - 2^11: the largest double below 2^64, so the unit is < 1. */
    static constexpr double kBelowTwo64 = 0x1.fffffffffffffp63;

    Mt19937_64 _engine;
};

} // namespace vrc

#endif // VRC_BASE_RNG_HH
