/**
 * @file
 * Simple integer histogram with an overflow bucket.
 *
 * Used for the paper's distribution tables: writes-per-procedure-call
 * (Table 1) and inter-write intervals (Tables 2 and 3), which report
 * buckets 1..N plus an "N and larger" row.
 */

#ifndef VRC_BASE_HISTOGRAM_HH
#define VRC_BASE_HISTOGRAM_HH

#include <cassert>
#include <cstdint>
#include <vector>

namespace vrc
{

/**
 * Histogram over values 1..maxBucket with a shared overflow bucket for
 * values >= maxBucket ("maxBucket and larger", as the paper's tables do).
 */
class Histogram
{
  public:
    /** @param max_bucket the first bucket that also absorbs larger values */
    explicit Histogram(std::uint64_t max_bucket)
        : _maxBucket(max_bucket), _counts(max_bucket, 0)
    {
        assert(max_bucket >= 1);
    }

    /** Record one sample. Values below 1 are clamped to 1. */
    void
    record(std::uint64_t value)
    {
        if (value < 1)
            value = 1;
        if (value >= _maxBucket)
            _counts[_maxBucket - 1] += 1;
        else
            _counts[value - 1] += 1;
        _samples += 1;
        _sum += value;
    }

    /** Count in bucket for @p value (>= maxBucket reads the overflow). */
    std::uint64_t
    count(std::uint64_t value) const
    {
        assert(value >= 1);
        if (value >= _maxBucket)
            return _counts[_maxBucket - 1];
        return _counts[value - 1];
    }

    /** Count of samples >= maxBucket. */
    std::uint64_t overflowCount() const { return _counts[_maxBucket - 1]; }

    /** Total number of recorded samples. */
    std::uint64_t samples() const { return _samples; }

    /** Sum of all recorded values (overflow values kept exact). */
    std::uint64_t sum() const { return _sum; }

    /** Mean of recorded values; 0 if empty. */
    double
    mean() const
    {
        return _samples == 0 ? 0.0
                             : static_cast<double>(_sum) /
                static_cast<double>(_samples);
    }

    /** Largest representable exact bucket (== overflow threshold). */
    std::uint64_t maxBucket() const { return _maxBucket; }

    /**
     * Add every sample of @p other, as if each had been recorded here.
     * Both histograms must share one maxBucket.
     */
    void
    merge(const Histogram &other)
    {
        assert(other._maxBucket == _maxBucket);
        for (std::uint64_t i = 0; i < _maxBucket; ++i)
            _counts[i] += other._counts[i];
        _samples += other._samples;
        _sum += other._sum;
    }

    /** Reset all buckets. */
    void
    clear()
    {
        std::fill(_counts.begin(), _counts.end(), 0);
        _samples = 0;
        _sum = 0;
    }

  private:
    std::uint64_t _maxBucket;
    std::vector<std::uint64_t> _counts;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
};

} // namespace vrc

#endif // VRC_BASE_HISTOGRAM_HH
