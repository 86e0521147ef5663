/**
 * @file
 * Log-bucketed latency histogram (HdrHistogram-style layout).
 *
 * Values bucket into powers of two subdivided linearly into
 * 2^kSubBucketBits sub-buckets, so the relative quantization error of
 * any recorded value is bounded by 1 / 2^(kSubBucketBits+1) (~1.6%
 * with the default 5 bits) while the whole 64-bit range fits in a few
 * kilobytes of counters. Histograms are mergeable (per-scheme workers
 * can aggregate into one distribution) and exportable bucket by
 * bucket, which is what the metrics JSON dump and the bench `--json`
 * records are built from.
 */

#ifndef NVWAL_OBS_HISTOGRAM_HPP
#define NVWAL_OBS_HISTOGRAM_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

namespace nvwal
{

/**
 * Mergeable log-bucketed histogram of unsigned 64-bit samples.
 *
 * Internally synchronized: components cache `Histogram&` references
 * from a registry and record into them from whatever thread holds
 * their own engine lock, and with several databases over one
 * platform registry those engines are *different* threads. The
 * per-record mutex is uncontended in the single-database case and
 * never charges the simulated clock.
 */
class Histogram
{
  public:
    /** Linear sub-buckets per power-of-two octave: 2^5 = 32. */
    static constexpr unsigned kSubBucketBits = 5;
    static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

    /** Bucket index of @p value (exact below 2 * kSubBuckets). */
    static std::size_t
    bucketIndexOf(std::uint64_t value)
    {
        if (value < 2 * kSubBuckets)
            return static_cast<std::size_t>(value);
        // 2^e <= value < 2^(e+1) with e > kSubBucketBits: keep the
        // top kSubBucketBits+1 significant bits.
        const unsigned e = std::bit_width(value) - 1;
        const unsigned shift = e - kSubBucketBits;
        const std::uint64_t sub = value >> shift;  // in [S, 2S)
        return static_cast<std::size_t>((shift + 1) * kSubBuckets +
                                        (sub - kSubBuckets));
    }

    /** Smallest value mapping to bucket @p index. */
    static std::uint64_t
    bucketLowerBound(std::size_t index)
    {
        if (index < 2 * kSubBuckets)
            return index;
        const std::uint64_t shift = index / kSubBuckets - 1;
        const std::uint64_t sub = kSubBuckets + index % kSubBuckets;
        return sub << shift;
    }

    /** Largest value mapping to bucket @p index. */
    static std::uint64_t
    bucketUpperBound(std::size_t index)
    {
        if (index < 2 * kSubBuckets)
            return index;
        const std::uint64_t shift = index / kSubBuckets - 1;
        const std::uint64_t sub = kSubBuckets + index % kSubBuckets;
        return (((sub + 1) << shift) - 1);
    }

    Histogram() = default;

    Histogram(const Histogram &other)
    {
        std::lock_guard<std::mutex> theirs(other._mu);
        copyFrom(other);
    }

    Histogram &
    operator=(const Histogram &other)
    {
        if (this != &other) {
            std::scoped_lock both(_mu, other._mu);
            copyFrom(other);
        }
        return *this;
    }

    void
    record(std::uint64_t value, std::uint64_t count = 1)
    {
        if (count == 0)
            return;
        std::lock_guard<std::mutex> g(_mu);
        const std::size_t idx = bucketIndexOf(value);
        if (idx >= _buckets.size())
            _buckets.resize(idx + 1, 0);
        _buckets[idx] += count;
        _count += count;
        _sum += value * count;
        _min = std::min(_min, value);
        _max = std::max(_max, value);
    }

    std::uint64_t count() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _count;
    }

    std::uint64_t sum() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _sum;
    }

    std::uint64_t min() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _count == 0 ? 0 : _min;
    }

    std::uint64_t max() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _max;
    }

    double
    mean() const
    {
        std::lock_guard<std::mutex> g(_mu);
        return _count == 0 ? 0.0
                           : static_cast<double>(_sum) /
                                 static_cast<double>(_count);
    }

    /**
     * Value at quantile @p q in [0, 1] (0.5 = median). Returns the
     * bucket midpoint clamped to the exact recorded [min, max], so
     * quantiles of single-valued distributions are exact.
     */
    std::uint64_t
    percentile(double q) const
    {
        std::lock_guard<std::mutex> g(_mu);
        if (_count == 0)
            return 0;
        q = std::clamp(q, 0.0, 1.0);
        // Rank of the target sample, 1-based; ceil so p100 = max.
        std::uint64_t rank = static_cast<std::uint64_t>(
            q * static_cast<double>(_count) + 0.9999999999);
        rank = std::clamp<std::uint64_t>(rank, 1, _count);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            seen += _buckets[i];
            if (seen >= rank) {
                const std::uint64_t mid =
                    bucketLowerBound(i) +
                    (bucketUpperBound(i) - bucketLowerBound(i)) / 2;
                return std::clamp(mid, _min, _max);
            }
        }
        return _max;
    }

    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p95() const { return percentile(0.95); }
    std::uint64_t p99() const { return percentile(0.99); }

    /** Add every sample of @p other into this histogram. */
    void
    merge(const Histogram &other)
    {
        if (this == &other)
            return;
        std::scoped_lock both(_mu, other._mu);
        if (other._count == 0)
            return;
        if (other._buckets.size() > _buckets.size())
            _buckets.resize(other._buckets.size(), 0);
        for (std::size_t i = 0; i < other._buckets.size(); ++i)
            _buckets[i] += other._buckets[i];
        _count += other._count;
        _sum += other._sum;
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }

    /** Drop all samples (the object stays usable). */
    void
    clear()
    {
        std::lock_guard<std::mutex> g(_mu);
        _buckets.clear();
        _count = 0;
        _sum = 0;
        _min = ~static_cast<std::uint64_t>(0);
        _max = 0;
    }

    /** One non-empty bucket, for export. */
    struct Bucket
    {
        std::uint64_t lo;
        std::uint64_t hi;
        std::uint64_t count;
    };

    /** Non-empty buckets in ascending value order. */
    std::vector<Bucket>
    buckets() const
    {
        std::lock_guard<std::mutex> g(_mu);
        std::vector<Bucket> out;
        for (std::size_t i = 0; i < _buckets.size(); ++i) {
            if (_buckets[i] != 0)
                out.push_back(Bucket{bucketLowerBound(i),
                                     bucketUpperBound(i), _buckets[i]});
        }
        return out;
    }

  private:
    /** Caller must hold both locks (copy/assign paths). */
    void
    copyFrom(const Histogram &other)
    {
        _buckets = other._buckets;
        _count = other._count;
        _sum = other._sum;
        _min = other._min;
        _max = other._max;
    }

    mutable std::mutex _mu;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = ~static_cast<std::uint64_t>(0);
    std::uint64_t _max = 0;
};

} // namespace nvwal

#endif // NVWAL_OBS_HISTOGRAM_HPP
