// Fixed-bucket histogram with quantile estimation, used by the
// dataplane for end-to-end latency percentiles.
//
// Unlike obs::Histogram (relaxed atomics, Prometheus export, no
// queries), this is a plain single-threaded container that can answer
// quantile() questions: observations are counted against sorted upper
// bounds and quantiles are linearly interpolated inside the bucket that
// crosses the requested rank.  Exact minimum and maximum are tracked so
// the tails never report a bucket bound instead of a real observation.
#pragma once

#include <cstdint>
#include <vector>

namespace lrgp::metrics {

class BucketHistogram {
public:
    /// `upper_bounds` must be non-empty, strictly increasing, and
    /// positive; throws std::invalid_argument otherwise.  Observations
    /// above the last bound land in an implicit overflow bucket.
    explicit BucketHistogram(std::vector<double> upper_bounds);

    void observe(double x);

    /// Weighted insert: `n` identical observations of `x` in one call.
    /// Equivalent to calling observe(x) n times (the fastpath records a
    /// whole message cohort's latency estimate at once); n == 0 is a
    /// no-op.
    void observe(double x, std::uint64_t n);

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    [[nodiscard]] double mean() const noexcept {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    /// Exact extrema of the observed samples (0 when empty).
    [[nodiscard]] double minObserved() const noexcept { return count_ ? min_ : 0.0; }
    [[nodiscard]] double maxObserved() const noexcept { return count_ ? max_ : 0.0; }

    /// Estimated q-quantile (q in [0, 1]; throws outside), linearly
    /// interpolated within the crossing bucket and clamped to the exact
    /// observed extrema.  Returns 0 when empty.
    [[nodiscard]] double quantile(double q) const;

    [[nodiscard]] const std::vector<double>& upperBounds() const noexcept { return bounds_; }
    /// Count in bucket i; bucketCount(upperBounds().size()) is overflow.
    [[nodiscard]] std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }

private:
    /// The bucket std::lower_bound picks for x: the previous call's
    /// bucket when x still falls in it, else a binary search.
    [[nodiscard]] std::size_t bucketOf(double x);

    std::vector<double> bounds_;
    std::vector<std::uint64_t> buckets_;  ///< bounds_.size() + 1 (overflow)
    std::size_t last_bucket_ = 0;         ///< bucketOf's previous answer
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Geometric bucket ladder: `per_decade` bounds per power of ten from
/// `lo` up to (at least) `hi`.  Throws std::invalid_argument unless
/// 0 < lo < hi and per_decade >= 1.
[[nodiscard]] std::vector<double> exponential_bounds(double lo, double hi, int per_decade = 5);

/// The dataplane's default latency ladder: 100us .. 50s, 5 per decade.
[[nodiscard]] std::vector<double> default_latency_bounds();

}  // namespace lrgp::metrics
