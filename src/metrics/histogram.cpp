#include "metrics/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lrgp::metrics {

BucketHistogram::BucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
    if (bounds_.empty()) throw std::invalid_argument("BucketHistogram: no bounds");
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (!(bounds_[i] > 0.0) || !std::isfinite(bounds_[i]))
            throw std::invalid_argument("BucketHistogram: bounds must be finite and > 0");
        if (i > 0 && !(bounds_[i] > bounds_[i - 1]))
            throw std::invalid_argument("BucketHistogram: bounds must be strictly increasing");
    }
    buckets_.assign(bounds_.size() + 1, 0);
}

std::size_t BucketHistogram::bucketOf(double x) {
    // Bucket b holds bounds[b-1] < x <= bounds[b] (no lower bound for
    // b = 0, no upper one for the overflow bucket): exactly the x for
    // which lower_bound returns b.  NaN fails every bound test, so it
    // always searches.
    const std::size_t b = last_bucket_;
    if ((b == 0 || bounds_[b - 1] < x) && (b == bounds_.size() || x <= bounds_[b])) return b;
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
    last_bucket_ = static_cast<std::size_t>(it - bounds_.begin());
    return last_bucket_;
}

void BucketHistogram::observe(double x) {
    ++buckets_[bucketOf(x)];
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
}

void BucketHistogram::observe(double x, std::uint64_t n) {
    if (n == 0) return;
    buckets_[bucketOf(x)] += n;
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    count_ += n;
    sum_ += x * static_cast<double>(n);
}

double BucketHistogram::quantile(double q) const {
    if (!(q >= 0.0) || !(q <= 1.0))
        throw std::invalid_argument("BucketHistogram::quantile: q outside [0, 1]");
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) continue;
        const double next = cumulative + static_cast<double>(buckets_[i]);
        if (next >= target) {
            if (i == buckets_.size() - 1) return max_;  // overflow bucket
            const double lower = i == 0 ? 0.0 : bounds_[i - 1];
            const double upper = bounds_[i];
            const double frac =
                (target - cumulative) / static_cast<double>(buckets_[i]);
            return std::clamp(lower + frac * (upper - lower), min_, max_);
        }
        cumulative = next;
    }
    return max_;
}

std::vector<double> exponential_bounds(double lo, double hi, int per_decade) {
    if (!(lo > 0.0) || !(hi > lo) || per_decade < 1)
        throw std::invalid_argument("exponential_bounds: need 0 < lo < hi, per_decade >= 1");
    const double factor = std::pow(10.0, 1.0 / per_decade);
    std::vector<double> bounds;
    for (double b = lo; b < hi * factor; b *= factor) bounds.push_back(b);
    return bounds;
}

std::vector<double> default_latency_bounds() { return exponential_bounds(1e-4, 50.0, 5); }

}  // namespace lrgp::metrics
