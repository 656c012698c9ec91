// Lightweight metrics primitives for the LRGP engines: monotonic
// counters, gauges, and fixed-bucket histograms, collected in a named
// Registry and exportable as Prometheus-style text.
//
// Design constraints (docs/observability.md):
//  * near-zero cost when unused — every instrumented call site guards on
//    an attached flag or a null instrument pointer (one predictable
//    branch when nothing is attached);
//  * safe to update from the TaskPool workers — all mutation is relaxed
//    atomics, registration alone takes a lock;
//  * deterministic export — metrics render in registration order, so the
//    text output of a deterministic run is byte-stable (golden-tested).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lrgp::obs {

/// Prometheus-style labels attached to a metric at registration time.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up and down (last write wins).
class Gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
    [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: counts of observations <= each upper bound,
/// plus the running sum and total count.  Bounds are set at registration
/// and never change; an implicit +Inf bucket catches the tail.
class Histogram {
public:
    explicit Histogram(std::vector<double> upper_bounds);

    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    void observe(double x) noexcept;
    /// Weighted insert: `n` identical observations of `x` (a whole
    /// fastpath message cohort at once); n == 0 is a no-op.
    void observe(double x, std::uint64_t n) noexcept;

    [[nodiscard]] const std::vector<double>& upperBounds() const noexcept { return bounds_; }
    /// Count in bucket `i` (observations <= bounds_[i]); `bucketCount(size())`
    /// is the +Inf bucket.
    [[nodiscard]] std::uint64_t bucketCount(std::size_t i) const noexcept {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

private:
    std::vector<double> bounds_;                    ///< sorted, strictly increasing
    std::deque<std::atomic<std::uint64_t>> buckets_;  ///< bounds_.size() + 1 (+Inf)
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Exponential seconds buckets (1us .. 10s) suitable for phase timings.
[[nodiscard]] std::vector<double> default_time_buckets();

/// Owns named metrics.  Registering the same (name, labels) twice
/// returns the existing instrument, so engines can share a registry.
/// Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus rules);
/// violations throw std::invalid_argument.
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    Counter& counter(const std::string& name, const std::string& help = "",
                     const Labels& labels = {});
    Gauge& gauge(const std::string& name, const std::string& help = "",
                 const Labels& labels = {});
    /// `upper_bounds` is only consulted when the histogram is first
    /// registered; a second registration with different bounds throws.
    Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                         const std::string& help = "", const Labels& labels = {});

    /// Lookup without registering; nullptr when absent.
    [[nodiscard]] const Counter* findCounter(const std::string& name,
                                             const Labels& labels = {}) const;
    [[nodiscard]] const Gauge* findGauge(const std::string& name, const Labels& labels = {}) const;
    [[nodiscard]] const Histogram* findHistogram(const std::string& name,
                                                 const Labels& labels = {}) const;

    /// Convenience for tests and benches: counter value or 0 when absent.
    [[nodiscard]] std::uint64_t counterValue(const std::string& name,
                                             const Labels& labels = {}) const;

    [[nodiscard]] std::size_t size() const;

    /// Prometheus text exposition: one # HELP / # TYPE pair per metric
    /// family, series in registration order.  Deterministic for a
    /// deterministic run (golden-tested byte-exact).
    void writePrometheus(std::ostream& os) const;
    [[nodiscard]] std::string prometheusText() const;

private:
    enum class Kind { kCounter, kGauge, kHistogram };
    struct Entry {
        Kind kind;
        std::string name;
        std::string help;
        Labels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry* find(Kind kind, const std::string& name, const Labels& labels);
    const Entry* findConst(Kind kind, const std::string& name, const Labels& labels) const;

    mutable std::mutex mutex_;
    std::deque<Entry> entries_;  ///< deque: stable addresses across registration
};

}  // namespace lrgp::obs
