// Traffic-class scheduler for the fastpath: enforces the
// EnactmentController's per-flow rate limits at batch granularity.
//
// Each flow owns a credit bucket refilled once per quantum at the
// enacted rate (the batched counterpart of the event dataplane's
// continuously-refilled TokenBucket: the depth caps only the *carried*
// credits — the quantum's own rate*dt accrual is always spendable, so
// sustained throughput is never clamped below the enacted rate — and
// the same >= 1 - 1e-9 admission slack means deterministic arrivals at
// exactly the enacted rate pass untouched).
//
// All state is flow-indexed, so refill/admit can run from whichever
// worker owns the flow's partition without the result depending on the
// partitioning.
#pragma once

#include <cstddef>
#include <vector>

namespace lrgp::fastpath {

/// Per-flow burst allowance in messages: the event dataplane's default
/// token-bucket depth (DataplaneOptions::token_bucket_depth).
inline constexpr double kCreditDepth = 8.0;

class TrafficScheduler {
public:
    explicit TrafficScheduler(std::size_t flows);

    /// Sets flow `i`'s enacted rate (credits/second).  No-op when
    /// unchanged, mirroring TrafficSource::setEnactedRate.
    void setRate(std::size_t i, double rate);

    /// Parallel-safe per flow: refills flow i's credits for a quantum
    /// of `dt` seconds (called exactly once per flow per quantum, by
    /// the worker that owns the flow).
    void refill(std::size_t i, double dt);

    /// Admits one message of flow i if a credit is available.  Returns
    /// false when the message must be shaped.
    [[nodiscard]] bool tryAdmit(std::size_t i);

    [[nodiscard]] double rate(std::size_t i) const { return rates_[i]; }
    [[nodiscard]] double credits(std::size_t i) const { return credits_[i]; }

private:
    std::vector<double> rates_;
    std::vector<double> credits_;
};

}  // namespace lrgp::fastpath
