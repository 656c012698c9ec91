#include "fastpath/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace lrgp::fastpath {

TrafficScheduler::TrafficScheduler(std::size_t flows)
    : rates_(flows, 0.0), credits_(flows, 0.0) {}

void TrafficScheduler::setRate(std::size_t i, double rate) {
    if (!(rate >= 0.0)) throw std::invalid_argument("TrafficScheduler: rate must be >= 0");
    rates_.at(i) = rate;
}

void TrafficScheduler::refill(std::size_t i, double dt) {
    // Carried credits cap at the burst depth, but the quantum's own
    // accrual stays fully spendable: a continuous-time policer passes
    // rate*dt messages during dt no matter how small the bucket, and
    // batching admission at quantum granularity must not lower that
    // (otherwise every flow with rate > depth/quantum would be shaped
    // to depth/quantum, which the event dataplane never does).
    credits_[i] = std::min(kCreditDepth, credits_[i]) + rates_[i] * dt;
}

bool TrafficScheduler::tryAdmit(std::size_t i) {
    // Same slack as TokenBucket::tryConsume: deterministic arrivals at
    // exactly the refill rate must never be shaped by rounding noise.
    if (credits_[i] < 1.0 - 1e-9) return false;
    credits_[i] -= 1.0;
    return true;
}

}  // namespace lrgp::fastpath
