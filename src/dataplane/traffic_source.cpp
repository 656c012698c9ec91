#include "dataplane/traffic_source.hpp"

#include <cmath>
#include <stdexcept>

namespace lrgp::dataplane {

TrafficSource::TrafficSource(sim::Simulator& simulator, std::uint32_t flow,
                             ArrivalProcess process, std::uint64_t seed, double bucket_depth,
                             std::function<void(const DataMessage&)> emit)
    : simulator_(simulator),
      flow_(flow),
      process_(process),
      bucket_(bucket_depth, 0.0),
      emit_(std::move(emit)),
      rng_state_(seed == 0 ? 0x9E3779B97F4A7C15ull : seed) {
    if (!emit_) throw std::invalid_argument("TrafficSource: null emit callback");
}

double TrafficSource::uniform() {
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    // (0, 1]: a zero draw would make the exponential inter-arrival 0/inf.
    return (static_cast<double>(rng_state_ >> 11) + 1.0) * 0x1.0p-53;
}

void TrafficSource::setEnactedRate(double rate) {
    if (!(rate >= 0.0)) throw std::invalid_argument("TrafficSource: rate must be >= 0");
    if (rate == enacted_rate_) return;
    const bool offered_changes = offered_override_ < 0.0;
    enacted_rate_ = rate;
    bucket_.setRate(simulator_.now(), rate);
    if (offered_changes) reschedule();
}

void TrafficSource::setOfferedRate(double rate) {
    if (!std::isfinite(rate)) throw std::invalid_argument("TrafficSource: offered rate must be finite");
    offered_override_ = rate < 0.0 ? -1.0 : rate;
    reschedule();
}

void TrafficSource::setActive(bool active) {
    if (active == active_) return;
    active_ = active;
    reschedule();
}

void TrafficSource::reschedule() {
    ++epoch_;  // orphan any pending emission
    scheduleNext();
}

void TrafficSource::scheduleNext() {
    const double rate = offeredRate();
    if (!active_ || !(rate > 0.0)) return;
    const double gap = process_ == ArrivalProcess::kDeterministic
                           ? 1.0 / rate
                           : -std::log(uniform()) / rate;
    simulator_.schedule(gap, [this, epoch = epoch_] {
        if (epoch != epoch_) return;  // rate changed since scheduling
        onArrival();
        scheduleNext();
    });
}

void TrafficSource::onArrival() {
    if (!bucket_.tryConsume(simulator_.now())) {
        ++shaped_;
        return;
    }
    DataMessage message;
    message.flow = flow_;
    message.sequence = sequence_++;
    message.emitted_at = simulator_.now();
    ++emitted_;
    emit_(message);
}

}  // namespace lrgp::dataplane
