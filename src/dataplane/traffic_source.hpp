// Per-flow traffic generation: an arrival process (deterministic
// spacing or seeded-Poisson) running at the *offered* rate, policed by
// a token bucket refilling at the *enacted* rate.
//
// Rescheduling without event cancellation: the simulator has no cancel
// primitive, so every scheduled emission captures the source's epoch
// counter; bumping the epoch (rate change, deactivation) orphans the
// pending event, which fires as a no-op.  All randomness comes from a
// private xorshift64 stream, so runs are bitwise reproducible per
// (options, seed).
#pragma once

#include <cstdint>
#include <functional>

#include "dataplane/message.hpp"
#include "dataplane/token_bucket.hpp"
#include "sim/simulator.hpp"

namespace lrgp::dataplane {

enum class ArrivalProcess : std::uint8_t {
    kDeterministic,  ///< evenly spaced, 1/rate apart
    kPoisson,        ///< exponential inter-arrival times (seeded)
};

class TrafficSource {
public:
    /// `emit` receives each message that passed the policer; never null.
    TrafficSource(sim::Simulator& simulator, std::uint32_t flow, ArrivalProcess process,
                  std::uint64_t seed, double bucket_depth,
                  std::function<void(const DataMessage&)> emit);

    /// Sets the enacted (bucket) rate; by default the offered rate
    /// follows it.  No-op when the rate is unchanged, so re-enacting an
    /// identical allocation does not perturb emission phase.
    void setEnactedRate(double rate);

    /// Overrides the arrival-process rate independently of the enacted
    /// rate (an overdriving producer); pass a negative value to resume
    /// following the enacted rate.  Throws std::invalid_argument on a
    /// rate that is not finite (at +inf the next arrival is 0 s away).
    void setOfferedRate(double rate);

    /// An inactive source emits nothing; reactivation restarts the
    /// arrival process at the current rates.
    void setActive(bool active);

    [[nodiscard]] bool active() const noexcept { return active_; }
    [[nodiscard]] double enactedRate() const noexcept { return enacted_rate_; }
    [[nodiscard]] double offeredRate() const noexcept {
        return offered_override_ >= 0.0 ? offered_override_ : enacted_rate_;
    }
    [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
    [[nodiscard]] std::uint64_t shaped() const noexcept { return shaped_; }

private:
    void reschedule();
    void scheduleNext();
    void onArrival();
    [[nodiscard]] double uniform();  ///< deterministic draw in (0, 1]

    sim::Simulator& simulator_;
    std::uint32_t flow_;
    ArrivalProcess process_;
    TokenBucket bucket_;
    std::function<void(const DataMessage&)> emit_;

    double enacted_rate_ = 0.0;
    double offered_override_ = -1.0;
    bool active_ = true;
    std::uint64_t epoch_ = 0;      ///< orphans stale scheduled emissions
    std::uint64_t sequence_ = 0;   ///< next message sequence number
    std::uint64_t emitted_ = 0;
    std::uint64_t shaped_ = 0;
    std::uint64_t rng_state_;
};

}  // namespace lrgp::dataplane
