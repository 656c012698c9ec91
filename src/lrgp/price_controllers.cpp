#include "lrgp/price_controllers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lrgp::core {

namespace {

/// False for negatives, NaN and +inf.
bool finite_non_negative(double x) { return x >= 0.0 && std::isfinite(x); }

void validateAdaptive(const AdaptiveGamma& g) {
    if (!(g.min > 0.0) || !(g.min <= g.max) || !std::isfinite(g.max))
        throw std::invalid_argument("AdaptiveGamma: need 0 < min <= max < inf");
    if (!(g.shrink > 0.0 && g.shrink < 1.0))
        throw std::invalid_argument("AdaptiveGamma: shrink must be in (0, 1)");
    if (!finite_non_negative(g.increment))
        throw std::invalid_argument("AdaptiveGamma: increment must be finite and >= 0");
    if (!std::isfinite(g.initial))
        throw std::invalid_argument("AdaptiveGamma: initial must be finite");
}

}  // namespace

NodePriceController::NodePriceController(GammaPolicy policy, double initial_price,
                                         NodePriceRule rule)
    : policy_(policy), price_(initial_price), rule_(rule), adaptive_gamma_(0.0) {
    if (!finite_non_negative(initial_price))
        throw std::invalid_argument("NodePriceController: initial price must be finite and >= 0");
    if (const auto* adaptive = std::get_if<AdaptiveGamma>(&policy_)) {
        validateAdaptive(*adaptive);
        adaptive_gamma_ = std::clamp(adaptive->initial, adaptive->min, adaptive->max);
    } else {
        const auto& fixed = std::get<FixedGamma>(policy_);
        if (!finite_non_negative(fixed.gamma1) || !finite_non_negative(fixed.gamma2))
            throw std::invalid_argument("FixedGamma: stepsizes must be finite and >= 0");
    }
}

double NodePriceController::currentGamma() const noexcept {
    if (std::holds_alternative<AdaptiveGamma>(policy_)) return adaptive_gamma_;
    return std::get<FixedGamma>(policy_).gamma1;
}

double NodePriceController::update(std::optional<double> best_unmet_bc, double used,
                                   double capacity) {
    const double target_bc = best_unmet_bc.value_or(0.0);
    double gamma1, gamma2;
    if (const auto* adaptive = std::get_if<AdaptiveGamma>(&policy_)) {
        gamma1 = gamma2 = adaptive_gamma_;
        (void)adaptive;
    } else {
        const auto& fixed = std::get<FixedGamma>(policy_);
        gamma1 = fixed.gamma1;
        gamma2 = fixed.gamma2;
    }

    // Eq. 12: approach the best unmet benefit-cost ratio while feasible;
    // climb proportionally to the excess when the node is overloaded.
    // The gradient-only ablation ignores the benefit-cost signal and runs
    // a pure Eq. 13-style update instead.
    const double delta = (rule_ == NodePriceRule::kGradientOnly)
                             ? gamma2 * (used - capacity)
                             : ((used <= capacity) ? gamma1 * (target_bc - price_)
                                                   : gamma2 * (used - capacity));
    const double old_price = price_;
    price_ = std::max(0.0, price_ + delta);
    last_moved_ = price_ != old_price;

    // Adaptive heuristic (Section 4.2): a sign flip in the price movement
    // counts as a fluctuation and halves gamma; otherwise gamma creeps up.
    if (auto* adaptive = std::get_if<AdaptiveGamma>(&policy_)) {
        const bool fluctuating = has_last_delta_ && last_delta_ * delta < 0.0;
        if (fluctuating) adaptive_gamma_ *= adaptive->shrink;
        else adaptive_gamma_ += adaptive->increment;
        adaptive_gamma_ = std::clamp(adaptive_gamma_, adaptive->min, adaptive->max);
        last_delta_ = delta;
        has_last_delta_ = true;
    }
    return price_;
}

void NodePriceController::reset(double price) {
    if (!finite_non_negative(price))
        throw std::invalid_argument("NodePriceController: price must be finite and >= 0");
    price_ = price;
    has_last_delta_ = false;
    last_delta_ = 0.0;
    last_moved_ = false;
    if (const auto* adaptive = std::get_if<AdaptiveGamma>(&policy_))
        adaptive_gamma_ = std::clamp(adaptive->initial, adaptive->min, adaptive->max);
}

LinkPriceController::LinkPriceController(double gamma, double initial_price)
    : gamma_(gamma), price_(initial_price) {
    if (!finite_non_negative(gamma))
        throw std::invalid_argument("LinkPriceController: gamma must be finite and >= 0");
    if (!finite_non_negative(initial_price))
        throw std::invalid_argument("LinkPriceController: initial price must be finite and >= 0");
}

void LinkPriceController::reset(double price) {
    if (!finite_non_negative(price))
        throw std::invalid_argument("LinkPriceController: price must be finite and >= 0");
    price_ = price;
    last_moved_ = false;
}

double LinkPriceController::update(double usage, double capacity) {
    const double old_price = price_;
    price_ = std::max(0.0, price_ + gamma_ * (usage - capacity));
    last_moved_ = price_ != old_price;
    return price_;
}

}  // namespace lrgp::core
