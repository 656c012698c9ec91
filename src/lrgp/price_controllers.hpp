// Node and link price adjustment (Sections 3.3, 3.4).
//
// Node price (Eq. 12) moves toward the node's best unmet benefit-cost
// ratio while the node is within capacity, and rises proportionally to
// the excess when over capacity:
//     p(t+1) = p(t) + g1 (BC(b,t) - p(t))      if used <= c_b
//     p(t+1) = p(t) + g2 (used - c_b)          if used >  c_b
// The stepsizes can be fixed or adapted by the paper's heuristic
// (Section 4.2): grow gamma by 0.001 each quiet iteration, halve it when
// the price starts oscillating, clamp to [0.001, 0.1].
//
// Link price (Eq. 13) is the Low-Lapsley gradient projection:
//     p_l(t+1) = [p_l(t) + gamma_l (usage_l - c_l)]+
#pragma once

#include <optional>
#include <variant>
#include <vector>

namespace lrgp::core {

/// Fixed stepsizes for Eq. 12.  The paper uses gamma1 == gamma2 == gamma
/// in the evaluation (Figure 1: gamma in {1, 0.1, 0.01}).
struct FixedGamma {
    double gamma1 = 0.1;
    double gamma2 = 0.1;
};

/// The adaptive-gamma heuristic of Section 4.2.
struct AdaptiveGamma {
    double initial = 0.1;     ///< starting gamma (paper starts at the clamp's top)
    double increment = 0.001; ///< growth per non-fluctuating iteration
    double shrink = 0.5;      ///< multiplier applied when fluctuation is detected
    double min = 0.001;       ///< lower clamp (paper: [0.001, 0.1])
    double max = 0.1;         ///< upper clamp
};

using GammaPolicy = std::variant<FixedGamma, AdaptiveGamma>;

/// Which node-price update rule to run.  kBenefitCost is the paper's
/// Eq. 12 — the price chases the best *unmet* benefit-cost ratio, which
/// is what couples admission control to rate control (key idea #4).
/// kGradientOnly ablates that: the node behaves like a link and runs the
/// Low-Lapsley gradient projection p += gamma*(used - c), projected at 0.
/// Because the greedy allocator never overfills a node, a gradient-only
/// price collapses to zero and stops constraining rates — the ablation
/// benchmark shows the resulting utility loss.
enum class NodePriceRule { kBenefitCost, kGradientOnly };

/// Per-node price state machine implementing Eq. 12 plus adaptive gamma.
/// Prices are kept non-negative (they are Lagrange multiplier estimates).
class NodePriceController {
public:
    /// Throws std::invalid_argument on a negative or non-finite stepsize
    /// or initial price.
    explicit NodePriceController(GammaPolicy policy = AdaptiveGamma{}, double initial_price = 0.0,
                                 NodePriceRule rule = NodePriceRule::kBenefitCost);

    /// Applies Eq. 12 given the allocation outcome at this node and
    /// returns the new price.  `best_unmet_bc` is nullopt when every
    /// class was fully admitted: the node has nothing left to sell, so
    /// the price decays toward zero (the update treats it as a zero
    /// target ratio).
    double update(std::optional<double> best_unmet_bc, double used, double capacity);

    [[nodiscard]] double price() const noexcept { return price_; }
    [[nodiscard]] double currentGamma() const noexcept;

    /// Whether the most recent update() changed the price bitwise; a
    /// price that is exactly stationary (e.g. pinned at 0, or the update
    /// landed on the same double) did not move.  LrgpOptimizer counts
    /// these moves; the incremental engine compares the prices itself,
    /// because it also needs the direction.
    [[nodiscard]] bool lastMoved() const noexcept { return last_moved_; }

    /// Resets price (and adaptive state) — used when the workload changes
    /// abruptly and a controller restart is desired.  Throws
    /// std::invalid_argument unless `price` is finite and >= 0.
    void reset(double price = 0.0);

    /// The full mutable state of the controller (the gamma *policy* is
    /// construction-time configuration and is not part of it).  Exported
    /// for engine snapshots: restoreState() on a controller built with
    /// the same policy resumes the exact update trajectory bitwise.
    struct State {
        double price = 0.0;
        double adaptive_gamma = 0.0;
        double last_delta = 0.0;
        bool has_last_delta = false;
        bool last_moved = false;
    };

    [[nodiscard]] State state() const noexcept {
        return {price_, adaptive_gamma_, last_delta_, has_last_delta_, last_moved_};
    }

    void restoreState(const State& s) noexcept {
        price_ = s.price;
        adaptive_gamma_ = s.adaptive_gamma;
        last_delta_ = s.last_delta;
        has_last_delta_ = s.has_last_delta;
        last_moved_ = s.last_moved;
    }

private:
    GammaPolicy policy_;
    double price_;
    NodePriceRule rule_;
    // Adaptive state: gamma evolves with the observed price oscillation.
    double adaptive_gamma_;
    double last_delta_ = 0.0;
    bool has_last_delta_ = false;
    bool last_moved_ = false;
};

/// Per-link gradient-projection price (Eq. 13).
class LinkPriceController {
public:
    /// Throws std::invalid_argument on a negative or non-finite gamma or
    /// initial price.
    explicit LinkPriceController(double gamma, double initial_price = 0.0);

    /// p = [p + gamma (usage - capacity)]+; returns the new price.
    double update(double usage, double capacity);

    [[nodiscard]] double price() const noexcept { return price_; }

    /// Whether the most recent update() changed the price bitwise (see
    /// NodePriceController::lastMoved).
    [[nodiscard]] bool lastMoved() const noexcept { return last_moved_; }

    /// Throws std::invalid_argument unless `price` is finite and >= 0.
    void reset(double price = 0.0);

    /// Mutable state for engine snapshots (gamma is configuration).
    struct State {
        double price = 0.0;
        bool last_moved = false;
    };

    [[nodiscard]] State state() const noexcept { return {price_, last_moved_}; }

    void restoreState(const State& s) noexcept {
        price_ = s.price;
        last_moved_ = s.last_moved;
    }

private:
    double gamma_;
    double price_;
    bool last_moved_ = false;
};

}  // namespace lrgp::core
