// Capacity-budget arithmetic for boundary resources.
//
// A boundary node/link is shared by m >= 2 shards; its global capacity c
// is split into per-shard budgets that always (a) sum to c and (b) stay
// at or above a per-shard floor.  Node floors are the worst-case flow
// base usage sum(F * r_max), so each shard's greedy admission keeps its
// local usage within its budget and the global Eq. 5 constraint holds by
// summation; link floors are the minimum feasible usage sum(L * r_min).
//
// The reconciler moves budgets toward the shards reporting the highest
// boundary price (the scarcity signal of Eq. 12/13): the multiplicative
// rule  c_s' ~ c_s * (1 + step * (p_s - pbar) / pmax)  preserves the
// total in exact arithmetic because pbar is the budget-weighted mean
// price; the explicit projection afterwards restores floors and the
// exact total under floating point.  All operations are deterministic
// (fixed shard order, no data-dependent reductions beyond the inputs).
#pragma once

#include <vector>

namespace lrgp::shard {

/// Splits `capacity` into floors plus a weight-proportional share of the
/// surplus.  Zero total weight splits the surplus evenly; floors that
/// already exceed the capacity are scaled down proportionally (the
/// degenerate over-subscribed case).  Result sums to `capacity`.
[[nodiscard]] std::vector<double> split_with_floors(double capacity,
                                                    const std::vector<double>& floors,
                                                    const std::vector<double>& weights);

struct RebalanceResult {
    std::vector<double> budget;  ///< new budgets, sum == capacity
    double moved = 0.0;          ///< sum |new - old| / 2 (capacity transferred)
};

/// One price-directed budget exchange for a boundary resource: shards
/// whose local price exceeds the budget-weighted mean gain capacity from
/// shards below it, scaled by `step` in [0, 1].  Budgets are clamped to
/// `floors` and renormalized to sum to `capacity`.  When every price is
/// zero (nobody constrained) the budgets are returned unchanged.
[[nodiscard]] RebalanceResult rebalance_budgets(double capacity,
                                                const std::vector<double>& budget,
                                                const std::vector<double>& floors,
                                                const std::vector<double>& prices,
                                                double step);

// The reconcile policy, shared by ShardedLrgpEngine and the async
// shard-agent runtime (one runtime tick runs one engine iteration, so
// both count the interval in member-engine iterations).

/// Member-engine iterations between reconcile passes.
inline constexpr int kReconcileInterval = 8;
/// The `step` of rebalance_budgets for a pass at full strength.
inline constexpr double kReconcileStep = 0.5;
/// Hysteresis: a pass that would move at most this fraction of a
/// resource's capacity leaves its budgets alone, so converged splits
/// stop resetting the member engines.
inline constexpr double kMinRebalanceFraction = 1e-3;

}  // namespace lrgp::shard
