// LRGP greedy consumer allocation (Section 3.2) and the node
// benefit-cost ratio BC(b,t) (Eq. 11) it yields for node pricing.
//
// With rates fixed, each consumer-hosting node admits consumers in
// decreasing order of benefit-cost ratio BC_j = U_j(r_i) / (G_{b,j} r_i)
// (Eq. 10): the utility gained per unit of node resource spent when n_j
// grows by one.  Admission stops at the node capacity.  If the flow-node
// costs F alone exceed the capacity, no consumer is admitted.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "model/problem.hpp"
#include "obs/instruments.hpp"

namespace lrgp::core {

/// A class's benefit-cost ratio at the current rates.
struct BenefitCost {
    model::ClassId cls;
    std::size_t slot = 0;    ///< position of cls in classesAtNode(node)
    double ratio = 0.0;      ///< BC_j (Eq. 10)
    double unit_cost = 0.0;  ///< G_{b,j} * r_i, resource per admitted consumer
};

/// Strict weak ordering shared by every benefit-cost ranking: descending
/// ratio (Eq. 10), ties broken by ascending class id for determinism.
/// It is a total order over a node's classes, so the serial allocator
/// and ParallelLrgpEngine's node phase, which sorts starting from last
/// iteration's order, reach the same permutation.
struct BenefitCostOrder {
    template <class Cand>
    [[nodiscard]] bool operator()(const Cand& a, const Cand& b) const {
        if (a.ratio != b.ratio) return a.ratio > b.ratio;
        return a.cls < b.cls;
    }
};

/// Consumers one batched greedy step admits: the same count as the
/// allocator's `remaining > 0 ? min(floor(remaining / u), n^max) : 0`,
/// for u = G_{b,j} r_i > 0, n^max >= 0 and a remaining capacity that is
/// not NaN, but without the division when its result is known:
///
///  * remaining > full = fl(n^max * u) means remaining >= succ(full) >
///    n^max * u (round to nearest), so the real quotient exceeds n^max
///    and the rounded one is at least n^max: admit n^max;
///  * remaining < u (which includes remaining <= 0) means remaining <=
///    pred(u), so the rounded quotient is at most 1 - 2^-53 and floors
///    to 0: admit nothing.
///
/// Otherwise remaining >= u > 0, and the allocator's division runs
/// unchanged.  `full` is the product the caller's `remaining -= n * u`
/// forms when n is n^max, so the capacity left over is bitwise the
/// allocator's too.  GreedyConsumerAllocator keeps the plain formula as
/// the oracle.
[[nodiscard]] inline int greedy_admit_count(double remaining, double unit_cost,
                                            int max_consumers) noexcept {
    const double full = static_cast<double>(max_consumers) * unit_cost;
    if (remaining > full) return max_consumers;
    if (remaining < unit_cost) return 0;
    return static_cast<int>(
        std::min(std::floor(remaining / unit_cost), static_cast<double>(max_consumers)));
}

/// Result of one node's consumer allocation.
struct NodeAllocationResult {
    /// (class, n_j) for every class attached at the node, admitted or not,
    /// in classesAtNode order.
    std::vector<std::pair<model::ClassId, int>> populations;
    /// used_b(t): node resource consumed after allocation (F terms + admitted consumers).
    double used = 0.0;
    /// BC(b,t): the best benefit-cost ratio among classes still below
    /// n^max (Eq. 11); nullopt when every allocatable class is fully
    /// admitted (a legitimate zero ratio stays distinguishable).
    std::optional<double> best_unmet_bc;
};

/// Stateless greedy allocator; holds a reference to the problem.
class GreedyConsumerAllocator {
public:
    explicit GreedyConsumerAllocator(const model::ProblemSpec& spec) : spec_(&spec) {}

    /// Benefit-cost ratios of the allocatable classes at `node`, sorted
    /// descending (ties broken by class id for determinism).  Classes of
    /// inactive flows, classes with n^max = 0, and classes whose unit
    /// cost G_{b,j} * r_i is not positive (a zero rate) are omitted —
    /// a zero-rate flow delivers nothing, so its classes are not
    /// allocatable and their undefined 0/0 ratio never enters the
    /// ranking or BC(b,t).
    [[nodiscard]] std::vector<BenefitCost> benefitCosts(model::NodeId node,
                                                        const std::vector<double>& rates) const;

    /// Runs the greedy allocation at `node` for the given flow rates.
    /// `batched` admits whole blocks floor(remaining/unit_cost) at once;
    /// the unbatched variant admits one consumer at a time (identical
    /// result; kept for the ablation micro-benchmark and as an oracle in
    /// tests).
    [[nodiscard]] NodeAllocationResult allocate(model::NodeId node,
                                                const std::vector<double>& rates,
                                                bool batched = true) const;

    /// Optional observability counters (owned by the caller's Registry);
    /// nullptr (the default) keeps allocate() uninstrumented.
    void setInstruments(const obs::AllocatorInstruments* instruments) noexcept {
        instruments_ = instruments;
    }

private:
    const model::ProblemSpec* spec_;
    const obs::AllocatorInstruments* instruments_ = nullptr;
};

}  // namespace lrgp::core
