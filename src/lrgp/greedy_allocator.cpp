#include "lrgp/greedy_allocator.hpp"

#include <algorithm>
#include <cmath>

namespace lrgp::core {

std::vector<BenefitCost> GreedyConsumerAllocator::benefitCosts(
    model::NodeId node, const std::vector<double>& rates) const {
    std::vector<BenefitCost> out;
    std::size_t slot = 0;
    for (model::ClassId j : spec_->classesAtNode(node)) {
        const std::size_t this_slot = slot++;
        const model::ClassSpec& c = spec_->consumerClass(j);
        if (!spec_->flowActive(c.flow) || c.max_consumers == 0) continue;
        const double rate = rates.at(c.flow.index());
        const double unit_cost = c.consumer_cost * rate;
        // A non-positive unit cost (zero rate) makes BC_j = U_j(0)/0 an
        // undefined 0/0: such classes are simply not allocatable this
        // iteration and must not poison the ranking or BC(b,t) with NaN.
        if (!(unit_cost > 0.0)) continue;
        out.push_back(BenefitCost{j, this_slot, c.utility->value(rate) / unit_cost, unit_cost});
    }
    std::sort(out.begin(), out.end(), BenefitCostOrder{});
    return out;
}

NodeAllocationResult GreedyConsumerAllocator::allocate(model::NodeId node,
                                                       const std::vector<double>& rates,
                                                       bool batched) const {
    NodeAllocationResult result;

    // Resource consumed by the flows themselves (F_{b,i} * r_i terms);
    // consumers compete for what remains.
    double base_usage = 0.0;
    for (model::FlowId i : spec_->flowsAtNode(node)) {
        if (!spec_->flowActive(i)) continue;
        base_usage += spec_->flowNodeCost(node, i) * rates.at(i.index());
    }
    const double capacity = spec_->node(node).capacity;
    double remaining = capacity - base_usage;

    // Start every class at zero; admitted counts fill in below.
    for (model::ClassId j : spec_->classesAtNode(node)) result.populations.emplace_back(j, 0);

    const std::vector<BenefitCost> ranked = benefitCosts(node, rates);
    int total_admitted = 0;
    for (const BenefitCost& bc : ranked) {
        const model::ClassSpec& c = spec_->consumerClass(bc.cls);
        int admitted = 0;
        if (remaining > 0.0) {
            // Clamp in double before narrowing: the quotient can exceed
            // int range when unit costs are tiny.
            admitted = static_cast<int>(std::min(std::floor(remaining / bc.unit_cost),
                                                 static_cast<double>(c.max_consumers)));
            if (!batched) {
                // The stepwise oracle admits the largest k with
                // remaining - k*unit_cost >= 0.  The floored quotient can
                // land one off that boundary when the division rounds the
                // other way than the multiplication; nudge to match.
                while (admitted > 0 && remaining - admitted * bc.unit_cost < 0.0) --admitted;
                while (admitted < c.max_consumers &&
                       remaining - (admitted + 1) * bc.unit_cost >= 0.0)
                    ++admitted;
            }
        }
        remaining -= admitted * bc.unit_cost;
        result.populations[bc.slot].second = admitted;
        total_admitted += admitted;
        // BC(b,t): first (highest) ratio whose class is not fully admitted.
        if (admitted < c.max_consumers && !result.best_unmet_bc)
            result.best_unmet_bc = bc.ratio;
    }

    result.used = capacity - remaining;
    if (instruments_) {
        instruments_->greedy_allocations->add(1);
        instruments_->greedy_candidates->add(ranked.size());
        instruments_->greedy_admitted->add(static_cast<std::uint64_t>(total_admitted));
    }
    return result;
}

}  // namespace lrgp::core
