#include "lrgp/rate_allocator.hpp"

#include <stdexcept>

namespace lrgp::core {

double RateAllocator::totalPrice(model::FlowId flow, const std::vector<int>& populations,
                                 const PriceVector& prices) const {
    const model::FlowSpec& f = spec_->flow(flow);

    // PL_i = sum over traversed links of L_{l,i} * p_l.
    double pl = 0.0;
    for (const model::FlowLinkHop& hop : f.links)
        pl += hop.link_cost * prices.link.at(hop.link.index());

    // PB_i = sum over reached nodes of (F_{b,i} + sum_j G_{b,j} n_j) * p_b,
    // the per-unit-rate resource the flow consumes at each node, priced.
    double pb = 0.0;
    for (const model::FlowNodeHop& hop : f.nodes) {
        double per_rate_cost = hop.flow_node_cost;
        for (model::ClassId j : spec_->classesOfFlow(flow)) {
            const model::ClassSpec& c = spec_->consumerClass(j);
            if (c.node == hop.node)
                per_rate_cost += c.consumer_cost * populations.at(j.index());
        }
        pb += per_rate_cost * prices.node.at(hop.node.index());
    }
    return pl + pb;
}

utility::RateSolveResult RateAllocator::computeRate(model::FlowId flow,
                                                    const std::vector<int>& populations,
                                                    const PriceVector& prices) const {
    const model::FlowSpec& f = spec_->flow(flow);
    if (!f.active) throw std::logic_error("RateAllocator: flow is inactive");

    std::vector<utility::WeightedUtility> terms;
    const std::vector<model::ClassId>& classes = spec_->classesOfFlow(flow);
    terms.reserve(classes.size());
    for (model::ClassId j : classes) {
        const model::ClassSpec& c = spec_->consumerClass(j);
        terms.push_back({static_cast<double>(populations.at(j.index())), c.utility});
    }

    const double price = totalPrice(flow, populations, prices);
    const utility::RateSolveResult result =
        utility::solve_rate_objective(terms, price, f.rate_min, f.rate_max, solve_options_);
    if (instruments_) {
        switch (result.method) {
            case utility::RateSolveMethod::kClosedForm:
                instruments_->rate_closed_form->add(1);
                break;
            case utility::RateSolveMethod::kNumeric:
                instruments_->rate_numeric->add(1);
                break;
            default:
                instruments_->rate_bound->add(1);
                break;
        }
    }
    return result;
}

}  // namespace lrgp::core
