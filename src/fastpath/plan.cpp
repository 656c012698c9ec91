#include "fastpath/plan.hpp"

namespace lrgp::fastpath {

CompiledPlan CompiledPlan::lower(const model::ProblemSpec& spec) {
    CompiledPlan plan;
    plan.flow_count = spec.flowCount();
    plan.link_count = spec.linkCount();
    plan.node_count = spec.nodeCount();
    plan.class_count = spec.classCount();
    plan.nodes = dataplane::NodeCostTable::lower(spec);

    // Link slots: a counting sort by link.  Flows visit in id order, so
    // each link's slots come out in flow order.
    std::vector<std::uint32_t> link_begin(plan.link_count + 1, 0);
    for (const model::FlowSpec& flow : spec.flows()) {
        for (const model::FlowLinkHop& hop : flow.links) ++link_begin[hop.link.index() + 1];
    }
    for (std::size_t l = 0; l < plan.link_count; ++l) link_begin[l + 1] += link_begin[l];
    const std::size_t link_slots = link_begin[plan.link_count];
    plan.link_slot_link.resize(link_slots);
    plan.link_slot_flow.resize(link_slots);
    plan.link_slot_cost.resize(link_slots);
    plan.link_slot_next.resize(link_slots);
    plan.flow_link_begin.reserve(plan.flow_count + 1);
    plan.flow_link_begin.push_back(0);
    plan.flow_link_slots.reserve(link_slots);
    std::vector<std::uint32_t> cursor(link_begin.begin(), link_begin.end() - 1);
    for (std::size_t i = 0; i < plan.flow_count; ++i) {
        const model::FlowId flow_id{static_cast<std::uint32_t>(i)};
        for (const model::FlowLinkHop& hop : spec.flows()[i].links) {
            const std::uint32_t s = cursor[hop.link.index()]++;
            plan.link_slot_link[s] = hop.link.index();
            plan.link_slot_flow[s] = flow_id.index();
            plan.link_slot_cost[s] = dataplane::link_message_cost(spec, hop.link, flow_id);
            plan.link_slot_next[s] = kChainEnd;
            if (plan.flow_link_slots.size() > plan.flow_link_begin.back()) {
                plan.link_slot_next[plan.flow_link_slots.back()] = s;
            }
            plan.flow_link_slots.push_back(s);
        }
        plan.flow_link_begin.push_back(static_cast<std::uint32_t>(plan.flow_link_slots.size()));
    }

    // One group per entity with slots: links, then nodes, both by id.
    const auto emit = [&plan](bool is_node, const std::vector<std::uint32_t>& begin) {
        for (std::size_t e = 0; e + 1 < begin.size(); ++e) {
            if (begin[e] == begin[e + 1]) continue;
            plan.groups.push_back(
                GateGroup{is_node, static_cast<std::uint32_t>(e), begin[e], begin[e + 1]});
        }
    };
    emit(false, link_begin);
    emit(true, plan.nodes.node_begin);
    return plan;
}

}  // namespace lrgp::fastpath
