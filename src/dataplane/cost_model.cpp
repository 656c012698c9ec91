#include "dataplane/cost_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace lrgp::dataplane {

void check_enactable(const model::ProblemSpec& spec, const model::Allocation& allocation,
                     const char* who) {
    if (allocation.rates.size() != spec.flowCount() ||
        allocation.populations.size() != spec.classCount()) {
        throw std::invalid_argument(std::string(who) + ": allocation does not match problem");
    }
    for (const double rate : allocation.rates) {
        if (!std::isfinite(rate) || rate < 0.0) {
            throw std::invalid_argument(std::string(who) +
                                        ": every rate must be finite and >= 0");
        }
    }
    // An OR of the sign bits, not an early exit: notePlanned runs this on
    // every control tick, over every class.
    unsigned bits = 0;
    for (const int population : allocation.populations) bits |= static_cast<unsigned>(population);
    if (static_cast<int>(bits) < 0) {
        throw std::invalid_argument(std::string(who) + ": every population must be >= 0");
    }
}

NodeCostTable NodeCostTable::lower(const model::ProblemSpec& spec) {
    const std::size_t nodes = spec.nodeCount();
    const std::size_t flows = spec.flowCount();
    NodeCostTable table;

    // Counting sort by node: flows visit in id order, so each node's
    // slots come out in flow order.
    table.node_begin.assign(nodes + 1, 0);
    for (const model::FlowSpec& flow : spec.flows()) {
        for (const model::FlowNodeHop& hop : flow.nodes) ++table.node_begin[hop.node.index() + 1];
    }
    for (std::size_t b = 0; b < nodes; ++b) table.node_begin[b + 1] += table.node_begin[b];
    const std::size_t slots = table.node_begin[nodes];
    table.slot_node.resize(slots);
    table.slot_flow.resize(slots);
    table.slot_flow_cost.resize(slots);
    table.flow_begin.reserve(flows + 1);
    table.flow_begin.push_back(0);
    table.flow_slots.reserve(slots);
    std::vector<std::uint32_t> cursor(table.node_begin.begin(), table.node_begin.end() - 1);
    for (std::size_t i = 0; i < flows; ++i) {
        for (const model::FlowNodeHop& hop : spec.flows()[i].nodes) {
            const std::uint32_t s = cursor[hop.node.index()]++;
            table.slot_node[s] = hop.node.index();
            table.slot_flow[s] = static_cast<std::uint32_t>(i);
            table.slot_flow_cost[s] = hop.flow_node_cost;
            table.flow_slots.push_back(s);
        }
        table.flow_begin.push_back(static_cast<std::uint32_t>(table.flow_slots.size()));
    }

    // Class rows, node by node: each class at the node is counted, then
    // placed, in classesAtNode order into the row of its flow's slot
    // there.  The spec guarantees every class's flow reaches its node.
    table.class_begin.assign(slots + 1, 0);
    table.classes.resize(spec.classCount());
    table.consumer_cost.resize(spec.classCount());
    std::vector<std::uint32_t> slot_of_flow(flows, 0);
    std::vector<std::uint32_t> row_end(slots, 0);
    for (std::size_t b = 0; b < nodes; ++b) {
        const std::vector<model::ClassId>& at_node =
            spec.classesAtNode(model::NodeId{static_cast<std::uint32_t>(b)});
        for (std::uint32_t s = table.node_begin[b]; s < table.node_begin[b + 1]; ++s) {
            slot_of_flow[table.slot_flow[s]] = s;
        }
        for (const model::ClassId j : at_node) {
            ++table.class_begin[slot_of_flow[spec.consumerClass(j).flow.index()] + 1];
        }
        for (std::uint32_t s = table.node_begin[b]; s < table.node_begin[b + 1]; ++s) {
            table.class_begin[s + 1] += table.class_begin[s];
            row_end[s] = table.class_begin[s];
        }
        for (const model::ClassId j : at_node) {
            const model::ClassSpec& cls = spec.consumerClass(j);
            const std::uint32_t c = row_end[slot_of_flow[cls.flow.index()]]++;
            table.classes[c] = j.index();
            table.consumer_cost[c] = cls.consumer_cost;
        }
    }
    return table;
}

}  // namespace lrgp::dataplane
