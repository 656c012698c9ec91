#include "lrgp/compiled_problem.hpp"

#include <algorithm>

#include "utility/utility_function.hpp"

namespace lrgp::core {

namespace {

struct ClassFamily {
    SolveFamily family = SolveFamily::kGeneric;
    double weight = 0.0;
    double param = 0.0;  ///< exponent (power) or scale (shifted log)
};

/// Classifies one utility into a closed-form family.  ScaledUtility
/// chains and unknown subclasses stay generic: replicating their nested
/// factor arithmetic bit-for-bit is not worth the fragility.
ClassFamily classify(const utility::UtilityFunction& u) {
    if (const auto* lg = dynamic_cast<const utility::LogUtility*>(&u))
        return {SolveFamily::kLog, lg->weight(), 0.0};
    if (const auto* pw = dynamic_cast<const utility::PowerUtility*>(&u))
        return {SolveFamily::kPower, pw->weight(), pw->exponent()};
    if (const auto* sl = dynamic_cast<const utility::ShiftedLogUtility*>(&u))
        return {SolveFamily::kShiftedLog, sl->weight(), sl->scale()};
    return {};
}

}  // namespace

CompiledProblem::CompiledProblem(const model::ProblemSpec& spec) {
    const std::size_t flows = spec.flowCount();
    const std::size_t nodes = spec.nodeCount();
    const std::size_t links = spec.linkCount();
    const std::size_t classes = spec.classCount();

    // ---- per-class scalars and family classification --------------------
    class_flow.reserve(classes);
    class_node.reserve(classes);
    class_weight.reserve(classes);
    class_dweight.reserve(classes);
    class_utility.reserve(classes);
    std::vector<ClassFamily> families;
    families.reserve(classes);
    for (const model::ClassSpec& c : spec.classes()) {
        const ClassFamily fam = classify(*c.utility);
        families.push_back(fam);
        class_flow.push_back(c.flow.value);
        class_node.push_back(c.node.value);
        class_weight.push_back(fam.weight);
        class_dweight.push_back(fam.family == SolveFamily::kPower ? fam.weight * fam.param
                                                                  : fam.weight);
        class_utility.push_back(c.utility.get());
    }

    // ---- per-flow scalars, hop spans, class spans -----------------------
    flow_active.reserve(flows);
    flow_rate_min.reserve(flows);
    flow_rate_max.reserve(flows);
    flow_family.assign(flows, SolveFamily::kGeneric);
    flow_family_param.assign(flows, 0.0);
    flow_link_begin.reserve(flows + 1);
    flow_node_begin.reserve(flows + 1);
    flow_class_begin.reserve(flows + 1);
    link_hop_link.reserve(spec.totalFlowLinkHops());
    link_hop_cost.reserve(spec.totalFlowLinkHops());
    node_hop_node.reserve(spec.totalFlowNodeHops());
    node_hop_fcost.reserve(spec.totalFlowNodeHops());
    hop_class_begin.reserve(spec.totalFlowNodeHops() + 1);
    hop_class_class.reserve(classes);
    hop_class_gcost.reserve(classes);
    flow_class_class.reserve(classes);

    // Position of each node on the current flow's route; reset after
    // every flow, so bucketing a flow's classes by hop is linear.
    constexpr std::uint32_t kNoHop = ~std::uint32_t{0};
    std::vector<std::uint32_t> hop_of_node(nodes, kNoHop);
    std::vector<std::size_t> hop_cursor;

    flow_link_begin.push_back(0);
    flow_node_begin.push_back(0);
    flow_class_begin.push_back(0);
    hop_class_begin.push_back(0);
    for (const model::FlowSpec& f : spec.flows()) {
        flow_active.push_back(f.active ? 1 : 0);
        flow_rate_min.push_back(f.rate_min);
        flow_rate_max.push_back(f.rate_max);

        for (const model::FlowLinkHop& hop : f.links) {
            link_hop_link.push_back(hop.link.value);
            link_hop_cost.push_back(hop.link_cost);
        }
        flow_link_begin.push_back(link_hop_link.size());

        const std::vector<model::ClassId>& of_flow = spec.classesOfFlow(f.id);
        for (std::size_t h = 0; h < f.nodes.size(); ++h) {
            node_hop_node.push_back(f.nodes[h].node.value);
            node_hop_fcost.push_back(f.nodes[h].flow_node_cost);
            hop_of_node[f.nodes[h].node.index()] = static_cast<std::uint32_t>(h);
        }
        flow_node_begin.push_back(node_hop_node.size());

        // Classes of this flow attached at each hop's node, kept in
        // classesOfFlow order — the exact order the serial
        // RateAllocator::totalPrice inner loop accumulates them — by one
        // stable counting pass.  ProblemBuilder::build() puts every class
        // on a hop of its flow, and a route visits a node at most once.
        hop_cursor.assign(f.nodes.size() + 1, 0);
        for (model::ClassId j : of_flow) ++hop_cursor[hop_of_node[class_node[j.index()]] + 1];
        for (std::size_t h = 1; h <= f.nodes.size(); ++h) hop_cursor[h] += hop_cursor[h - 1];
        const std::size_t base = hop_class_class.size();
        for (std::size_t h = 1; h <= f.nodes.size(); ++h)
            hop_class_begin.push_back(base + hop_cursor[h]);
        hop_class_class.resize(base + of_flow.size());
        hop_class_gcost.resize(base + of_flow.size());
        for (model::ClassId j : of_flow) {
            const std::size_t e = base + hop_cursor[hop_of_node[class_node[j.index()]]]++;
            hop_class_class[e] = j.value;
            hop_class_gcost[e] = spec.consumerClass(j).consumer_cost;
        }
        for (const model::FlowNodeHop& hop : f.nodes) hop_of_node[hop.node.index()] = kNoHop;

        for (model::ClassId j : of_flow) flow_class_class.push_back(j.value);
        flow_class_begin.push_back(flow_class_class.size());

        // A flow is fast-path solvable when every one of its classes
        // shares a single closed-form family (equal exponent/scale).
        if (!of_flow.empty()) {
            const ClassFamily& first = families[of_flow.front().index()];
            bool uniform = first.family != SolveFamily::kGeneric;
            for (model::ClassId j : of_flow) {
                const ClassFamily& fam = families[j.index()];
                uniform = uniform && fam.family == first.family && fam.param == first.param;
            }
            if (uniform) {
                flow_family[f.id.index()] = first.family;
                flow_family_param[f.id.index()] = first.param;
            }
        }
    }

    // ---- per-node spans -------------------------------------------------
    // (flow, F) pairs in flowsAtNode order, which is flow-id order, so one
    // pass over the routes fills them; looking F up per (node, flow) pair
    // would rescan the route, quadratic in hops per flow.
    node_flow_begin.reserve(nodes + 1);
    node_flow_begin.push_back(0);
    for (const model::NodeSpec& b : spec.nodes())
        node_flow_begin.push_back(node_flow_begin.back() + spec.flowsAtNode(b.id).size());
    node_flow_flow.resize(node_flow_begin.back());
    node_flow_fcost.resize(node_flow_begin.back());
    std::vector<std::size_t> fill(node_flow_begin.begin(), node_flow_begin.end() - 1);
    for (const model::FlowSpec& f : spec.flows()) {
        for (const model::FlowNodeHop& hop : f.nodes) {
            const std::size_t e = fill[hop.node.index()]++;
            node_flow_flow[e] = f.id.value;
            node_flow_fcost[e] = hop.flow_node_cost;
        }
    }

    node_capacity.reserve(nodes);
    node_class_begin.reserve(nodes + 1);
    node_class_class.reserve(classes);
    node_class_flow.reserve(classes);
    node_class_gcost.reserve(classes);
    node_class_max_consumers.reserve(classes);
    class_slot.assign(classes, 0);
    node_class_begin.push_back(0);
    for (const model::NodeSpec& b : spec.nodes()) {
        node_capacity.push_back(b.capacity);
        for (model::ClassId j : spec.classesAtNode(b.id)) {
            const model::ClassSpec& c = spec.consumerClass(j);
            class_slot[j.index()] = static_cast<std::uint32_t>(node_class_class.size());
            node_class_class.push_back(j.value);
            node_class_flow.push_back(c.flow.value);
            node_class_gcost.push_back(c.consumer_cost);
            node_class_max_consumers.push_back(c.max_consumers);
        }
        node_class_begin.push_back(node_class_class.size());
        max_classes_at_node = std::max(
            max_classes_at_node, node_class_begin[node_class_begin.size() - 1] -
                                     node_class_begin[node_class_begin.size() - 2]);
    }

    // ---- per-link spans: (flow, L) pairs filled like the node ones -----
    link_capacity.reserve(links);
    link_flow_begin.reserve(links + 1);
    link_flow_begin.push_back(0);
    for (const model::LinkSpec& l : spec.links()) {
        link_capacity.push_back(l.capacity);
        link_flow_begin.push_back(link_flow_begin.back() + spec.flowsOnLink(l.id).size());
    }
    link_flow_flow.resize(link_flow_begin.back());
    link_flow_cost.resize(link_flow_begin.back());
    fill.assign(link_flow_begin.begin(), link_flow_begin.end() - 1);
    for (const model::FlowSpec& f : spec.flows()) {
        for (const model::FlowLinkHop& hop : f.links) {
            const std::size_t e = fill[hop.link.index()]++;
            link_flow_flow[e] = f.id.value;
            link_flow_cost[e] = hop.link_cost;
        }
    }
}

}  // namespace lrgp::core
