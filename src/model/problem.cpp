#include "model/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lrgp::model {

namespace {

/// False for zero, negatives, NaN and +inf.
bool finite_positive(double x) { return x > 0.0 && std::isfinite(x); }

}  // namespace

double ProblemSpec::flowNodeCost(NodeId b, FlowId i) const {
    const FlowSpec& f = flow(i);
    for (const FlowNodeHop& hop : f.nodes)
        if (hop.node == b) return hop.flow_node_cost;
    return 0.0;
}

double ProblemSpec::linkCost(LinkId l, FlowId i) const {
    const FlowSpec& f = flow(i);
    for (const FlowLinkHop& hop : f.links)
        if (hop.link == l) return hop.link_cost;
    return 0.0;
}

std::size_t ProblemSpec::maxClassesAtAnyNode() const noexcept {
    std::size_t best = 0;
    for (const auto& classes : classes_at_node_) best = std::max(best, classes.size());
    return best;
}

std::size_t ProblemSpec::maxFlowsAtAnyNode() const noexcept {
    std::size_t best = 0;
    for (const auto& flows : flows_at_node_) best = std::max(best, flows.size());
    return best;
}

std::size_t ProblemSpec::totalFlowNodeHops() const noexcept {
    std::size_t total = 0;
    for (const FlowSpec& f : flows_) total += f.nodes.size();
    return total;
}

std::size_t ProblemSpec::totalFlowLinkHops() const noexcept {
    std::size_t total = 0;
    for (const FlowSpec& f : flows_) total += f.links.size();
    return total;
}

void ProblemSpec::setNodeCapacity(NodeId id, double capacity) {
    if (!finite_positive(capacity))
        throw std::invalid_argument("ProblemSpec: node capacity must be finite and positive");
    nodes_.at(id.index()).capacity = capacity;
}

void ProblemSpec::setLinkCapacity(LinkId id, double capacity) {
    if (!finite_positive(capacity))
        throw std::invalid_argument("ProblemSpec: link capacity must be finite and positive");
    links_.at(id.index()).capacity = capacity;
}

void ProblemSpec::setClassMaxConsumers(ClassId id, int max_consumers) {
    if (max_consumers < 0)
        throw std::invalid_argument("ProblemSpec: max_consumers must be non-negative");
    classes_.at(id.index()).max_consumers = max_consumers;
}

// ------------------------------------------------------------------ builder

void ProblemBuilder::requireNode(NodeId id, const char* what) const {
    if (!id.valid() || id.index() >= spec_.nodes_.size())
        throw std::invalid_argument(std::string("ProblemBuilder: unknown node in ") + what);
}

void ProblemBuilder::requireFlow(FlowId id, const char* what) const {
    if (!id.valid() || id.index() >= spec_.flows_.size())
        throw std::invalid_argument(std::string("ProblemBuilder: unknown flow in ") + what);
}

void ProblemBuilder::requireLink(LinkId id, const char* what) const {
    if (!id.valid() || id.index() >= spec_.links_.size())
        throw std::invalid_argument(std::string("ProblemBuilder: unknown link in ") + what);
}

NodeId ProblemBuilder::addNode(std::string name, double capacity) {
    if (!finite_positive(capacity))
        throw std::invalid_argument("ProblemBuilder: node capacity must be finite and positive");
    NodeId id{static_cast<std::uint32_t>(spec_.nodes_.size())};
    spec_.nodes_.push_back(NodeSpec{id, std::move(name), capacity});
    return id;
}

LinkId ProblemBuilder::addLink(std::string name, NodeId from, NodeId to, double capacity) {
    requireNode(from, "addLink(from)");
    requireNode(to, "addLink(to)");
    if (from == to) throw std::invalid_argument("ProblemBuilder: link endpoints must differ");
    if (!finite_positive(capacity))
        throw std::invalid_argument("ProblemBuilder: link capacity must be finite and positive");
    LinkId id{static_cast<std::uint32_t>(spec_.links_.size())};
    spec_.links_.push_back(LinkSpec{id, std::move(name), from, to, capacity});
    return id;
}

FlowId ProblemBuilder::addFlow(std::string name, NodeId source, double rate_min,
                               double rate_max) {
    requireNode(source, "addFlow(source)");
    if (!(rate_min > 0.0) || !(rate_min <= rate_max) || !std::isfinite(rate_max))
        throw std::invalid_argument("ProblemBuilder: need 0 < rate_min <= rate_max < inf");
    FlowId id{static_cast<std::uint32_t>(spec_.flows_.size())};
    spec_.flows_.push_back(FlowSpec{id, std::move(name), source, rate_min, rate_max, {}, {}, true});
    return id;
}

void ProblemBuilder::routeThroughNode(FlowId flow, NodeId node, double flow_node_cost) {
    requireFlow(flow, "routeThroughNode");
    requireNode(node, "routeThroughNode");
    if (!(flow_node_cost >= 0.0) || !std::isfinite(flow_node_cost))
        throw std::invalid_argument(
            "ProblemBuilder: flow-node cost must be finite and non-negative");
    FlowSpec& f = spec_.flows_[flow.index()];
    for (const FlowNodeHop& hop : f.nodes)
        if (hop.node == node)
            throw std::invalid_argument("ProblemBuilder: flow already routed through node");
    f.nodes.push_back(FlowNodeHop{node, flow_node_cost});
}

void ProblemBuilder::routeOverLink(FlowId flow, LinkId link, double link_cost) {
    requireFlow(flow, "routeOverLink");
    requireLink(link, "routeOverLink");
    if (!finite_positive(link_cost))
        throw std::invalid_argument("ProblemBuilder: link cost must be finite and positive");
    FlowSpec& f = spec_.flows_[flow.index()];
    for (const FlowLinkHop& hop : f.links)
        if (hop.link == link)
            throw std::invalid_argument("ProblemBuilder: flow already routed over link");
    f.links.push_back(FlowLinkHop{link, link_cost});
}

ClassId ProblemBuilder::addClass(std::string name, FlowId flow, NodeId node, int max_consumers,
                                 double consumer_cost,
                                 std::shared_ptr<const utility::UtilityFunction> utility) {
    requireFlow(flow, "addClass");
    requireNode(node, "addClass");
    if (max_consumers < 0)
        throw std::invalid_argument("ProblemBuilder: max_consumers must be non-negative");
    if (!finite_positive(consumer_cost))
        throw std::invalid_argument("ProblemBuilder: consumer cost G must be finite and positive");
    if (!utility) throw std::invalid_argument("ProblemBuilder: class utility must not be null");
    ClassId id{static_cast<std::uint32_t>(spec_.classes_.size())};
    spec_.classes_.push_back(
        ClassSpec{id, std::move(name), flow, node, max_consumers, consumer_cost,
                  std::move(utility)});
    return id;
}

ProblemSpec ProblemBuilder::build() const {
    ProblemSpec out = spec_;

    // Cross-reference check: every class must attach at a node its flow
    // reaches (two-stage approximation, Section 2.4: stage one routes the
    // flow to every node hosting one of its classes).
    for (const ClassSpec& c : out.classes_) {
        const FlowSpec& f = out.flows_[c.flow.index()];
        const bool routed = std::any_of(f.nodes.begin(), f.nodes.end(),
                                        [&](const FlowNodeHop& h) { return h.node == c.node; });
        if (!routed)
            throw std::invalid_argument("ProblemBuilder: class '" + c.name +
                                        "' attaches at a node its flow does not reach");
    }

    // Build reverse indexes.
    out.classes_of_flow_.assign(out.flows_.size(), {});
    out.classes_at_node_.assign(out.nodes_.size(), {});
    out.flows_at_node_.assign(out.nodes_.size(), {});
    out.flows_on_link_.assign(out.links_.size(), {});
    for (const ClassSpec& c : out.classes_) {
        out.classes_of_flow_[c.flow.index()].push_back(c.id);
        out.classes_at_node_[c.node.index()].push_back(c.id);
    }
    for (const FlowSpec& f : out.flows_) {
        for (const FlowNodeHop& hop : f.nodes) out.flows_at_node_[hop.node.index()].push_back(f.id);
        for (const FlowLinkHop& hop : f.links) out.flows_on_link_[hop.link.index()].push_back(f.id);
    }

    // Every usage F*r and L*r must stay finite, or feasibility checks and
    // utilization compare against +inf.  G is left out: a huge consumer
    // cost only makes its class unadmittable.  Checked last: before the
    // reverse indexes, these scratch vectors fragmented the heap (+2 MB
    // peak RSS on the 10^5-class federated workload).
    std::vector<double> node_usage(out.nodes_.size(), 0.0);
    std::vector<double> link_usage(out.links_.size(), 0.0);
    const auto sum_usage = [&](double FlowSpec::*rate) {
        std::fill(node_usage.begin(), node_usage.end(), 0.0);
        std::fill(link_usage.begin(), link_usage.end(), 0.0);
        for (const FlowSpec& f : out.flows_) {
            for (const FlowNodeHop& hop : f.nodes)
                node_usage[hop.node.index()] += hop.flow_node_cost * (f.*rate);
            for (const FlowLinkHop& hop : f.links)
                link_usage[hop.link.index()] += hop.link_cost * (f.*rate);
        }
    };
    sum_usage(&FlowSpec::rate_max);
    for (std::size_t b = 0; b < out.nodes_.size(); ++b)
        if (!std::isfinite(node_usage[b]))
            throw std::invalid_argument("ProblemBuilder: node '" + out.nodes_[b].name +
                                        "' has an infinite sum of F * rate_max over its flows");
    for (std::size_t l = 0; l < out.links_.size(); ++l)
        if (!std::isfinite(link_usage[l]))
            throw std::invalid_argument("ProblemBuilder: link '" + out.links_[l].name +
                                        "' has an infinite sum of L * rate_max over its flows");

    // The floor: every flow at rate_min with no consumers admitted must
    // fit, or the problem has no feasible point.  Inactive flows count,
    // since restoreFlow can bring any of them back.  A resource exactly
    // at its floor is legal.
    sum_usage(&FlowSpec::rate_min);
    for (std::size_t b = 0; b < out.nodes_.size(); ++b)
        if (node_usage[b] > out.nodes_[b].capacity)
            throw std::invalid_argument("ProblemBuilder: node '" + out.nodes_[b].name +
                                        "' cannot carry its flows: the sum of F * rate_min "
                                        "exceeds its capacity");
    for (std::size_t l = 0; l < out.links_.size(); ++l)
        if (link_usage[l] > out.links_[l].capacity)
            throw std::invalid_argument("ProblemBuilder: link '" + out.links_[l].name +
                                        "' cannot carry its flows: the sum of L * rate_min "
                                        "exceeds its capacity");
    return out;
}

}  // namespace lrgp::model
