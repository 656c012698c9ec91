// Problem specification (Section 2): the overlay (nodes, links), message
// flows with their routes and rate bounds, consumer classes with their
// utilities, and the resource-cost coefficients L, F, G with capacities.
//
// A ProblemSpec is built once through ProblemBuilder (which validates the
// cross-references) and then treated as immutable by the optimizers,
// except for the per-flow `active` flag used to model a flow source
// leaving the system (the Figure 3 recovery experiment).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/ids.hpp"
#include "utility/utility_function.hpp"

namespace lrgp::model {

/// A computing node of the overlay with CPU capacity c_b.
struct NodeSpec {
    NodeId id;
    std::string name;
    double capacity = 0.0;  ///< c_b, resource units per unit time
};

/// A unidirectional link with bandwidth capacity c_l.
struct LinkSpec {
    LinkId id;
    std::string name;
    NodeId from;
    NodeId to;
    double capacity = 0.0;  ///< c_l
};

/// A node visited by a flow together with the flow-node cost F_{b,i}.
struct FlowNodeHop {
    NodeId node;
    double flow_node_cost = 0.0;  ///< F_{b,i}, resource per unit rate
};

/// A link traversed by a flow together with the link cost L_{l,i}.
struct FlowLinkHop {
    LinkId link;
    double link_cost = 0.0;  ///< L_{l,i}, resource per unit rate
};

/// A message flow: producers publish to it at the source node; the flow
/// is routed over `links` and processed at `nodes`.
struct FlowSpec {
    FlowId id;
    std::string name;
    NodeId source;
    double rate_min = 0.0;  ///< r_i^min
    double rate_max = 0.0;  ///< r_i^max
    std::vector<FlowNodeHop> nodes;  ///< B_i with F costs (includes c-nodes)
    std::vector<FlowLinkHop> links;  ///< L_i with L costs
    bool active = true;  ///< false once the flow source has left the system
};

/// A consumer class: a set of up to `max_consumers` identical consumers of
/// one flow, all attached at one node, sharing a utility function.
struct ClassSpec {
    ClassId id;
    std::string name;
    FlowId flow;
    NodeId node;
    int max_consumers = 0;        ///< n_j^max
    double consumer_cost = 0.0;   ///< G_{b,j}, resource per consumer per unit rate
    std::shared_ptr<const utility::UtilityFunction> utility;  ///< U_j, never null
};

/// The validated, index-friendly problem instance.  All id values are
/// dense and equal to the entity's index in the corresponding vector.
class ProblemSpec {
public:
    [[nodiscard]] const std::vector<NodeSpec>& nodes() const noexcept { return nodes_; }
    [[nodiscard]] const std::vector<LinkSpec>& links() const noexcept { return links_; }
    [[nodiscard]] const std::vector<FlowSpec>& flows() const noexcept { return flows_; }
    [[nodiscard]] const std::vector<ClassSpec>& classes() const noexcept { return classes_; }

    [[nodiscard]] const NodeSpec& node(NodeId id) const { return nodes_.at(id.index()); }
    [[nodiscard]] const LinkSpec& link(LinkId id) const { return links_.at(id.index()); }
    [[nodiscard]] const FlowSpec& flow(FlowId id) const { return flows_.at(id.index()); }
    [[nodiscard]] const ClassSpec& consumerClass(ClassId id) const {
        return classes_.at(id.index());
    }

    /// C_i: classes associated with flow i.
    [[nodiscard]] const std::vector<ClassId>& classesOfFlow(FlowId id) const {
        return classes_of_flow_.at(id.index());
    }
    /// nodeClasses(b): classes attached at node b (any flow).
    [[nodiscard]] const std::vector<ClassId>& classesAtNode(NodeId id) const {
        return classes_at_node_.at(id.index());
    }
    /// nodeMap(b): flows that reach node b.
    [[nodiscard]] const std::vector<FlowId>& flowsAtNode(NodeId id) const {
        return flows_at_node_.at(id.index());
    }
    /// linkMap(l): flows that traverse link l.
    [[nodiscard]] const std::vector<FlowId>& flowsOnLink(LinkId id) const {
        return flows_on_link_.at(id.index());
    }

    /// F_{b,i}; zero when the flow does not reach the node.
    [[nodiscard]] double flowNodeCost(NodeId b, FlowId i) const;
    /// L_{l,i}; zero when the flow does not traverse the link.
    [[nodiscard]] double linkCost(LinkId l, FlowId i) const;

    /// Marks a flow as departed/returned (Figure 3 recovery experiment).
    void setFlowActive(FlowId id, bool active) { flows_.at(id.index()).active = active; }
    [[nodiscard]] bool flowActive(FlowId id) const { return flows_.at(id.index()).active; }

    /// Adjusts a node capacity in place (workload-change experiments).
    /// Throws unless the capacity is finite and positive.
    void setNodeCapacity(NodeId id, double capacity);
    void setLinkCapacity(LinkId id, double capacity);

    /// Adjusts a class's consumer ceiling in place — consumers arriving
    /// at (or leaving) a node change n^max, and the optimizer reacts on
    /// its next iteration.  Throws on negative values.
    void setClassMaxConsumers(ClassId id, int max_consumers);

    [[nodiscard]] std::size_t flowCount() const noexcept { return flows_.size(); }
    [[nodiscard]] std::size_t classCount() const noexcept { return classes_.size(); }
    [[nodiscard]] std::size_t nodeCount() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t linkCount() const noexcept { return links_.size(); }

    // -- aggregate shape queries (scratch sizing for compiled iteration) --

    /// Largest number of classes attached at any single node.
    [[nodiscard]] std::size_t maxClassesAtAnyNode() const noexcept;
    /// Largest number of flows reaching any single node.
    [[nodiscard]] std::size_t maxFlowsAtAnyNode() const noexcept;
    /// Total (flow, node) hops over all flows: sum of |B_i|.
    [[nodiscard]] std::size_t totalFlowNodeHops() const noexcept;
    /// Total (flow, link) hops over all flows: sum of |L_i|.
    [[nodiscard]] std::size_t totalFlowLinkHops() const noexcept;

private:
    friend class ProblemBuilder;

    std::vector<NodeSpec> nodes_;
    std::vector<LinkSpec> links_;
    std::vector<FlowSpec> flows_;
    std::vector<ClassSpec> classes_;

    // Derived reverse indexes, built by ProblemBuilder::build().
    std::vector<std::vector<ClassId>> classes_of_flow_;
    std::vector<std::vector<ClassId>> classes_at_node_;
    std::vector<std::vector<FlowId>> flows_at_node_;
    std::vector<std::vector<FlowId>> flows_on_link_;
};

/// Incrementally assembles and validates a ProblemSpec.
///
/// All add/route methods throw std::invalid_argument on bad arguments
/// (unknown ids, non-positive or non-finite capacities, costs and rate
/// bounds, inverted rate bounds, ...).
class ProblemBuilder {
public:
    /// Adds a node with capacity c_b > 0.
    NodeId addNode(std::string name, double capacity);

    /// Adds a unidirectional link with capacity c_l > 0.
    LinkId addLink(std::string name, NodeId from, NodeId to, double capacity);

    /// Adds a flow published at `source` with 0 < rate_min <= rate_max.
    /// The source node is implicitly part of the flow's route only if
    /// routeThroughNode is called for it.
    FlowId addFlow(std::string name, NodeId source, double rate_min, double rate_max);

    /// Declares that `flow` reaches `node`, consuming F_{b,i} = cost >= 0
    /// resource per unit rate there.
    void routeThroughNode(FlowId flow, NodeId node, double flow_node_cost);

    /// Declares that `flow` traverses `link` with L_{l,i} = cost > 0.
    void routeOverLink(FlowId flow, LinkId link, double link_cost);

    /// Adds a consumer class of `flow` attached at `node` with
    /// n^max = max_consumers >= 0, per-consumer cost G > 0 and utility U.
    ClassId addClass(std::string name, FlowId flow, NodeId node, int max_consumers,
                     double consumer_cost,
                     std::shared_ptr<const utility::UtilityFunction> utility);

    /// Validates cross-references (every class's node must be on its
    /// flow's route; link endpoints must exist), that every node's sum
    /// of F * rate_max and every link's sum of L * rate_max over its
    /// flows is finite, and that the same sums at rate_min do not exceed
    /// the capacity (otherwise no allocation is feasible), and returns
    /// the spec.  Throws std::invalid_argument on any inconsistency.  The
    /// capacity setters of ProblemSpec do not repeat the floor check.
    [[nodiscard]] ProblemSpec build() const;

private:
    void requireNode(NodeId id, const char* what) const;
    void requireFlow(FlowId id, const char* what) const;
    void requireLink(LinkId id, const char* what) const;

    ProblemSpec spec_;
};

}  // namespace lrgp::model
