#include "workload/workloads.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace lrgp::workload {

std::string shape_name(UtilityShape shape) {
    switch (shape) {
        case UtilityShape::kLog: return "log(1+r)";
        case UtilityShape::kPow025: return "r^0.25";
        case UtilityShape::kPow05: return "r^0.5";
        case UtilityShape::kPow075: return "r^0.75";
    }
    throw std::invalid_argument("shape_name: unknown shape");
}

std::shared_ptr<const utility::UtilityFunction> make_class_utility(UtilityShape shape,
                                                                   double rank) {
    switch (shape) {
        case UtilityShape::kLog: return std::make_shared<utility::LogUtility>(rank);
        case UtilityShape::kPow025: return std::make_shared<utility::PowerUtility>(rank, 0.25);
        case UtilityShape::kPow05: return std::make_shared<utility::PowerUtility>(rank, 0.5);
        case UtilityShape::kPow075: return std::make_shared<utility::PowerUtility>(rank, 0.75);
    }
    throw std::invalid_argument("make_class_utility: unknown shape");
}

namespace {

/// One row of Table 1, describing a *pair* of classes.  node_a/node_b are
/// indices into the replica's c-node triple {S0, S1, S2}.
struct ClassPairTemplate {
    int flow;    ///< flow index within the replica, 0..5
    int node_a;  ///< first class's c-node (0=S0, 1=S1, 2=S2)
    int node_b;  ///< second class's c-node
    int max_consumers;
    double rank;
};

// Table 1.  Pairs attach to (S0,S2), (S0,S1) or (S1,S2) per the "nodes"
// column; higher-rank (more important) classes have fewer consumers.
constexpr std::array<ClassPairTemplate, 10> kBaseClassPairs{{
    {0, 0, 2, 400, 20.0},
    {0, 0, 2, 800, 5.0},
    {0, 0, 2, 2000, 1.0},
    {1, 0, 1, 1000, 15.0},
    {2, 1, 2, 1500, 10.0},
    {3, 0, 2, 400, 30.0},
    {3, 0, 2, 800, 3.0},
    {3, 0, 2, 2000, 2.0},
    {4, 0, 1, 1000, 40.0},
    {5, 1, 2, 1500, 100.0},
}};

constexpr int kFlowsPerReplica = 6;
constexpr int kCNodesPerReplica = 3;

}  // namespace

model::ProblemSpec make_base_workload(UtilityShape shape) {
    WorkloadOptions options;
    options.shape = shape;
    return make_scaled_workload(options);
}

model::ProblemSpec make_scaled_workload(const WorkloadOptions& options) {
    if (options.flow_replicas < 1 || options.cnode_replicas < 1)
        throw std::invalid_argument("make_scaled_workload: replica counts must be >= 1");

    model::ProblemBuilder builder;

    // A class's utility depends only on its template's rank, and
    // utilities are immutable, so every class of a template shares one.
    std::array<std::shared_ptr<const utility::UtilityFunction>, kBaseClassPairs.size()> utilities;
    for (std::size_t t = 0; t < kBaseClassPairs.size(); ++t)
        utilities[t] = make_class_utility(options.shape, kBaseClassPairs[t].rank);

    for (int rep = 0; rep < options.flow_replicas; ++rep) {
        const std::string replica = std::to_string(rep);
        // One producer node per replica hosts all six flow sources.  It
        // carries no cost (flows are routed only to c-nodes), so it never
        // constrains the optimization.
        const model::NodeId producer = builder.addNode("r" + replica + "_P", options.node_capacity);

        // cnode_replicas copies of each of S0, S1, S2.
        // cnodes[s][c] = the c-th copy of S<s>.
        std::vector<std::vector<model::NodeId>> cnodes(kCNodesPerReplica);
        for (int s = 0; s < kCNodesPerReplica; ++s) {
            for (int c = 0; c < options.cnode_replicas; ++c) {
                std::string name = "r" + replica + "_S" + std::to_string(s);
                if (options.cnode_replicas > 1) name += "#" + std::to_string(c);
                cnodes[s].push_back(builder.addNode(std::move(name), options.node_capacity));
            }
        }

        std::vector<model::FlowId> flows;
        flows.reserve(kFlowsPerReplica);
        for (int f = 0; f < kFlowsPerReplica; ++f)
            flows.push_back(builder.addFlow("f" + replica + "_" + std::to_string(f), producer,
                                            options.rate_min, options.rate_max));

        // Route each flow through every copy of every c-node that hosts one
        // of its classes (two-stage approximation, Section 2.4), then attach
        // the classes.  routeThroughNode must not repeat a (flow, node)
        // pair, so collect the node set per flow first.
        std::vector<std::vector<bool>> routed(
            kFlowsPerReplica, std::vector<bool>(kCNodesPerReplica, false));
        for (const ClassPairTemplate& t : kBaseClassPairs) {
            routed[t.flow][t.node_a] = true;
            routed[t.flow][t.node_b] = true;
        }
        for (int f = 0; f < kFlowsPerReplica; ++f)
            for (int s = 0; s < kCNodesPerReplica; ++s)
                if (routed[f][s])
                    for (model::NodeId node : cnodes[s])
                        builder.routeThroughNode(flows[f], node, options.flow_node_cost);

        int class_counter = 0;
        for (std::size_t ti = 0; ti < kBaseClassPairs.size(); ++ti) {
            const ClassPairTemplate& t = kBaseClassPairs[ti];
            for (int side = 0; side < 2; ++side) {
                const int s = (side == 0) ? t.node_a : t.node_b;
                const std::string prefix = "r" + replica + "_c" + std::to_string(class_counter);
                for (int c = 0; c < options.cnode_replicas; ++c) {
                    std::string name = prefix;
                    if (options.cnode_replicas > 1) name += "#" + std::to_string(c);
                    builder.addClass(std::move(name), flows[t.flow], cnodes[s][c],
                                     t.max_consumers, options.consumer_cost, utilities[ti]);
                }
                ++class_counter;
            }
        }
    }

    return builder.build();
}

model::FlowId find_flow(const model::ProblemSpec& spec, const std::string& name) {
    for (const model::FlowSpec& f : spec.flows())
        if (f.name == name) return f.id;
    throw std::invalid_argument("find_flow: no flow named '" + name + "'");
}

model::NodeId find_node(const model::ProblemSpec& spec, const std::string& name) {
    for (const model::NodeSpec& n : spec.nodes())
        if (n.name == name) return n.id;
    throw std::invalid_argument("find_node: no node named '" + name + "'");
}

}  // namespace lrgp::workload
