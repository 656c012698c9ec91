#include "workload/federated.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace lrgp::workload {

namespace {

/// splitmix64: the statelessly seedable mixer used across the repo for
/// deterministic jitter.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Uniform double in [lo, hi] from a mixed key.
double jitter(std::uint64_t key, double lo, double hi) {
    const double u = static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

/// Uniform int in [lo, hi] from a mixed key.
int jitter_int(std::uint64_t key, int lo, int hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<int>(mix64(key) % span);
}

}  // namespace

std::size_t federated_class_count(const FederatedWorkloadOptions& options) {
    return static_cast<std::size_t>(options.groups) *
           static_cast<std::size_t>(options.flows_per_group) *
           static_cast<std::size_t>(options.cnodes_per_group);
}

model::ProblemSpec make_federated_workload(const FederatedWorkloadOptions& options) {
    if (options.groups < 1 || options.flows_per_group < 1 || options.cnodes_per_group < 1)
        throw std::invalid_argument("make_federated_workload: counts must be >= 1");
    if (options.tight_groups < 0 || options.tight_groups > options.groups)
        throw std::invalid_argument("make_federated_workload: tight_groups out of range");
    if (!(options.tight_capacity_factor > 0.0) || !(options.loose_capacity_factor > 0.0))
        throw std::invalid_argument("make_federated_workload: capacity factors must be > 0");
    if (options.min_consumers < 1 || options.max_consumers < options.min_consumers)
        throw std::invalid_argument("make_federated_workload: bad consumer range");

    model::ProblemBuilder builder;
    const std::uint64_t seed = static_cast<std::uint64_t>(options.seed) << 32;

    model::NodeId hub;
    if (options.coupling_cost > 0.0) {
        // Demand bound of the hub: flow 0 of every group at full rate.
        const double demand =
            options.coupling_cost * options.rate_max * static_cast<double>(options.groups);
        hub = builder.addNode("hub", demand * options.coupling_capacity_factor);
    }

    for (int g = 0; g < options.groups; ++g) {
        const bool tight = g < options.tight_groups;
        const double factor =
            tight ? options.tight_capacity_factor : options.loose_capacity_factor;

        // Per-class populations are jittered up front: the c-node
        // capacity is a factor of its own demand bound, which needs the
        // populations of every class that will attach there.
        // n_max[f][c] for flow f, c-node c of this group.
        std::vector<std::vector<int>> n_max(
            static_cast<std::size_t>(options.flows_per_group),
            std::vector<int>(static_cast<std::size_t>(options.cnodes_per_group), 0));
        for (int f = 0; f < options.flows_per_group; ++f)
            for (int c = 0; c < options.cnodes_per_group; ++c)
                n_max[f][c] = jitter_int(
                    seed ^ (static_cast<std::uint64_t>(g) << 40) ^
                        (static_cast<std::uint64_t>(f) << 20) ^ static_cast<std::uint64_t>(c),
                    options.min_consumers, options.max_consumers);

        const std::string group = "g" + std::to_string(g);
        // The producer carries no cost (flows route only through
        // c-nodes), so its capacity never constrains the optimization.
        const model::NodeId producer = builder.addNode(group + "_P", 1e9);

        std::vector<model::NodeId> cnodes;
        cnodes.reserve(static_cast<std::size_t>(options.cnodes_per_group));
        for (int c = 0; c < options.cnodes_per_group; ++c) {
            double demand = 0.0;
            for (int f = 0; f < options.flows_per_group; ++f)
                demand += (options.flow_node_cost +
                           options.consumer_cost * static_cast<double>(n_max[f][c])) *
                          options.rate_max;
            cnodes.push_back(builder.addNode(group + "_S" + std::to_string(c), demand * factor));
        }

        for (int f = 0; f < options.flows_per_group; ++f) {
            const std::string flow_name = group + "_f" + std::to_string(f);
            const model::FlowId flow =
                builder.addFlow(flow_name, producer, options.rate_min, options.rate_max);
            if (f == 0 && options.coupling_cost > 0.0)
                builder.routeThroughNode(flow, hub, options.coupling_cost);
            for (int c = 0; c < options.cnodes_per_group; ++c) {
                builder.routeThroughNode(flow, cnodes[static_cast<std::size_t>(c)],
                                         options.flow_node_cost);
                const double rank =
                    jitter(seed ^ 0x5bd1e995ULL ^ (static_cast<std::uint64_t>(g) << 40) ^
                               (static_cast<std::uint64_t>(f) << 20) ^
                               static_cast<std::uint64_t>(c),
                           options.min_rank, options.max_rank) *
                    (tight ? options.tight_rank_boost : 1.0);
                builder.addClass(flow_name + "_S" + std::to_string(c), flow,
                                 cnodes[static_cast<std::size_t>(c)], n_max[f][c],
                                 options.consumer_cost, make_class_utility(options.shape, rank));
            }
        }
    }
    return builder.build();
}

}  // namespace lrgp::workload
