#include "shard/subproblems.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "shard/budget.hpp"

namespace lrgp::shard {

std::size_t shard_rank(const std::vector<int>& shards, int s) {
    const auto it = std::lower_bound(shards.begin(), shards.end(), s);
    if (it == shards.end() || *it != s)
        throw std::logic_error("build_subproblems: shard not incident to boundary resource");
    return static_cast<std::size_t>(it - shards.begin());
}

bool shard_incident(const std::vector<int>& shards, int s) {
    return std::binary_search(shards.begin(), shards.end(), s);
}

SubproblemSet build_subproblems(const model::ProblemSpec& spec, PartitionOptions options) {
    SubproblemSet out;
    out.partition = make_partition(spec, options);
    out.shard_of_flow = out.partition.shard_of_flow;

    const int shard_count = out.partition.shards;
    const std::size_t n_nodes = spec.nodeCount();
    const std::size_t n_links = spec.linkCount();
    const std::size_t n_flows = spec.flowCount();
    const std::size_t n_classes = spec.classCount();

    out.node_boundary_index.assign(n_nodes, kAbsent);
    out.link_boundary_index.assign(n_links, kAbsent);
    out.flow_local.assign(n_flows, kAbsent);
    out.class_local.assign(n_classes, kAbsent);

    // ---- boundary budgets ----------------------------------------------
    // Node floors are the worst-case flow base usage sum(F * r_max) of the
    // shard's flows at the node: a shard whose greedy admission respects
    // its budget then keeps usage <= budget, and summing budgets (= the
    // capacity) yields the global Eq. 5 constraint.  Link floors are the
    // minimum feasible usage sum(L * r_min).  Surplus splits by demand
    // weight: sum(G * n_max * r_max) for nodes, sum(L * r_max) for links.
    for (std::size_t n = 0; n < n_nodes; ++n) {
        const auto& shards = out.partition.shards_of_node[n];
        if (shards.size() < 2) continue;
        const model::NodeId id{static_cast<std::uint32_t>(n)};
        BoundaryBudget entry;
        entry.id = static_cast<std::uint32_t>(n);
        entry.capacity = spec.nodes()[n].capacity;
        entry.shards = shards;
        std::vector<double> floors(shards.size(), 0.0);
        std::vector<double> weights(shards.size(), 0.0);
        // Floors guarantee the minimum allocation (every flow at r_min)
        // stays feasible inside its slice; rate_max floors would pin the
        // whole capacity on contended resources and leave the
        // reconciliation nothing to move.
        for (model::FlowId f : spec.flowsAtNode(id)) {
            const std::size_t i = shard_rank(shards, out.shard_of_flow[f.index()]);
            floors[i] += spec.flowNodeCost(id, f) * spec.flow(f).rate_min;
        }
        for (model::ClassId c : spec.classesAtNode(id)) {
            const auto& cls = spec.consumerClass(c);
            const std::size_t i = shard_rank(shards, out.shard_of_flow[cls.flow.index()]);
            weights[i] += cls.consumer_cost * static_cast<double>(cls.max_consumers) *
                          spec.flow(cls.flow).rate_max;
        }
        // A shard incident only through zero-F hops would get a zero
        // budget, which ProblemBuilder rejects; keep every slice positive.
        const double min_floor = entry.capacity * 1e-6;
        for (double& f : floors) f = std::max(f, min_floor);
        entry.floor = floors;
        entry.budget = split_with_floors(entry.capacity, floors, weights);
        out.node_boundary_index[n] = static_cast<std::uint32_t>(out.node_budgets.size());
        out.node_budgets.push_back(std::move(entry));
    }
    for (std::size_t l = 0; l < n_links; ++l) {
        const auto& shards = out.partition.shards_of_link[l];
        if (shards.size() < 2) continue;
        const model::LinkId id{static_cast<std::uint32_t>(l)};
        BoundaryBudget entry;
        entry.id = static_cast<std::uint32_t>(l);
        entry.capacity = spec.links()[l].capacity;
        entry.shards = shards;
        std::vector<double> floors(shards.size(), 0.0);
        std::vector<double> weights(shards.size(), 0.0);
        for (model::FlowId f : spec.flowsOnLink(id)) {
            const std::size_t i = shard_rank(shards, out.shard_of_flow[f.index()]);
            const double cost = spec.linkCost(id, f);
            floors[i] += cost * spec.flow(f).rate_min;
            weights[i] += cost * spec.flow(f).rate_max;
        }
        const double min_floor = entry.capacity * 1e-6;
        for (double& f : floors) f = std::max(f, min_floor);
        entry.floor = floors;
        entry.budget = split_with_floors(entry.capacity, floors, weights);
        out.link_boundary_index[l] = static_cast<std::uint32_t>(out.link_budgets.size());
        out.link_budgets.push_back(std::move(entry));
    }

    // ---- per-shard subproblems ------------------------------------------
    out.members.resize(static_cast<std::size_t>(shard_count));
    for (int s = 0; s < shard_count; ++s) {
        MemberSpec member;
        member.node_local.assign(n_nodes, kAbsent);
        member.link_local.assign(n_links, kAbsent);

        // Membership: a node belongs to the shard when one of its flows
        // routes through / originates at it; a link when one of its flows
        // routes over it.  Orphan resources no flow touches go to shard 0
        // (so K=1 reproduces the problem exactly), and link endpoints are
        // pulled in so the sub-spec validates (they carry no usage).
        std::vector<char> node_in(n_nodes, 0);
        std::vector<char> link_in(n_links, 0);
        for (model::FlowId f : out.partition.flows_of_shard[static_cast<std::size_t>(s)]) {
            const auto& flow = spec.flow(f);
            node_in[flow.source.index()] = 1;
            for (const auto& hop : flow.nodes) node_in[hop.node.index()] = 1;
            for (const auto& hop : flow.links) link_in[hop.link.index()] = 1;
        }
        if (s == 0) {
            for (std::size_t n = 0; n < n_nodes; ++n)
                if (out.partition.shards_of_node[n].empty()) node_in[n] = 1;
            for (std::size_t l = 0; l < n_links; ++l)
                if (out.partition.shards_of_link[l].empty()) link_in[l] = 1;
        }
        for (std::size_t l = 0; l < n_links; ++l) {
            if (!link_in[l]) continue;
            node_in[spec.links()[l].from.index()] = 1;
            node_in[spec.links()[l].to.index()] = 1;
        }

        // Boundary slices are set after build(): at a node exactly at its
        // rate_min floor, a shard that reaches it only through zero-F hops
        // still takes a positive slice from the others, leaving their
        // slices below the floors build() checks.
        model::ProblemBuilder builder;
        std::vector<std::pair<model::NodeId, double>> node_slices;
        std::vector<std::pair<model::LinkId, double>> link_slices;
        for (std::size_t n = 0; n < n_nodes; ++n) {
            if (!node_in[n]) continue;
            const auto& node = spec.nodes()[n];
            const model::NodeId local = builder.addNode(node.name, node.capacity);
            const std::uint32_t bi = out.node_boundary_index[n];
            if (bi != kAbsent && shard_incident(out.node_budgets[bi].shards, s))
                node_slices.emplace_back(
                    local, out.node_budgets[bi].budget[shard_rank(out.node_budgets[bi].shards, s)]);
            member.node_local[n] = local.value;
            member.nodes.push_back(static_cast<std::uint32_t>(n));
            const auto& owners = out.partition.shards_of_node[n];
            if ((owners.size() == 1 && owners[0] == s) || (owners.empty() && s == 0))
                member.own_nodes.emplace_back(local.value, static_cast<std::uint32_t>(n));
        }
        for (std::size_t l = 0; l < n_links; ++l) {
            if (!link_in[l]) continue;
            const auto& link = spec.links()[l];
            const model::LinkId local =
                builder.addLink(link.name, model::NodeId{member.node_local[link.from.index()]},
                                model::NodeId{member.node_local[link.to.index()]}, link.capacity);
            const std::uint32_t bi = out.link_boundary_index[l];
            if (bi != kAbsent && shard_incident(out.link_budgets[bi].shards, s))
                link_slices.emplace_back(
                    local, out.link_budgets[bi].budget[shard_rank(out.link_budgets[bi].shards, s)]);
            member.link_local[l] = local.value;
            member.links.push_back(static_cast<std::uint32_t>(l));
            const auto& owners = out.partition.shards_of_link[l];
            if ((owners.size() == 1 && owners[0] == s) || (owners.empty() && s == 0))
                member.own_links.emplace_back(local.value, static_cast<std::uint32_t>(l));
        }
        for (model::FlowId f : out.partition.flows_of_shard[static_cast<std::size_t>(s)]) {
            const auto& flow = spec.flow(f);
            const model::FlowId local =
                builder.addFlow(flow.name, model::NodeId{member.node_local[flow.source.index()]},
                                flow.rate_min, flow.rate_max);
            out.flow_local[f.index()] = local.value;
            member.flows.push_back(f.value);
            for (const auto& hop : flow.nodes)
                builder.routeThroughNode(local, model::NodeId{member.node_local[hop.node.index()]},
                                         hop.flow_node_cost);
            for (const auto& hop : flow.links)
                builder.routeOverLink(local, model::LinkId{member.link_local[hop.link.index()]},
                                      hop.link_cost);
        }
        for (std::size_t c = 0; c < n_classes; ++c) {
            const auto& cls = spec.classes()[c];
            if (out.shard_of_flow[cls.flow.index()] != s) continue;
            const model::ClassId local = builder.addClass(
                cls.name, model::FlowId{out.flow_local[cls.flow.index()]},
                model::NodeId{member.node_local[cls.node.index()]}, cls.max_consumers,
                cls.consumer_cost, cls.utility);
            out.class_local[c] = local.value;
            member.classes.push_back(static_cast<std::uint32_t>(c));
        }

        if (!member.flows.empty()) {
            model::ProblemSpec sub = builder.build();
            for (const auto& [id, slice] : node_slices) sub.setNodeCapacity(id, slice);
            for (const auto& [id, slice] : link_slices) sub.setLinkCapacity(id, slice);
            for (std::size_t i = 0; i < member.flows.size(); ++i)
                if (!spec.flows()[member.flows[i]].active)
                    sub.setFlowActive(model::FlowId{static_cast<std::uint32_t>(i)}, false);
            member.spec = std::move(sub);
        }
        out.members[static_cast<std::size_t>(s)] = std::move(member);
    }
    return out;
}

}  // namespace lrgp::shard
