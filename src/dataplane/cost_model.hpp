// The paper's per-message resource cost model, shared by the
// discrete-event dataplane (dataplane::Dataplane) and the batched
// fastpath (fastpath::Fastpath) so both plants charge exactly the same
// work per message:
//
//   * link l, flow i:  L_{l,i}            (bandwidth units / message)
//   * node b, flow i:  F_{b,i} + sum over classes j of flow i admitted
//                      at b of G_{b,j} * n_j   (CPU units / message)
//
// The node cost depends on the enacted populations, so the spec is
// lowered once into a NodeCostTable — one *node slot* per (flow, node
// hop) holding F_{b,i} and a CSR row of the flow's classes at the node
// with their G_{b,j} — and node_message_cost(table, slot, populations)
// is the one function that evaluates F + sum G * n.  Keeping this in
// one place is what makes the fastpath/sim differential oracle
// meaningful: any divergence between the two engines is a
// queueing/batching artifact, never a cost-model fork.  For the same
// reason both plants take their queue bound and hop delay from here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/allocation.hpp"
#include "model/problem.hpp"

namespace lrgp::dataplane {

/// Queued messages per link/node server (event plant) or per entity
/// (fastpath); arrivals beyond it drop.
inline constexpr std::size_t kQueueCapacity = 64;
/// Hop-to-hop handoff delay in seconds.  The event plant schedules it
/// per hop; the fastpath adds it to its latency estimate only.
inline constexpr double kPropagationDelay = 1e-4;

/// The one check both plants' enact() and notePlanned() run before any
/// state changes: throws std::invalid_argument (naming `who`) unless
/// `allocation` has one rate per flow and one population per class,
/// every rate is finite and >= 0 (a source emits 1/rate apart, so +inf
/// would never advance time) and every population is >= 0.
void check_enactable(const model::ProblemSpec& spec, const model::Allocation& allocation,
                     const char* who);

/// L_{l,i}: cost of one flow-i message crossing link l.
[[nodiscard]] inline double link_message_cost(const model::ProblemSpec& spec, model::LinkId link,
                                              model::FlowId flow) {
    return spec.linkCost(link, flow);
}

/// The spec's node slots, numbered by (node, flow, route hop): node b's
/// slots are [node_begin[b], node_begin[b+1]), one per flow routed
/// through b, in flow order.  Built once per problem, read-only after.
struct NodeCostTable {
    std::vector<std::uint32_t> node_begin;  ///< node count + 1
    std::vector<std::uint32_t> slot_node;   ///< NodeId per slot
    std::vector<std::uint32_t> slot_flow;   ///< FlowId per slot
    std::vector<double> slot_flow_cost;     ///< F_{b,i} per slot

    /// Slot s's classes: [class_begin[s], class_begin[s+1]) indexes
    /// `classes` (ClassId values, in classesAtNode order) and the
    /// parallel `consumer_cost` (their G_{b,j}).
    std::vector<std::uint32_t> class_begin;  ///< slot count + 1
    std::vector<std::uint32_t> classes;
    std::vector<double> consumer_cost;

    /// Flow-major index: flow i's node slots in route order are
    /// flow_slots[flow_begin[i] .. flow_begin[i+1]) — the fan-out list.
    std::vector<std::uint32_t> flow_begin;  ///< flow count + 1
    std::vector<std::uint32_t> flow_slots;

    [[nodiscard]] std::size_t slotCount() const noexcept { return slot_node.size(); }

    /// Lowers `spec`'s node hops (a counting sort by node).
    /// Deterministic: equal specs give equal tables.
    [[nodiscard]] static NodeCostTable lower(const model::ProblemSpec& spec);
};

/// F_{b,i} + sum_j G_{b,j} n_j over node slot `slot`'s classes, summed
/// in classesAtNode order: the cost of one flow-i message processed at
/// node b under `populations` (indexed by ClassId, as in Allocation).
[[nodiscard]] inline double node_message_cost(const NodeCostTable& table, std::uint32_t slot,
                                              const std::vector<int>& populations) {
    double cost = table.slot_flow_cost[slot];
    for (std::uint32_t c = table.class_begin[slot]; c < table.class_begin[slot + 1]; ++c) {
        cost += table.consumer_cost[c] * static_cast<double>(populations[table.classes[c]]);
    }
    return cost;
}

}  // namespace lrgp::dataplane
