// Route lowering for the batched fastpath: a ProblemSpec's flow routes
// compiled into a flat gate graph, BESS-style.
//
// Every (flow, link-hop) pair becomes a *link slot* and every
// (flow, node-hop) pair a *node slot* — the per-flow lanes through a
// shared entity's gate.  Slots are numbered entity-major: link slots by
// (link, flow, hop), node slots in the shared cost table's
// (node, flow, hop) order (dataplane/cost_model.hpp).  So each entity's
// slots form one contiguous id range, in flow order, and one GateGroup
// per link and per node is just that range.  Each flow's chain and
// fan-out are flow-major lists of slot ids (flow_link_slots plus
// link_slot_next, and the table's flow_slots).
//
// The engine is store-and-forward — a gate's served cohorts land in the
// *next* quantum's incoming queues — so all groups are served in a
// single parallelFor per quantum and still touch disjoint state:
//
//   * an entity has exactly one group, so its per-quantum budget,
//     queue and counter state has exactly one writer — the capacity
//     constraint is spent once per quantum, proportionally across all
//     the entity's slots (matching the event dataplane's FIFO share);
//   * every slot has exactly one upstream gate (or the source phase),
//     so the double-buffered incoming queues have one writer per slot
//     per phase.
//
// That makes the quantum a single parallelFor over groups with plain
// (non-atomic) state everywhere — the structural core of the fastpath's
// determinism argument (docs/fastpath.md).
//
// All ordering is fixed at lowering time (links before nodes, entities
// by id, slots by flow id), so the serve order — and with it every
// floating-point accumulation — is independent of worker count.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "dataplane/cost_model.hpp"
#include "model/problem.hpp"

namespace lrgp::fastpath {

/// One entity's gate: the contiguous slot-id range [slots_begin,
/// slots_end) of its link or node slots, served by a single worker per
/// quantum.
struct GateGroup {
    bool is_node = false;       ///< false: `entity` is a LinkId, true: a NodeId
    std::uint32_t entity = 0;   ///< link or node index
    std::uint32_t slots_begin = 0;  ///< first link or node slot id
    std::uint32_t slots_end = 0;
};

/// The compiled gate graph.  Pure data, CSR layout throughout; built
/// once per (problem) and shared read-only by every worker.
struct CompiledPlan {
    /// link_slot_next value of a chain's last hop.
    static constexpr std::uint32_t kChainEnd = std::numeric_limits<std::uint32_t>::max();

    std::size_t flow_count = 0;
    std::size_t link_count = 0;
    std::size_t node_count = 0;
    std::size_t class_count = 0;

    // -- link slots, numbered by (link, flow, hop) --------------------
    std::vector<std::uint32_t> link_slot_link;  ///< LinkId per link slot
    std::vector<std::uint32_t> link_slot_flow;  ///< owning FlowId per link slot
    std::vector<double> link_slot_cost;         ///< L_{l,i}, static
    std::vector<std::uint32_t> link_slot_next;  ///< next hop's slot, or kChainEnd

    /// Flow i's link chain in route order: flow_link_slots[
    /// flow_link_begin[i] .. flow_link_begin[i+1]).
    std::vector<std::uint32_t> flow_link_begin;  ///< flow_count + 1
    std::vector<std::uint32_t> flow_link_slots;

    /// Node slots: F_{b,i}, class rows and the flow-major fan-out lists.
    dataplane::NodeCostTable nodes;

    // -- gate schedule: one group per entity with slots ---------------
    std::vector<GateGroup> groups;  ///< links (by id), then nodes (by id)

    [[nodiscard]] std::size_t linkSlotCount() const noexcept { return link_slot_link.size(); }
    [[nodiscard]] std::size_t nodeSlotCount() const noexcept { return nodes.slotCount(); }
    [[nodiscard]] std::uint32_t chainLength(std::size_t flow) const {
        return flow_link_begin[flow + 1] - flow_link_begin[flow];
    }

    /// Lowers `spec`'s routes into the gate graph (counting sorts by
    /// entity).  Deterministic: a byte-identical plan for equal specs.
    [[nodiscard]] static CompiledPlan lower(const model::ProblemSpec& spec);
};

}  // namespace lrgp::fastpath
