// Compiled (lowered) problem representation for the LRGP hot path.
//
// ProblemSpec is an object graph tuned for validation and readability:
// per-hop prices walk `classesOfFlow` for every node a flow reaches,
// link usage re-scans each flow's hop list per link, and every access
// funnels through bounds-checked id lookups.  CompiledProblem lowers the
// spec once into CSR-style flat arrays so one LRGP iteration touches
// only contiguous memory:
//
//   * per-flow link-hop spans   (link index, L cost)          -> PL_i
//   * per-flow node-hop spans   (node index, F cost) with a nested
//     class sub-span (class index, G cost) holding exactly the classes
//     of the flow attached at that hop                        -> PB_i
//   * per-flow class spans      (classesOfFlow order)         -> Eq. 7 terms
//   * per-node flow spans       (flow index, F cost)          -> base usage
//   * per-node class spans      (class, flow, G cost, n^max in
//     classesAtNode order)                                    -> greedy
//   * per-link flow spans       (flow index, L cost)          -> Eq. 13 usage
//
// Utility dispatch is also lowered: when every class of a flow shares a
// single closed-form family (plain LogUtility / PowerUtility with one
// exponent / ShiftedLogUtility with one scale), the per-flow solve and
// the per-class U_j(r) evaluations use precomputed weights and a single
// transcendental per flow, reproducing the serial arithmetic bit for
// bit.  Anything else (mixed families, ScaledUtility chains, custom
// functions) falls back to the reference solver.
//
// The small mutable surface (flow active flags, node capacities, class
// consumer ceilings) mirrors the ProblemSpec setters so dynamic workload
// changes do not force a recompile.  A class's ceiling lives in its
// node-class slot, the one place the greedy pass reads it.
#pragma once

#include <cstdint>
#include <vector>

#include "model/problem.hpp"

namespace lrgp::core {

/// How a flow's rate subproblem (Eq. 7) can be solved on the fast path.
enum class SolveFamily : std::uint8_t {
    kGeneric,     ///< fall back to utility::solve_rate_objective
    kLog,         ///< all classes are w * log(1+r)
    kPower,       ///< all classes are w * r^k with one common k
    kShiftedLog,  ///< all classes are w * log(1+r/s) with one common s
};

/// Flat, cache-friendly mirror of a ProblemSpec.  Spans are CSR-style:
/// entity i owns entries [begin[i], begin[i+1]) of the value arrays.
class CompiledProblem {
public:
    explicit CompiledProblem(const model::ProblemSpec& spec);

    // -- counts -----------------------------------------------------------
    [[nodiscard]] std::size_t flowCount() const noexcept { return flow_rate_min.size(); }
    [[nodiscard]] std::size_t nodeCount() const noexcept { return node_capacity.size(); }
    [[nodiscard]] std::size_t linkCount() const noexcept { return link_capacity.size(); }
    [[nodiscard]] std::size_t classCount() const noexcept { return class_flow.size(); }

    // -- mutable mirror of the ProblemSpec setters ------------------------
    void setFlowActive(model::FlowId id, bool active) {
        flow_active.at(id.index()) = active ? 1 : 0;
    }
    void setNodeCapacity(model::NodeId id, double capacity) {
        node_capacity.at(id.index()) = capacity;
    }
    void setLinkCapacity(model::LinkId id, double capacity) {
        link_capacity.at(id.index()) = capacity;
    }
    void setClassMaxConsumers(model::ClassId id, int max_consumers) {
        node_class_max_consumers.at(class_slot.at(id.index())) = max_consumers;
    }

    // -- per-flow scalars -------------------------------------------------
    std::vector<std::uint8_t> flow_active;
    std::vector<double> flow_rate_min;
    std::vector<double> flow_rate_max;
    /// Fast-path solve family; kGeneric flows use the reference solver.
    std::vector<SolveFamily> flow_family;
    /// Common exponent (kPower) or scale (kShiftedLog) of the flow's classes.
    std::vector<double> flow_family_param;

    // -- per-flow link hops: PL_i = sum cost * p_l -------------------------
    std::vector<std::size_t> flow_link_begin;  ///< size flowCount()+1
    std::vector<std::uint32_t> link_hop_link;
    std::vector<double> link_hop_cost;

    // -- per-flow node hops: PB_i (Eq. 9) ---------------------------------
    std::vector<std::size_t> flow_node_begin;  ///< size flowCount()+1
    std::vector<std::uint32_t> node_hop_node;
    std::vector<double> node_hop_fcost;
    /// Nested span: classes of the flow attached at this hop's node, in
    /// classesOfFlow order (the order the serial price loop visits them).
    std::vector<std::size_t> hop_class_begin;  ///< size node-hop-count + 1
    std::vector<std::uint32_t> hop_class_class;
    std::vector<double> hop_class_gcost;

    // -- per-flow classes (Eq. 7 terms, classesOfFlow order) --------------
    std::vector<std::size_t> flow_class_begin;  ///< size flowCount()+1
    std::vector<std::uint32_t> flow_class_class;

    // -- per-class scalars ------------------------------------------------
    std::vector<std::uint32_t> class_flow;
    std::vector<std::uint32_t> class_node;
    /// The class's entry in the node-class arrays below.  They hold one
    /// entry per class, so a slot fits a class id's width.
    std::vector<std::uint32_t> class_slot;
    /// Base weight w_j when the class's family is closed-form; 0 otherwise.
    std::vector<double> class_weight;
    /// Precomputed w_j * k for the power-derivative fast path.
    std::vector<double> class_dweight;
    /// Borrowed utility pointers for the generic path (spec outlives us).
    std::vector<const utility::UtilityFunction*> class_utility;

    // -- per-node spans ---------------------------------------------------
    std::vector<double> node_capacity;
    std::vector<std::size_t> node_flow_begin;  ///< size nodeCount()+1
    std::vector<std::uint32_t> node_flow_flow;
    std::vector<double> node_flow_fcost;
    /// Node-class spans in classesAtNode order, node-major so the greedy
    /// pass (Alg. 2) reads each node's inputs contiguously.
    std::vector<std::size_t> node_class_begin;  ///< size nodeCount()+1
    std::vector<std::uint32_t> node_class_class;
    std::vector<std::uint32_t> node_class_flow;
    std::vector<double> node_class_gcost;  ///< G_{b,j}
    std::vector<int> node_class_max_consumers;
    /// Widest node-class span; sizes the engine's per-worker greedy
    /// ranking buffers exactly.
    std::size_t max_classes_at_node = 0;

    // -- per-link spans ---------------------------------------------------
    std::vector<double> link_capacity;
    std::vector<std::size_t> link_flow_begin;  ///< size linkCount()+1
    std::vector<std::uint32_t> link_flow_flow;
    std::vector<double> link_flow_cost;
};

}  // namespace lrgp::core
