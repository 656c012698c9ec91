// Warm-state snapshots of the incremental LRGP engine (crash recovery).
//
// An EngineSnapshot captures everything a ParallelLrgpEngine needs to
// resume an interrupted run *bitwise-identically* to an uninterrupted
// one: the allocation, the prices, the private state of every stateful
// price controller (adaptive gamma, oscillation memory, moved bits),
// the convergence detector's trailing window, and the spec's dynamic
// state (flow active flags, capacities, class ceilings).  The engine's
// dirty sets and cached phase outputs are deliberately NOT serialized:
// restore() marks everything dirty, and because every skipped
// computation is a deterministic function of bitwise-unchanged inputs,
// the full first post-restore iteration recomputes exactly the values
// the caches held (the same argument that keeps the engine
// bitwise-identical to the serial optimizer, docs/algorithm.md).
//
// serialize()/deserialize() use a little-endian binary layout with raw
// 8-byte doubles, so a round trip through bytes is bit-exact — no
// decimal formatting is involved.  The utility trace is not part of a
// snapshot (it is an observer, not engine state); a restored engine's
// trace restarts empty.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "lrgp/convergence.hpp"
#include "lrgp/price_controllers.hpp"

namespace lrgp::core {

struct EngineSnapshot {
    /// Shape guard: restore() rejects a snapshot whose counts disagree
    /// with the engine's problem.
    std::uint64_t flow_count = 0;
    std::uint64_t class_count = 0;
    std::uint64_t node_count = 0;
    std::uint64_t link_count = 0;

    std::int64_t iteration = 0;
    double last_utility = 0.0;

    // Dynamic spec state (the parts mutable after construction).
    std::vector<std::uint8_t> flow_active;
    std::vector<double> node_capacity;
    std::vector<double> link_capacity;
    std::vector<std::int32_t> class_max_consumers;

    // Allocation and prices after the snapshot iteration.
    std::vector<double> rates;
    std::vector<std::int32_t> populations;
    std::vector<double> node_price;
    std::vector<double> link_price;

    // Stateful controllers and the convergence detector.
    std::vector<NodePriceController::State> node_controllers;
    std::vector<LinkPriceController::State> link_controllers;
    ConvergenceDetector::State detector;

    /// Binary little-endian encoding (bit-exact round trip).
    [[nodiscard]] std::string serialize() const;

    /// Inverse of serialize().  Throws std::invalid_argument on a
    /// truncated, oversized or wrong-magic payload.
    [[nodiscard]] static EngineSnapshot deserialize(std::string_view bytes);
};

}  // namespace lrgp::core
