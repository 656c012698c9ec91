// Production scenario suite (ROADMAP item 3): deterministic, seeded
// composition of overlay topology x traffic program x utility mix into
// a ProblemSpec plus a timed dynamic-op schedule.
//
// A scenario cell is the cross product of
//   * a topology family (scenario/topology.hpp): fat-tree, scale-free,
//     small-world, with per-node/per-edge relative capacity weights;
//   * a traffic program: diurnal sinusoid populations, a flash crowd
//     (population spike + node brownout), static heavy-tailed (Zipf)
//     consumer populations, or flow/consumer churn — everything beyond
//     the initial populations expressed as timed DynamicOps replayed
//     through the core::Engine interface (scenario/runner.hpp);
//   * a utility mix: the paper's shifted-log classes, optionally
//     interleaved with non-concave sigmoid or step classes from the
//     sensitivity section (utility/utility_function.hpp).
//
// Capacity calibration: after the schedule is known, every node/link
// capacity is set from the *peak* demand it would see with all flows
// at rate_max and every class at its schedule-peak population, divided
// by the target utilization (headroom: planned utility is achievable
// and the dataplane delivers it within tolerance).  Relative topology
// weights modulate the result so fat cores stay fatter than edge
// switches.  Overdrive mode keeps the planner's problem identical to
// its headroom twin but records physical_capacity_scale < 1: the
// runner shrinks the *dataplane's* node capacities by that factor, so
// the plan the optimizer believes in overdrives the plant — servers
// run at utilization ~1 and drop (the PR 4 regression pins this at
// >= 20% drops while the headroom twin delivers within 2%).
//
// Determinism: build_scenario is a pure function of ScenarioOptions —
// same options give a byte-identical problem JSON, manifest and
// schedule (the 100-seed property sweep asserts this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "model/problem.hpp"
#include "scenario/topology.hpp"

namespace lrgp::scenario {

/// A timed workload change, replayed through core::Engine between
/// iterations (and mirrored into the dataplane when one is attached).
enum class OpKind {
    kSetClassMaxConsumers,  ///< target = class index, value = new n^max
    kRemoveFlow,            ///< target = flow index
    kRestoreFlow,           ///< target = flow index
    kSetNodeCapacity,       ///< target = node index, value = new capacity
    kSetLinkCapacity,       ///< target = link index, value = new capacity
};

[[nodiscard]] const char* op_kind_name(OpKind kind);

struct DynamicOp {
    double time = 0.0;
    OpKind kind = OpKind::kSetClassMaxConsumers;
    std::uint32_t target = 0;
    double value = 0.0;  ///< new max_consumers or capacity; unused for remove/restore
};

struct ScenarioOptions {
    std::string name;                     ///< catalog cell name ("" = ad hoc)
    std::string topology = "fat_tree";    ///< fat_tree | scale_free | small_world
    std::string traffic = "heavy_tail";   ///< diurnal | flash_crowd | heavy_tail | churn
    std::string utility = "shifted_log";  ///< shifted_log | sigmoid | step
    bool overdrive = false;
    std::uint64_t seed = 1;

    // Topology sizing.
    int fat_tree_k = 4;
    int overlay_nodes = 24;  ///< scale-free / small-world node count
    int ba_attach = 2;
    int ws_ring_degree = 4;
    double ws_beta = 0.2;

    // Workload sizing.
    int flows = 12;
    int classes_per_flow = 3;
    double duration = 12.0;  ///< schedule horizon in runner seconds

    // Capacity calibration.
    double headroom_utilization = 0.6;  ///< peak demand / capacity in headroom mode
    double overdrive_factor = 0.25;     ///< physical / believed capacity in overdrive mode
};

/// A fully composed scenario: the initial problem, the overlay it was
/// routed on, and the dynamic-op schedule (sorted by time).
struct ScenarioSpec {
    ScenarioOptions options;
    Overlay overlay;
    model::ProblemSpec problem;
    std::vector<DynamicOp> schedule;
    /// Time of the scenario's main disturbance (recovery analysis runs
    /// around it); negative when the scenario is static.
    double principal_disturbance = -1.0;
    /// Physical (dataplane) capacity as a fraction of the capacity the
    /// planner's problem believes in: 1 in headroom mode,
    /// overdrive_factor in overdrive mode.  The runner applies it to
    /// the dataplane's node servers and to mirrored capacity ops.
    double physical_capacity_scale = 1.0;

    /// Deterministic JSON manifest: options, counts, schedule digest,
    /// calibration summary.  Byte-stable for golden fixtures.
    [[nodiscard]] io::JsonValue manifest() const;
    [[nodiscard]] std::string manifestString() const;
};

/// Composes a scenario from options.  Throws std::invalid_argument on
/// unknown family names or inconsistent sizing.
[[nodiscard]] ScenarioSpec build_scenario(const ScenarioOptions& options);

/// The pinned (topology x traffic x utility) catalog `ctest -L scenario`
/// runs against; >= 12 cells, each with a fixed seed.
[[nodiscard]] const std::vector<ScenarioOptions>& scenario_catalog();

/// Looks a catalog cell up by name; throws std::invalid_argument with
/// the list of known names when absent.
[[nodiscard]] ScenarioOptions find_scenario(const std::string& name);

/// The problem with every scheduled op applied statically — the input
/// for the best-known-utility solve a replayed run is compared against.
[[nodiscard]] model::ProblemSpec end_state_problem(const ScenarioSpec& scenario);

}  // namespace lrgp::scenario
