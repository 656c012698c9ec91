// Declarative experiments: a JSON document describes the workload, the
// optimizer, and a schedule of dynamic events; the runner executes it
// and returns utilities, traces and a summary.  This is how the paper's
// evaluation (and new studies) can be scripted without recompiling:
//
// {
//   "name": "recovery-study",
//   "workload": {"kind": "base", "shape": "log"},
//     // kinds: "base" | "scaled" (+flow_replicas/cnode_replicas)
//     //        | "random" (+seed) | "inline" (+problem: <problem JSON>)
//   "optimizer": {"kind": "lrgp", "gamma": "adaptive", "iterations": 250},
//     // kinds: "lrgp" | "multirate" | "sa" (+steps, +temperatures)
//     //        | "rates_only" (+policy: "proportional"|"max_demand")
//   "events": [ {"at": 150, "action": "remove_flow",       "flow": "f0_5"},
//               {"at": 180, "action": "restore_flow",      "flow": "f0_5"},
//               {"at": 100, "action": "set_node_capacity", "node": "r0_S0",
//                "capacity": 450000},
//               {"at": 120, "action": "set_class_max",     "class": "r0_c0",
//                "max": 800} ]
//     // events apply before the given 1-based iteration; only the lrgp
//     // optimizer supports them.  They load as scenario::DynamicOps,
//     // names resolved against the built workload, and replay through
//     // scenario::replay with one tick per iteration.
// }
#pragma once

#include <string>
#include <vector>

#include "io/json.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/analysis.hpp"

namespace lrgp::exp {

/// The outcome of one experiment run.
struct ExperimentResult {
    std::string name;
    double final_utility = 0.0;
    std::size_t converged_at = 0;  ///< 0 when the criterion never fired
    metrics::TimeSeries utility_trace;
    model::AllocationSummary summary;
    double wall_seconds = 0.0;
};

/// Parses and runs one experiment.  Throws std::runtime_error on schema
/// problems and std::invalid_argument on semantic ones (unknown names,
/// rejected when the document loads, even for events past the last
/// iteration).
[[nodiscard]] ExperimentResult run_experiment(const io::JsonValue& config);
[[nodiscard]] ExperimentResult run_experiment_string(const std::string& config_text);

/// Serializes a result (summary + trace) as JSON for downstream tooling.
[[nodiscard]] io::JsonValue result_to_json(const ExperimentResult& result,
                                           bool include_trace = true);

}  // namespace lrgp::exp
