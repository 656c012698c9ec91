// Scenario runner: replays a ScenarioSpec's dynamic-op schedule against
// any engine of the zoo and reports how well it tracked the workload.
//
// replay() is the one loop that steps a synchronous engine through a
// DynamicOp schedule, optionally closing the loop through an enactment
// policy into a message-level dataplane.
//
// Engines ("serial" | "incremental" | "sharded") advance
// one LRGP iteration per tick of scenario time; each DynamicOp applies
// through the core::Engine interface just before the first tick at or
// after its timestamp.  The "async" engine drives an AsyncShardRuntime
// instead: the timeline is segmented at op times, each segment runs in
// deterministic virtual time, and the quiescent dynamic-op API applies
// the churn between segments (capacity ops are not supported there —
// they would race the budget handshakes; the catalog's churn cells use
// flow/population ops only).
//
// With `with_dataplane`, the run closes the loop: every tick's
// allocation is offered to an EnactmentController wired into a
// message-level Dataplane, and the report gains planned-vs-achieved
// trailing means plus the drop rate — the measurements behind the PR 4
// overdrive regression test.
//
// Every run ends with a convergence solve, and the report compares the
// final utility against the *best-known* utility: a fresh serial solve
// of the end-state problem (all ops applied statically).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lrgp/engine.hpp"
#include "metrics/recovery.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

namespace lrgp::core {
class EnactmentController;
}
namespace lrgp::dataplane {
class Dataplane;
}

namespace lrgp::scenario {

/// The plant side of a closed-loop replay.  Every iterate is noted as
/// the dataplane's planned allocation and offered to `enactor`, whose
/// callback enacts into `dataplane`.  Mirrored node-capacity ops are
/// multiplied by `capacity_scale`, the physical capacity per unit of
/// planned capacity (ScenarioSpec::physical_capacity_scale).
struct ReplayPlant {
    dataplane::Dataplane& dataplane;
    core::EnactmentController& enactor;
    double capacity_scale = 1.0;
};

/// Applies `op` through the core::Engine dynamic-op API.
void apply_to_engine(core::Engine& engine, const DynamicOp& op);

/// Replays `schedule` (sorted by time) against `engine` for `ticks`
/// ticks of `tick` schedule-time units.  Tick i = 1..ticks runs at
/// t = i * tick: it applies every op with time <= t not applied yet
/// (mirrored into the plant's dataplane when `plant` is given), steps
/// the engine, and with a plant offers the iterate to the enactor at t
/// and advances the dataplane to t.  Ops due after the last tick stay
/// unapplied.  Returns how many ops were applied.  Throws
/// std::invalid_argument when a plant meets a link-capacity op, which
/// the dataplane cannot mirror.
std::size_t replay(core::Engine& engine, const std::vector<DynamicOp>& schedule, double tick,
                   int ticks, const ReplayPlant* plant = nullptr);

struct RunnerOptions {
    /// Any name shard::make_engine accepts (serial | incremental |
    /// sharded), or async for the AsyncShardRuntime.
    std::string engine = "incremental";
    int shards = 4;    ///< sharded shard count / async agent count
    int threads = 1;   ///< incremental/sharded worker threads

    bool with_dataplane = false;

    core::LrgpOptions lrgp;
};

struct ScenarioRunReport {
    std::string engine;
    metrics::TimeSeries utility_trace;  ///< one sample per tick (or runtime sample)
    double sample_period = 0.05;

    double final_utility = 0.0;
    double best_known_utility = 0.0;
    double utility_vs_best = 0.0;  ///< final / best-known
    std::size_t ops_applied = 0;
    bool converged = false;
    int iterations = 0;

    bool has_recovery = false;
    metrics::RecoveryReport recovery;

    bool has_dataplane = false;
    double drop_rate = 0.0;
    double planned_mean = 0.0;   ///< trailing mean of the planned-utility trace
    double achieved_mean = 0.0;  ///< trailing mean of the achieved-utility trace
    double achieved_vs_planned = 0.0;

    /// Merged final allocation; empty for the async runtime (agents own
    /// their local subproblems and no global merge is published).
    model::Allocation final_allocation;
};

/// Replays `scenario` and reports.  Throws std::invalid_argument on an
/// unknown engine name, or when the async engine meets a capacity op or
/// the dataplane meets a link-capacity op (neither can be mirrored).
[[nodiscard]] ScenarioRunReport run_scenario(const ScenarioSpec& scenario,
                                             const RunnerOptions& options = {});

/// Fresh serial solve of the end-state problem (at most 4000
/// iterations): the yardstick every replayed run's final utility is
/// measured against.
[[nodiscard]] double best_known_utility(const ScenarioSpec& scenario,
                                        const core::LrgpOptions& options = {});

/// Fills the lrgp_scenario_* instrument bundle from a finished run.
/// Every exported value derives from the deterministic replay, so the
/// registry's Prometheus text is golden-testable byte-exact.
void export_observability(const ScenarioSpec& scenario, const ScenarioRunReport& report,
                          obs::Registry& registry);

}  // namespace lrgp::scenario
