// Pre-resolved instrument bundles for the LRGP engines.
//
// Engines resolve their named metrics once, at attach time, into one of
// these structs of raw pointers; the per-iteration hot path then touches
// plain atomics without any name lookups.  All metric names are
// documented in docs/observability.md.
#pragma once

#include <vector>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace lrgp::obs {

/// Instruments shared by LrgpOptimizer and ParallelLrgpEngine.
/// All pointers live in (and are owned by) the Registry.
struct SolverInstruments {
    Counter* iterations = nullptr;          ///< lrgp_iterations_total
    Counter* rate_solves = nullptr;         ///< lrgp_rate_solves_total
    Counter* admissions = nullptr;          ///< lrgp_admissions_total (consumer-slots granted)
    Counter* node_price_moves = nullptr;    ///< lrgp_node_price_moves_total
    Counter* link_price_moves = nullptr;    ///< lrgp_link_price_moves_total
    Counter* convergence_resets = nullptr;  ///< lrgp_convergence_resets_total
    Gauge* utility = nullptr;               ///< lrgp_utility
    Gauge* admitted_consumers = nullptr;    ///< lrgp_admitted_consumers
    Histogram* iter_seconds = nullptr;      ///< lrgp_iteration_seconds
    Histogram* phase_dirty = nullptr;       ///< lrgp_phase_seconds{phase="dirty"} (incremental)
    Histogram* phase_rate = nullptr;        ///< lrgp_phase_seconds{phase="rate"}
    Histogram* phase_node = nullptr;        ///< lrgp_phase_seconds{phase="node"}
    Histogram* phase_link = nullptr;        ///< lrgp_phase_seconds{phase="link"}
    Histogram* phase_reduce = nullptr;      ///< lrgp_phase_seconds{phase="reduce"}

    /// Registers/looks up every solver metric in `registry`.
    static SolverInstruments resolve(Registry& registry);
};

/// TaskPool fan-out statistics (ParallelLrgpEngine wiring).
struct PoolInstruments {
    Counter* jobs = nullptr;            ///< lrgp_pool_jobs_total (parallelFor calls)
    Counter* chunks = nullptr;          ///< lrgp_pool_chunks_total (chunks executed)
    Histogram* fanout = nullptr;        ///< lrgp_pool_fanout_chunks (chunks queued per job)

    static PoolInstruments resolve(Registry& registry);
};

/// Distributed-protocol instruments (DistLrgp).
struct DistInstruments {
    Counter* sent_rate = nullptr;        ///< dist_messages_sent_total{kind="rate"}
    Counter* sent_node_report = nullptr; ///< dist_messages_sent_total{kind="node_report"}
    Counter* sent_link_report = nullptr; ///< dist_messages_sent_total{kind="link_report"}
    Counter* delivered = nullptr;        ///< dist_messages_delivered_total
    Counter* dropped_loss = nullptr;     ///< dist_messages_dropped_total{cause="loss"}
    Counter* dropped_fault = nullptr;    ///< dist_messages_dropped_total{cause="fault"}
    Counter* suspicions = nullptr;       ///< dist_suspicions_total
    Counter* reannouncements = nullptr;  ///< dist_reannouncements_total
    Counter* crashes = nullptr;          ///< dist_crashes_total
    Counter* restarts = nullptr;         ///< dist_restarts_total
    Counter* rounds = nullptr;           ///< dist_rounds_completed_total
    Gauge* utility = nullptr;            ///< dist_utility

    static DistInstruments resolve(Registry& registry);
};

/// Message-level dataplane instruments (dataplane::Dataplane).
struct DataplaneInstruments {
    Counter* emitted = nullptr;       ///< dataplane_messages_emitted_total
    Counter* shaped = nullptr;        ///< dataplane_messages_shaped_total (token-bucket policer)
    Counter* delivered = nullptr;     ///< dataplane_messages_delivered_total (per class copy)
    Counter* dropped_node = nullptr;  ///< dataplane_messages_dropped_total{where="node"}
    Counter* dropped_link = nullptr;  ///< dataplane_messages_dropped_total{where="link"}
    Counter* enactments = nullptr;    ///< dataplane_enactments_total
    Gauge* planned_utility = nullptr;   ///< dataplane_planned_utility
    Gauge* achieved_utility = nullptr;  ///< dataplane_achieved_utility
    Histogram* latency = nullptr;       ///< dataplane_delivery_latency_seconds

    static DataplaneInstruments resolve(Registry& registry);
};

/// Batched fastpath dataplane instruments (fastpath::Fastpath).
/// Counters are exported as deltas at sampler instants and the
/// histograms fill from the serial merge phase, so the Prometheus text
/// is byte-stable across worker counts (golden-tested).
struct FastpathInstruments {
    Counter* quanta = nullptr;        ///< lrgp_fastpath_quanta_total
    Counter* batches = nullptr;       ///< lrgp_fastpath_batches_total
    Counter* emitted = nullptr;       ///< lrgp_fastpath_messages_emitted_total
    Counter* shaped = nullptr;        ///< lrgp_fastpath_messages_shaped_total
    Counter* delivered = nullptr;     ///< lrgp_fastpath_messages_delivered_total
    Counter* dropped_node = nullptr;  ///< lrgp_fastpath_messages_dropped_total{where="node"}
    Counter* dropped_link = nullptr;  ///< lrgp_fastpath_messages_dropped_total{where="link"}
    Counter* enactments = nullptr;    ///< lrgp_fastpath_enactments_total
    Gauge* workers = nullptr;         ///< lrgp_fastpath_workers
    Gauge* planned_utility = nullptr;   ///< lrgp_fastpath_planned_utility
    Gauge* achieved_utility = nullptr;  ///< lrgp_fastpath_achieved_utility
    Histogram* batch_fill = nullptr;    ///< lrgp_fastpath_batch_fill_messages
    Histogram* latency = nullptr;       ///< lrgp_fastpath_delivery_latency_seconds

    static FastpathInstruments resolve(Registry& registry);
};

/// Dirty-set bookkeeping of ParallelLrgpEngine (the "incremental"
/// engine).  Counters, not gauges: per-iteration dirty-set sizes are the
/// deltas, and the totals divide by lrgp_iterations_total for averages.
struct IncrementalInstruments {
    Counter* dirty_flows = nullptr;     ///< lrgp_inc_dirty_flows_total (rate solves re-run)
    Counter* skipped_solves = nullptr;  ///< lrgp_inc_skipped_solves_total (active flows skipped)
    Counter* dirty_nodes = nullptr;     ///< lrgp_inc_dirty_nodes_total (nodes re-admitted)
    Counter* node_cache_hits = nullptr; ///< lrgp_inc_node_cache_hits_total (nodes fully skipped)
    Counter* dirty_links = nullptr;     ///< lrgp_inc_dirty_links_total (link usages recomputed)
    Counter* utility_cache_hits = nullptr; ///< lrgp_inc_utility_cache_hits_total (Eq. 1 sum reused)

    static IncrementalInstruments resolve(Registry& registry);
};

/// Sharded-engine instruments (shard::ShardedLrgpEngine): partition
/// shape, lockstep/gated progress, and the boundary-price reconciler.
struct ShardInstruments {
    Counter* steps = nullptr;              ///< lrgp_shard_steps_total (merged super-steps)
    Counter* member_iterations = nullptr;  ///< lrgp_shard_member_iterations_total
    Counter* reconciles = nullptr;         ///< lrgp_shard_reconciles_total
    Counter* price_exchanges = nullptr;    ///< lrgp_shard_price_exchanges_total
    Counter* budget_updates = nullptr;     ///< lrgp_shard_budget_updates_total
    Counter* wakeups = nullptr;            ///< lrgp_shard_wakeups_total
    Gauge* shard_count = nullptr;          ///< lrgp_shard_count
    Gauge* boundary_nodes = nullptr;       ///< lrgp_shard_boundary_nodes
    Gauge* boundary_links = nullptr;       ///< lrgp_shard_boundary_links
    Gauge* budget_moved = nullptr;         ///< lrgp_shard_budget_moved_units
    Histogram* reconcile_seconds = nullptr;  ///< lrgp_shard_reconcile_seconds
    /// lrgp_shard_iterations_total{shard="0".."K-1"}: per-shard member
    /// iterations, sized at resolve time from the engine's shard count.
    std::vector<Counter*> iterations_by_shard;

    static ShardInstruments resolve(Registry& registry, int shards);
};

/// Live asynchronous shard-agent runtime instruments
/// (runtime::AsyncShardRuntime).  Counter totals are exported by the
/// driver at the end of every runFor call; the histograms fill live
/// from the agent threads (relaxed atomics).  Histogram values are
/// runtime-clock seconds / inbox depths — deterministic quantities in
/// virtual-time mode, so the Prometheus export stays golden-testable.
struct RuntimeInstruments {
    Counter* digests_sent = nullptr;      ///< lrgp_runtime_digests_sent_total
    Counter* digests_received = nullptr;  ///< lrgp_runtime_digests_received_total
    Counter* rejected_stale = nullptr;    ///< lrgp_runtime_digests_rejected_stale_total
    Counter* dropped_fault = nullptr;     ///< lrgp_runtime_messages_dropped_total{cause="fault"}
    Counter* dropped_backpressure = nullptr;  ///< ...{cause="backpressure"}
    Counter* send_failures = nullptr;     ///< lrgp_runtime_send_failures_total
    Counter* retries = nullptr;           ///< lrgp_runtime_retries_total
    Counter* suspicions = nullptr;        ///< lrgp_runtime_suspicions_total
    Counter* recoveries = nullptr;        ///< lrgp_runtime_recoveries_total
    Counter* crashes = nullptr;           ///< lrgp_runtime_crashes_total
    Counter* restarts = nullptr;          ///< lrgp_runtime_restarts_total
    Counter* snapshots = nullptr;         ///< lrgp_runtime_snapshots_total
    Counter* snapshot_restores = nullptr; ///< lrgp_runtime_snapshot_restores_total
    Counter* budget_updates = nullptr;    ///< lrgp_runtime_budget_updates_total
    Counter* degradations = nullptr;      ///< lrgp_runtime_degradations_total
    Gauge* agents = nullptr;              ///< lrgp_runtime_agents
    Gauge* utility = nullptr;             ///< lrgp_runtime_utility
    Histogram* digest_age = nullptr;      ///< lrgp_runtime_digest_age_seconds
    Histogram* queue_depth = nullptr;     ///< lrgp_runtime_queue_depth

    static RuntimeInstruments resolve(Registry& registry);
};

/// Scenario-replay instruments (scenario::run_scenario): the shape of
/// the replayed cell and how well the engine tracked it.  Every value
/// derives from the deterministic replay alone, so the Prometheus
/// export is golden-testable byte-exact.
struct ScenarioInstruments {
    Counter* ops_applied = nullptr;   ///< lrgp_scenario_ops_applied_total
    Counter* ticks = nullptr;         ///< lrgp_scenario_ticks_total (replay iterations)
    Gauge* flows = nullptr;           ///< lrgp_scenario_flows
    Gauge* classes = nullptr;         ///< lrgp_scenario_classes
    Gauge* nodes = nullptr;           ///< lrgp_scenario_nodes
    Gauge* links = nullptr;           ///< lrgp_scenario_links
    Gauge* schedule_ops = nullptr;    ///< lrgp_scenario_schedule_ops
    Gauge* final_utility = nullptr;   ///< lrgp_scenario_final_utility
    Gauge* best_known_utility = nullptr;  ///< lrgp_scenario_best_known_utility
    Gauge* utility_vs_best = nullptr;     ///< lrgp_scenario_utility_vs_best
    Gauge* drop_rate = nullptr;           ///< lrgp_scenario_drop_rate (dataplane runs)
    Gauge* achieved_vs_planned = nullptr; ///< lrgp_scenario_achieved_vs_planned

    static ScenarioInstruments resolve(Registry& registry);
};

/// Allocator-level instruments, shared by every engine that drives the
/// greedy/rate allocators (serial, parallel, distributed).
struct AllocatorInstruments {
    Counter* greedy_allocations = nullptr;   ///< greedy_allocations_total (allocate calls)
    Counter* greedy_candidates = nullptr;    ///< greedy_candidates_ranked_total
    Counter* greedy_admitted = nullptr;      ///< greedy_consumers_admitted_total
    Counter* rate_closed_form = nullptr;     ///< rate_solves_by_method_total{method="closed_form"}
    Counter* rate_numeric = nullptr;         ///< rate_solves_by_method_total{method="numeric"}
    Counter* rate_bound = nullptr;           ///< rate_solves_by_method_total{method="bound"}

    static AllocatorInstruments resolve(Registry& registry);
};

}  // namespace lrgp::obs
