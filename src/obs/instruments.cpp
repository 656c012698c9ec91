#include "obs/instruments.hpp"

namespace lrgp::obs {

SolverInstruments SolverInstruments::resolve(Registry& registry) {
    SolverInstruments instruments;
    instruments.iterations =
        &registry.counter("lrgp_iterations_total", "LRGP iterations completed");
    instruments.rate_solves =
        &registry.counter("lrgp_rate_solves_total", "Per-flow rate subproblems solved (Alg. 1)");
    instruments.admissions = &registry.counter(
        "lrgp_admissions_total", "Consumer slots granted by the greedy allocator (Alg. 2)");
    instruments.node_price_moves =
        &registry.counter("lrgp_node_price_moves_total", "Node price updates that changed the price");
    instruments.link_price_moves =
        &registry.counter("lrgp_link_price_moves_total", "Link price updates that changed the price");
    instruments.convergence_resets = &registry.counter(
        "lrgp_convergence_resets_total", "Convergence detector restarts after workload changes");
    instruments.utility = &registry.gauge("lrgp_utility", "Eq. 1 utility after the last iteration");
    instruments.admitted_consumers = &registry.gauge(
        "lrgp_admitted_consumers", "Total admitted consumers after the last iteration");
    instruments.iter_seconds = &registry.histogram(
        "lrgp_iteration_seconds", default_time_buckets(), "Wall time per LRGP iteration");
    const std::string phase_help = "Wall time per iteration phase";
    instruments.phase_dirty = &registry.histogram("lrgp_phase_seconds", default_time_buckets(),
                                                  phase_help, {{"phase", "dirty"}});
    instruments.phase_rate = &registry.histogram("lrgp_phase_seconds", default_time_buckets(),
                                                 phase_help, {{"phase", "rate"}});
    instruments.phase_node = &registry.histogram("lrgp_phase_seconds", default_time_buckets(),
                                                 phase_help, {{"phase", "node"}});
    instruments.phase_link = &registry.histogram("lrgp_phase_seconds", default_time_buckets(),
                                                 phase_help, {{"phase", "link"}});
    instruments.phase_reduce = &registry.histogram("lrgp_phase_seconds", default_time_buckets(),
                                                   phase_help, {{"phase", "reduce"}});
    return instruments;
}

PoolInstruments PoolInstruments::resolve(Registry& registry) {
    PoolInstruments instruments;
    instruments.jobs =
        &registry.counter("lrgp_pool_jobs_total", "parallelFor fork-join dispatches");
    instruments.chunks =
        &registry.counter("lrgp_pool_chunks_total", "Statically partitioned chunks executed");
    instruments.fanout = &registry.histogram(
        "lrgp_pool_fanout_chunks", {1, 2, 4, 8, 16, 32, 64, 128},
        "Chunks queued per dispatch (the pool's queue depth; static partitioning, no stealing)");
    return instruments;
}

DistInstruments DistInstruments::resolve(Registry& registry) {
    DistInstruments instruments;
    const std::string sent_help = "Protocol messages handed to the network";
    instruments.sent_rate =
        &registry.counter("dist_messages_sent_total", sent_help, {{"kind", "rate"}});
    instruments.sent_node_report =
        &registry.counter("dist_messages_sent_total", sent_help, {{"kind", "node_report"}});
    instruments.sent_link_report =
        &registry.counter("dist_messages_sent_total", sent_help, {{"kind", "link_report"}});
    instruments.delivered =
        &registry.counter("dist_messages_delivered_total", "Messages that reached their handler");
    const std::string drop_help = "Messages dropped in transit";
    instruments.dropped_loss =
        &registry.counter("dist_messages_dropped_total", drop_help, {{"cause", "loss"}});
    instruments.dropped_fault =
        &registry.counter("dist_messages_dropped_total", drop_help, {{"cause", "fault"}});
    instruments.suspicions = &registry.counter(
        "dist_suspicions_total", "Transitions of a peer into the suspected state");
    instruments.reannouncements = &registry.counter(
        "dist_reannouncements_total", "Backoff re-announcements sent to suspected resources");
    instruments.crashes = &registry.counter("dist_crashes_total", "Agent crash events injected");
    instruments.restarts = &registry.counter("dist_restarts_total", "Agent restarts completed");
    instruments.rounds =
        &registry.counter("dist_rounds_completed_total", "Synchronous rounds completed");
    instruments.utility =
        &registry.gauge("dist_utility", "Utility of the latest global snapshot");
    return instruments;
}

DataplaneInstruments DataplaneInstruments::resolve(Registry& registry) {
    DataplaneInstruments instruments;
    instruments.emitted = &registry.counter("dataplane_messages_emitted_total",
                                            "Messages emitted by traffic sources");
    instruments.shaped = &registry.counter(
        "dataplane_messages_shaped_total", "Messages policed away by the source token bucket");
    instruments.delivered = &registry.counter(
        "dataplane_messages_delivered_total", "Per-class message deliveries at consumer nodes");
    const std::string drop_help = "Messages dropped at a bounded server queue";
    instruments.dropped_node =
        &registry.counter("dataplane_messages_dropped_total", drop_help, {{"where", "node"}});
    instruments.dropped_link =
        &registry.counter("dataplane_messages_dropped_total", drop_help, {{"where", "link"}});
    instruments.enactments = &registry.counter("dataplane_enactments_total",
                                               "Allocations pushed into the dataplane");
    instruments.planned_utility = &registry.gauge(
        "dataplane_planned_utility", "Optimizer-planned utility at the last sample");
    instruments.achieved_utility = &registry.gauge(
        "dataplane_achieved_utility", "Measured utility over the last sample window");
    instruments.latency = &registry.histogram(
        "dataplane_delivery_latency_seconds", default_time_buckets(),
        "End-to-end latency from source emission to class delivery (simulated seconds)");
    return instruments;
}

FastpathInstruments FastpathInstruments::resolve(Registry& registry) {
    FastpathInstruments instruments;
    instruments.quanta =
        &registry.counter("lrgp_fastpath_quanta_total", "Fixed time quanta processed");
    instruments.batches = &registry.counter("lrgp_fastpath_batches_total",
                                            "Message batches pushed through the gate graph");
    instruments.emitted = &registry.counter("lrgp_fastpath_messages_emitted_total",
                                            "Messages emitted past the traffic scheduler");
    instruments.shaped = &registry.counter(
        "lrgp_fastpath_messages_shaped_total", "Messages the per-flow credit policer shaped away");
    instruments.delivered = &registry.counter(
        "lrgp_fastpath_messages_delivered_total", "Per-class message deliveries at node gates");
    const std::string drop_help = "Messages dropped at a full gate queue";
    instruments.dropped_node = &registry.counter("lrgp_fastpath_messages_dropped_total",
                                                 drop_help, {{"where", "node"}});
    instruments.dropped_link = &registry.counter("lrgp_fastpath_messages_dropped_total",
                                                 drop_help, {{"where", "link"}});
    instruments.enactments = &registry.counter("lrgp_fastpath_enactments_total",
                                               "Allocations pushed into the fastpath");
    instruments.workers =
        &registry.gauge("lrgp_fastpath_workers", "Worker threads serving the gate graph");
    instruments.planned_utility = &registry.gauge(
        "lrgp_fastpath_planned_utility", "Optimizer-planned utility at the last sample");
    instruments.achieved_utility = &registry.gauge(
        "lrgp_fastpath_achieved_utility", "Measured utility over the last sample window");
    instruments.batch_fill = &registry.histogram(
        "lrgp_fastpath_batch_fill_messages", {1, 2, 4, 8, 16, 32},
        "Messages per batch entering the gate graph (kBatchSize, 32, caps the fill)");
    instruments.latency = &registry.histogram(
        "lrgp_fastpath_delivery_latency_seconds", default_time_buckets(),
        "Estimated end-to-end latency per delivered cohort (simulated seconds)");
    return instruments;
}

IncrementalInstruments IncrementalInstruments::resolve(Registry& registry) {
    IncrementalInstruments instruments;
    instruments.dirty_flows = &registry.counter(
        "lrgp_inc_dirty_flows_total", "Flows whose Eq. 7 rate solve re-ran (dirty inputs)");
    instruments.skipped_solves = &registry.counter(
        "lrgp_inc_skipped_solves_total",
        "Active flows whose rate solve was skipped (clean inputs, or route prices that moved "
        "only toward the bound the flow is pinned at)");
    instruments.dirty_nodes = &registry.counter(
        "lrgp_inc_dirty_nodes_total", "Nodes that re-ran greedy admission (dirty incident state)");
    instruments.node_cache_hits = &registry.counter(
        "lrgp_inc_node_cache_hits_total",
        "Nodes skipped entirely: cached populations, usage and BC(b,t) reused");
    instruments.dirty_links = &registry.counter(
        "lrgp_inc_dirty_links_total", "Links whose usage sum was recomputed (dirty incident rates)");
    instruments.utility_cache_hits = &registry.counter(
        "lrgp_inc_utility_cache_hits_total",
        "Iterations that reused the cached Eq. 1 utility sum (no node re-ran)");
    return instruments;
}

ShardInstruments ShardInstruments::resolve(Registry& registry, int shards) {
    ShardInstruments instruments;
    instruments.steps = &registry.counter("lrgp_shard_steps_total",
                                          "Merged sharded-engine super-steps completed");
    instruments.member_iterations = &registry.counter(
        "lrgp_shard_member_iterations_total", "Member-engine iterations summed over shards");
    instruments.reconciles = &registry.counter(
        "lrgp_shard_reconciles_total", "Boundary-price reconciliation passes completed");
    instruments.price_exchanges = &registry.counter(
        "lrgp_shard_price_exchanges_total",
        "Boundary (resource, shard) price samples exchanged by the reconciler");
    instruments.budget_updates = &registry.counter(
        "lrgp_shard_budget_updates_total", "Per-shard capacity budget updates applied");
    instruments.wakeups = &registry.counter(
        "lrgp_shard_wakeups_total", "Converged shards resumed by a boundary budget change");
    instruments.shard_count = &registry.gauge("lrgp_shard_count", "Configured shard count K");
    instruments.boundary_nodes = &registry.gauge(
        "lrgp_shard_boundary_nodes", "Nodes shared by >= 2 shards after partitioning");
    instruments.boundary_links = &registry.gauge(
        "lrgp_shard_boundary_links", "Links shared by >= 2 shards after partitioning");
    instruments.budget_moved = &registry.gauge(
        "lrgp_shard_budget_moved_units", "Cumulative capacity units moved between shards");
    instruments.reconcile_seconds = &registry.histogram(
        "lrgp_shard_reconcile_seconds", default_time_buckets(),
        "Wall time per boundary-price reconciliation pass");
    const std::string iter_help = "Member-engine iterations by shard";
    instruments.iterations_by_shard.reserve(static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s)
        instruments.iterations_by_shard.push_back(&registry.counter(
            "lrgp_shard_iterations_total", iter_help, {{"shard", std::to_string(s)}}));
    return instruments;
}

RuntimeInstruments RuntimeInstruments::resolve(Registry& registry) {
    RuntimeInstruments instruments;
    instruments.digests_sent = &registry.counter("lrgp_runtime_digests_sent_total",
                                                 "Digests handed to the transport");
    instruments.digests_received = &registry.counter("lrgp_runtime_digests_received_total",
                                                     "Digests polled from agent inboxes");
    instruments.rejected_stale = &registry.counter(
        "lrgp_runtime_digests_rejected_stale_total",
        "Digests rejected on receipt: older than the staleness horizon, replayed or reordered");
    const std::string drop_help = "Messages lost in the transport";
    instruments.dropped_fault = &registry.counter("lrgp_runtime_messages_dropped_total",
                                                  drop_help, {{"cause", "fault"}});
    instruments.dropped_backpressure = &registry.counter(
        "lrgp_runtime_messages_dropped_total", drop_help, {{"cause", "backpressure"}});
    instruments.send_failures = &registry.counter(
        "lrgp_runtime_send_failures_total",
        "Sends rejected by a full per-peer in-flight window (backpressure)");
    instruments.retries = &registry.counter(
        "lrgp_runtime_retries_total",
        "Retried sends: backoff digests to suspected peers and backpressure resends");
    instruments.suspicions = &registry.counter(
        "lrgp_runtime_suspicions_total", "Transitions of a peer into the suspected state");
    instruments.recoveries = &registry.counter(
        "lrgp_runtime_recoveries_total", "Suspected peers heard from again (unsuspected)");
    instruments.crashes =
        &registry.counter("lrgp_runtime_crashes_total", "Agent crash events taken");
    instruments.restarts =
        &registry.counter("lrgp_runtime_restarts_total", "Agent restarts completed");
    instruments.snapshots = &registry.counter("lrgp_runtime_snapshots_total",
                                              "Engine snapshots captured (checkpoints)");
    instruments.snapshot_restores = &registry.counter(
        "lrgp_runtime_snapshot_restores_total", "Restarts that restored an engine snapshot");
    instruments.budget_updates = &registry.counter(
        "lrgp_runtime_budget_updates_total", "Boundary budget assignment slices applied");
    instruments.degradations = &registry.counter(
        "lrgp_runtime_degradations_total",
        "Boundary slices clamped to their floor while a sharing peer was suspected");
    instruments.agents = &registry.gauge("lrgp_runtime_agents", "Configured shard agents");
    instruments.utility =
        &registry.gauge("lrgp_runtime_utility", "Global utility at the last sample");
    instruments.digest_age = &registry.histogram(
        "lrgp_runtime_digest_age_seconds", {0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.6, 1.5},
        "Age (runtime-clock seconds) of accepted digests at receipt");
    instruments.queue_depth = &registry.histogram(
        "lrgp_runtime_queue_depth", {0, 1, 2, 4, 8, 16, 32, 64},
        "Inbox depth observed at each poll (before the drain)");
    return instruments;
}

ScenarioInstruments ScenarioInstruments::resolve(Registry& registry) {
    ScenarioInstruments instruments;
    instruments.ops_applied = &registry.counter("lrgp_scenario_ops_applied_total",
                                                "Dynamic ops replayed into the engine");
    instruments.ticks =
        &registry.counter("lrgp_scenario_ticks_total", "Replay iterations stepped");
    instruments.flows = &registry.gauge("lrgp_scenario_flows", "Flows in the scenario problem");
    instruments.classes =
        &registry.gauge("lrgp_scenario_classes", "Consumer classes in the scenario problem");
    instruments.nodes = &registry.gauge("lrgp_scenario_nodes", "Nodes in the scenario problem");
    instruments.links = &registry.gauge("lrgp_scenario_links", "Links in the scenario problem");
    instruments.schedule_ops =
        &registry.gauge("lrgp_scenario_schedule_ops", "Dynamic ops in the scenario schedule");
    instruments.final_utility = &registry.gauge(
        "lrgp_scenario_final_utility", "Utility after the post-replay convergence solve");
    instruments.best_known_utility = &registry.gauge(
        "lrgp_scenario_best_known_utility", "Fresh serial solve of the end-state problem");
    instruments.utility_vs_best =
        &registry.gauge("lrgp_scenario_utility_vs_best", "final_utility / best_known_utility");
    instruments.drop_rate = &registry.gauge(
        "lrgp_scenario_drop_rate", "Dataplane drop rate over the replay (dataplane runs only)");
    instruments.achieved_vs_planned =
        &registry.gauge("lrgp_scenario_achieved_vs_planned",
                        "Trailing achieved / planned dataplane utility (dataplane runs only)");
    return instruments;
}

AllocatorInstruments AllocatorInstruments::resolve(Registry& registry) {
    AllocatorInstruments instruments;
    instruments.greedy_allocations =
        &registry.counter("greedy_allocations_total", "Greedy node allocations run (Alg. 2)");
    instruments.greedy_candidates = &registry.counter(
        "greedy_candidates_ranked_total", "Benefit-cost candidates ranked across allocations");
    instruments.greedy_admitted = &registry.counter(
        "greedy_consumers_admitted_total", "Consumer slots granted across allocations");
    const std::string method_help = "Rate solves by solution path";
    instruments.rate_closed_form = &registry.counter("rate_solves_by_method_total", method_help,
                                                     {{"method", "closed_form"}});
    instruments.rate_numeric =
        &registry.counter("rate_solves_by_method_total", method_help, {{"method", "numeric"}});
    instruments.rate_bound =
        &registry.counter("rate_solves_by_method_total", method_help, {{"method", "bound"}});
    return instruments;
}

}  // namespace lrgp::obs
