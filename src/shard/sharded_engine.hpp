// Hierarchical sharded LRGP control plane (ROADMAP item 1).
//
// ShardedLrgpEngine partitions the overlay's flows (and their classes,
// incident nodes and links) into K shards and runs one incremental
// ParallelLrgpEngine per shard over its subproblem, fanned out on a
// TaskPool in the cluster-allocator style: per-shard solves run as
// independent tasks, then merge deterministically in shard-id order
// (TaskPool::forEachMergeOrdered).  Nodes/links touched by >= 2 shards
// are *boundary* resources: their capacity is split into per-shard
// budgets, and a periodic top-level reconciliation pass exchanges the
// shards' local prices for each boundary resource and moves budget
// toward the higher-priced (scarcer) side (shard/budget.hpp).
//
// Semantics:
//   * step()/run() advance every shard in lockstep; for K=1 the single
//     shard's subproblem reproduces the original spec exactly, no
//     boundary exists, and the trajectory is bitwise-identical to a
//     monolithic incremental ParallelLrgpEngine.
//   * runUntilConverged() gates converged shards: a shard whose local
//     detector fired stops stepping (and costing) until a reconcile
//     pass changes one of its budgets, and is not re-merged meanwhile
//     (its allocation and prices are those of its last merge).  The run is converged when every
//     shard's detector fired and the last reconcile pass moved no
//     budget above the hysteresis threshold; the remaining optimality
//     gap is bounded by the frozen boundary-budget split (measured
//     against the monolithic solver in test_sharded_engine, <= 1% on
//     the seeded sweep).  This per-shard convergence gating is
//     what makes shards pay off even on few cores: a slow-converging
//     region only keeps its own shard iterating, instead of dragging
//     per-iteration work across the whole overlay.
//   * Merged observers: allocation()/prices() scatter per-shard state
//     into global entity ids (boundary prices merge as the budget-
//     weighted mean of the incident shards' prices, in shard-id order);
//     the published utility is the shard-utility sum in shard-id order.
//
// All merges are deterministic for any thread count: tasks write only
// per-shard slots and the ordered merge runs serially in shard order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "lrgp/engine.hpp"
#include "lrgp/parallel_engine.hpp"
#include "lrgp/task_pool.hpp"
#include "obs/instruments.hpp"
#include "shard/partitioner.hpp"
#include "shard/subproblems.hpp"

namespace lrgp::shard {

struct ShardedConfig {
    int shards = 1;
    /// Top-level TaskPool threads; 0 = min(shards, hardware_concurrency).
    /// Member engines always run with threads = 1 (no nested pools).
    int threads = 0;
    /// Partitioner knobs (PartitionOptions; shards is taken from above).
    int refine_passes = 3;
    double balance_slack = 0.25;
};

/// Per-shard shape and progress, for the CLI summary and tests.
struct ShardSummary {
    int shard = 0;
    std::size_t flows = 0;
    std::size_t classes = 0;
    std::size_t nodes = 0;
    std::size_t links = 0;
    std::size_t boundary_nodes = 0;  ///< this shard's nodes shared with others
    std::size_t boundary_links = 0;
    int iterations = 0;              ///< member-engine iterations run
    bool converged = false;
};

/// Cumulative reconciler bookkeeping since construction.
struct ReconcileStats {
    std::uint64_t passes = 0;           ///< reconcile() invocations
    std::uint64_t price_exchanges = 0;  ///< boundary (resource, shard) prices gathered
    std::uint64_t budget_updates = 0;   ///< per-shard capacity updates applied
    std::uint64_t shard_wakeups = 0;    ///< converged shards resumed by a budget change
    double budget_moved = 0.0;          ///< capacity units transferred in total
};

class ShardedLrgpEngine : public core::Engine {
public:
    explicit ShardedLrgpEngine(model::ProblemSpec spec, core::LrgpOptions options = {},
                               ShardedConfig config = {});
    ~ShardedLrgpEngine() override;

    [[nodiscard]] const char* name() const noexcept override { return "sharded"; }

    const core::IterationRecord& step() override;
    const core::IterationRecord& run(int iterations) override;
    std::optional<int> runUntilConverged(int max_iterations) override;

    // -- dynamic workload changes (same contracts as LrgpOptimizer) ------
    void removeFlow(model::FlowId flow) override;
    void restoreFlow(model::FlowId flow) override;
    void setNodeCapacity(model::NodeId node, double capacity) override;
    void setLinkCapacity(model::LinkId link, double capacity) override;
    void setClassMaxConsumers(model::ClassId cls, int max_consumers) override;
    void warmStart(const core::PriceVector& prices,
                   const std::vector<int>* populations = nullptr) override;

    // -- observability ----------------------------------------------------

    /// Registers the lrgp_shard_* series (docs/observability.md) and
    /// shape gauges.  Member engines stay unattached so the monolithic
    /// lrgp_* series keep their one-engine semantics.
    void attachObservability(obs::Registry* registry,
                             obs::IterationTracer* tracer = nullptr) override;

    // -- observers --------------------------------------------------------
    [[nodiscard]] const model::ProblemSpec& problem() const noexcept override { return spec_; }
    [[nodiscard]] const model::Allocation& allocation() const noexcept override {
        return allocation_;
    }
    [[nodiscard]] const core::PriceVector& prices() const noexcept override { return prices_; }
    [[nodiscard]] double currentUtility() const override;
    [[nodiscard]] int iterationsRun() const noexcept override { return iteration_; }
    [[nodiscard]] const metrics::TimeSeries& utilityTrace() const noexcept override {
        return trace_;
    }
    [[nodiscard]] const core::ConvergenceDetector& convergence() const noexcept override {
        return detector_;
    }
    [[nodiscard]] double nodeGamma(model::NodeId node) const override;

    // -- shard-specific observers ----------------------------------------
    [[nodiscard]] int shardCount() const noexcept { return static_cast<int>(members_.size()); }
    [[nodiscard]] const Partition& partition() const noexcept { return partition_; }
    [[nodiscard]] const core::Engine& shardEngine(int shard) const;
    [[nodiscard]] int shardOfFlow(model::FlowId flow) const;
    [[nodiscard]] model::FlowId localFlowId(model::FlowId flow) const;
    [[nodiscard]] std::vector<ShardSummary> summaries() const;
    [[nodiscard]] const ReconcileStats& reconcileStats() const noexcept { return stats_; }
    [[nodiscard]] std::size_t boundaryNodeCount() const noexcept { return partition_.boundary_nodes; }
    [[nodiscard]] std::size_t boundaryLinkCount() const noexcept { return partition_.boundary_links; }
    /// Boundary nodes as a fraction of all nodes (the CLI summary line).
    [[nodiscard]] double boundaryNodeFraction() const noexcept;
    /// Runs one reconcile pass immediately; returns whether any budget
    /// moved (above the hysteresis threshold).
    bool reconcileNow();

private:
    struct Member {
        std::unique_ptr<core::Engine> engine;
        std::vector<std::uint32_t> flows;    ///< local -> global index
        std::vector<std::uint32_t> classes;
        std::vector<std::uint32_t> nodes;
        std::vector<std::uint32_t> links;
        std::vector<std::uint32_t> node_local;  ///< global -> local (npos absent)
        std::vector<std::uint32_t> link_local;
        /// (local, global) pairs of resources this shard alone owns;
        /// their merged price is a direct copy.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> own_nodes;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> own_links;
        double last_utility = 0.0;
        bool stepped = false;  ///< stepped in the current gated pass
        std::uint64_t obs_iterations = 0;  ///< iterations already exported
    };

    /// Wraps build_subproblems() member specs into engine-bearing
    /// Members (single-threaded incremental ParallelLrgpEngines).
    void buildMembers(std::vector<MemberSpec> specs);
    void mergeMember(std::size_t s);
    /// Budget-weighted mean of the incident shards' prices per boundary
    /// resource (interior prices are direct copies in mergeMember).
    void mergeBoundaryPrices();
    /// Record/trace/detector publication after a lockstep step or a
    /// gated round.
    void publishRecord();
    /// One reconcile pass over every boundary resource; sets `moved`.
    void reconcile(bool& moved);
    [[nodiscard]] bool allMembersConverged() const;
    [[nodiscard]] int maxMemberIterations() const;
    void exportIterationCounters();

    model::ProblemSpec spec_;  ///< global mirror; dynamic ops applied here too
    core::LrgpOptions options_;
    ShardedConfig config_;
    Partition partition_;
    std::vector<Member> members_;
    std::vector<int> shard_of_flow_;             ///< by global flow index
    std::vector<std::uint32_t> flow_local_;      ///< global -> local flow index
    std::vector<std::uint32_t> class_local_;     ///< global -> local class index
    std::vector<BoundaryBudget> boundary_node_budgets_;
    std::vector<BoundaryBudget> boundary_link_budgets_;
    /// Boundary entry index per global resource (kAbsent = interior).
    std::vector<std::uint32_t> node_boundary_index_;
    std::vector<std::uint32_t> link_boundary_index_;
    std::unique_ptr<core::TaskPool> pool_;

    model::Allocation allocation_;  ///< merged global allocation
    core::PriceVector prices_;      ///< merged global prices
    int iteration_ = 0;
    int steps_since_reconcile_ = 0;
    /// Current reconcile stepsize (kReconcileStep decayed after every
    /// pass that moved budget).
    double effective_step_ = 0.0;
    core::IterationRecord last_record_;
    metrics::TimeSeries trace_;
    core::ConvergenceDetector detector_;
    ReconcileStats stats_;

    obs::ShardInstruments instr_;
    bool obs_attached_ = false;
    obs::IterationTracer* tracer_ = nullptr;
};

/// Builds an engine by name: "serial" (LrgpOptimizer, the reference),
/// "incremental" (ParallelLrgpEngine) or "sharded" (this engine).
/// `threads` is ParallelLrgpEngine's worker count and the sharded
/// engine's pool size (0 = hardware concurrency; serial ignores it);
/// `shards` is read by "sharded" only.  Any other name throws
/// std::invalid_argument listing the accepted names.  It lives here, not
/// in src/lrgp, because src/shard is the lowest library that links all
/// three engines.
[[nodiscard]] std::unique_ptr<core::Engine> make_engine(std::string_view name,
                                                        model::ProblemSpec spec,
                                                        core::LrgpOptions options = {},
                                                        int threads = 1, int shards = 1);

}  // namespace lrgp::shard
