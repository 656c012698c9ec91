// Compiled + parallel LRGP iteration engine.
//
// A drop-in alternative to LrgpOptimizer that runs the same three-phase
// iteration over the CompiledProblem flat arrays, with each phase fanned
// out across a reusable TaskPool:
//
//   phase 1  rates        one task slice per flow   (Algorithm 1)
//   phase 2  populations  one task slice per node   (Algorithm 2 + Eq. 12)
//   phase 3  link prices  one task slice per link   (Eq. 13)
//
// The phases are embarrassingly parallel within themselves — rates read
// only last iteration's populations and prices, node allocations touch
// disjoint class sets (a class attaches to exactly one node), and link
// prices touch disjoint links — so the only synchronization is the
// fork-join barrier between phases.
//
// Determinism contract: the engine produces *bitwise-identical* utility,
// rate, population and price trajectories to LrgpOptimizer on the same
// problem, for any thread count.  Every floating-point reduction either
// happens privately per entity (in the serial optimizer's accumulation
// order over the CSR spans) or serially in entity-id order (the Eq. 1
// utility sum).  Scratch buffers (benefit-cost ranking, each node's
// stored order, Eq. 7 terms, per-class utility terms) are preallocated
// once and reused, so the steady-state iteration performs no heap
// allocation beyond the IterationRecord snapshot that mirrors the serial
// optimizer's API.
//
// Each phase has one loop, and it skips the entities whose inputs are
// bitwise-unchanged since the last iteration (dirty-set tracking):
//
//   * a flow re-solves Eq. 7 only if one of its own populations, a node
//     price on its route, or a link price on its route moved — except
//     that a fall does not dirty a flow whose last solve ended at r_max
//     through a bound test, nor a rise one that ended at r_min (pinned
//     flows, see solveFlow);
//   * a node re-ranks and re-admits only if an incident flow's rate
//     moved or a dynamic op touched it (a capacity change included);
//   * a link re-sums usage only if an incident flow's rate moved;
//   * the Eq. 1 utility sum is reused when no node re-ran.
//
// When everything is dirty (the first iteration, or after a warm start
// or a restore) each loop visits every entity.  Price controllers are
// stateful (adaptive gamma), so their updates always run — fed from
// cached (BC(b,t), used_b) and usage values when the producing phase was
// skipped — and publish which way each price moved, which seeds the
// next iteration's dirty flows.  Skipping is a pure evaluation-order
// optimization: every skipped computation is a deterministic function of
// inputs that are bitwise-unchanged, or, for a pinned flow, a bound test
// that is monotone in every price on the route and so still passes, so
// the trajectory stays bitwise-identical to the serial optimizer (see
// docs/algorithm.md for the invalidation rules and the full argument).
// Dynamic workload changes widen the dirty sets conservatively.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lrgp/compiled_problem.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/snapshot.hpp"
#include "lrgp/task_pool.hpp"

namespace lrgp::core {

/// Engine-only knobs; LrgpOptions keeps its serial-optimizer semantics.
struct EngineConfig {
    /// Worker threads including the caller; 1 = compiled but serial,
    /// 0 = std::thread::hardware_concurrency().
    int threads = 1;
    /// Accumulate per-phase wall time (a few steady_clock reads per
    /// iteration; off by default to keep the hot path undisturbed).
    bool collect_phase_times = false;
    /// Ignored: dirty-set tracking is always on.  Only perfbench still
    /// sets it; ROADMAP item 9 deletes it with that use.
    bool incremental = false;
};

/// Cumulative per-phase wall time in nanoseconds (collect_phase_times).
struct PhaseTimes {
    std::uint64_t dirty_ns = 0;   ///< serial dirty-set passes before and after phase 1
    std::uint64_t rate_ns = 0;    ///< phase 1: per-flow rate subproblems
    std::uint64_t node_ns = 0;    ///< phase 2: greedy allocation + node prices
    std::uint64_t link_ns = 0;    ///< phase 3: link usage + prices
    std::uint64_t reduce_ns = 0;  ///< serial epilogue: utility sum + record
    std::uint64_t iterations = 0;
};

/// Cumulative dirty-set bookkeeping, maintained whether or not
/// observability is attached (the lrgp_inc_* counters mirror these when
/// it is).  All counts are totals since construction.
struct IncrementalStats {
    std::uint64_t dirty_flows = 0;         ///< rate solves re-run
    std::uint64_t skipped_solves = 0;      ///< active flows skipped in phase 1 (clean or pinned)
    std::uint64_t dirty_nodes = 0;         ///< nodes that re-ran admission
    std::uint64_t node_cache_hits = 0;     ///< nodes fully skipped
    /// Always 0: the engine keeps no rank cache.  Only perfbench reads
    /// it; ROADMAP item 9 deletes it with that use.
    std::uint64_t rank_cache_hits = 0;
    std::uint64_t dirty_links = 0;         ///< link usage sums recomputed
    std::uint64_t utility_cache_hits = 0;  ///< iterations reusing the cached Eq. 1 sum
};

class ParallelLrgpEngine : public Engine {
public:
    explicit ParallelLrgpEngine(model::ProblemSpec spec, LrgpOptions options = {},
                                EngineConfig config = {});
    ~ParallelLrgpEngine() override;

    [[nodiscard]] const char* name() const noexcept override;

    /// Runs one LRGP iteration and returns its record.
    const IterationRecord& step() override;

    /// Runs exactly `iterations` iterations; returns the final record.
    const IterationRecord& run(int iterations) override;

    /// Runs until the convergence criterion fires or `max_iterations` is
    /// reached.  Returns the 1-based iteration of convergence, or nullopt.
    std::optional<int> runUntilConverged(int max_iterations) override;

    // -- dynamic workload changes (same contracts as LrgpOptimizer) ------
    void removeFlow(model::FlowId flow) override;
    void restoreFlow(model::FlowId flow) override;
    void setNodeCapacity(model::NodeId node, double capacity) override;
    void setLinkCapacity(model::LinkId link, double capacity) override;
    void setClassMaxConsumers(model::ClassId cls, int max_consumers) override;
    void warmStart(const PriceVector& prices,
                   const std::vector<int>* populations = nullptr) override;

    // -- observability ----------------------------------------------------

    /// Same contract as LrgpOptimizer::attachObservability, plus TaskPool
    /// fan-out counters.  Metric mutation from worker threads uses relaxed
    /// atomics, so attaching does not perturb the determinism contract.
    void attachObservability(obs::Registry* registry,
                             obs::IterationTracer* tracer = nullptr) override;

    // -- observers --------------------------------------------------------
    [[nodiscard]] const model::ProblemSpec& problem() const noexcept override { return spec_; }
    [[nodiscard]] const model::Allocation& allocation() const noexcept override {
        return allocation_;
    }
    [[nodiscard]] const PriceVector& prices() const noexcept override { return prices_; }
    [[nodiscard]] double currentUtility() const override;
    [[nodiscard]] int iterationsRun() const noexcept override { return iteration_; }
    [[nodiscard]] const metrics::TimeSeries& utilityTrace() const noexcept override {
        return trace_;
    }
    [[nodiscard]] const ConvergenceDetector& convergence() const noexcept override {
        return detector_;
    }
    [[nodiscard]] double nodeGamma(model::NodeId node) const override;
    [[nodiscard]] int threadCount() const noexcept;
    [[nodiscard]] const PhaseTimes& phaseTimes() const noexcept { return phase_times_; }

    [[nodiscard]] const CompiledProblem& compiled() const noexcept { return compiled_; }

    /// Cumulative dirty-set counts.
    [[nodiscard]] IncrementalStats incrementalStats() const noexcept { return stats_; }

    // -- warm-state snapshots (crash recovery) ---------------------------

    /// Captures the engine's warm state (allocation, prices, controller
    /// and detector state, dynamic spec state).  See lrgp/snapshot.hpp.
    [[nodiscard]] EngineSnapshot snapshot() const;

    /// Restores a snapshot taken from an engine over the same problem
    /// shape (same entity counts; options must match for bitwise resume).
    /// After restore() the engine continues the snapshotted trajectory
    /// bitwise-identically to an uninterrupted run: the first iteration
    /// is a full one (everything is marked dirty), but every recomputed
    /// value equals the one the caches held.  The utility trace is NOT
    /// restored — it restarts from the restore point.  Throws
    /// std::invalid_argument on a shape mismatch.
    void restore(const EngineSnapshot& snapshot);

private:
    struct Cand;
    struct NodeScratch;

    /// Which way a price moved in its last update.
    enum class PriceMove : std::uint8_t { kNone, kRose, kFell };
    /// The bound a flow's last rate solve returned through a bound test
    /// (solveFlow).  That test is monotone in every price on the route,
    /// so a fall cannot move a flow pinned at hi, nor a rise one pinned
    /// at lo, while its populations stay fixed.
    enum class RatePin : std::uint8_t { kNone, kHi, kLo };

    /// F_{b,i} * r_i usage of the active flows at node b.
    [[nodiscard]] double nodeBaseUsage(std::size_t b) const;
    /// Writes the sorted benefit-cost candidates of node b to the
    /// scratch buffer and returns their count.  Classes left unranked
    /// (inactive flow, zero ceiling, zero unit cost) get population 0
    /// and Eq. 1 term 0.0.  The node's slots are visited in its stored
    /// order; the candidates are sorted only if that order no longer
    /// holds, and then the new order is stored, unranked slots last.
    std::uint32_t buildNodeCands(std::size_t b, NodeScratch& scratch);
    /// Runs the batched greedy admission over an already-sorted candidate
    /// range, writing populations, Eq. 1 terms and the node's cached
    /// (used_b, BC(b,t)) pair.
    void admitNode(std::size_t b, const Cand* cands, std::uint32_t count, double base_usage);

    void ratePhase(std::size_t begin, std::size_t end);
    void nodePhase(std::size_t begin, std::size_t end, NodeScratch& scratch);
    void linkPhase(std::size_t begin, std::size_t end);
    /// Solves flow f's Eq. 7 and records its pin.
    void solveFlow(std::size_t f);
    /// Flags flow f's populations as moved (phase 2, any chunk).
    void markPopMoved(std::uint32_t f) {
        std::atomic_ref<std::uint8_t> flag(pop_moved_[f]);
        if (flag.load(std::memory_order_relaxed) == 0) flag.store(1, std::memory_order_relaxed);
    }
    /// Seeds flow_dirty_ from last iteration's population flags and price
    /// moves, resolved against each flow's pin.
    void seedDirtyFlows();
    /// Which way a price update went, compared bitwise.
    [[nodiscard]] static PriceMove priceMove(double before, double after);
    /// Turns phase-1 rate moves into node/link dirty bits.
    void propagateRateMoves();
    /// Conservative widening for dynamic ops touching `flow`.
    void dirtyFlowCascade(model::FlowId flow);
    /// warmStart/restore widening: every flow, node and link is dirty.
    void markAllDirty();
    void noteConvergenceReset();

    model::ProblemSpec spec_;
    LrgpOptions options_;
    CompiledProblem compiled_;
    std::unique_ptr<TaskPool> pool_;
    bool collect_phase_times_ = false;

    // Observability (all null until attachObservability).
    obs::SolverInstruments instr_;
    obs::AllocatorInstruments alloc_instr_;
    obs::PoolInstruments pool_instr_;
    obs::IncrementalInstruments inc_instr_;
    bool obs_attached_ = false;
    obs::IterationTracer* tracer_ = nullptr;

    std::vector<NodePriceController> node_prices_;
    std::vector<LinkPriceController> link_prices_;

    model::Allocation allocation_;
    PriceVector prices_;
    int iteration_ = 0;
    IterationRecord last_record_;
    metrics::TimeSeries trace_;
    ConvergenceDetector detector_;
    PhaseTimes phase_times_;

    // -- preallocated scratch, reused every iteration ---------------------
    /// Eq. 7 terms per flow; utilities bound at compile time, only the
    /// populations are rewritten (generic-solver path).
    std::vector<std::vector<utility::WeightedUtility>> flow_terms_;
    /// Per-flow transcendental of the fresh rate: log1p(r), r^k or
    /// log1p(r/s) depending on the flow's family; fuels the per-class
    /// U_j(r) evaluations in phase 2 at one libm call per flow.
    std::vector<double> flow_value_trans_;
    /// Per-class n_j * U_j(r_i) term of Eq. 1, written in phase 2 and
    /// summed serially in class order afterwards.
    std::vector<double> class_utility_term_;
    /// Per-worker greedy ranking buffers.
    std::vector<std::unique_ptr<NodeScratch>> node_scratch_;
    /// Each node's starting order for its next ranking: local slots into
    /// its node-class span, the identity at first and the result of each
    /// sort after it, unranked slots last.  Every permutation of the
    /// slots sorts to the same ranking, so no op ever invalidates it.  A
    /// span holds distinct class ids, so a slot fits their width.  Phase
    /// 2 writes a node's order only from the chunk that owns the node.
    std::vector<std::uint32_t> rank_order_;

    // -- dirty-set tracking -----------------------------------------------
    // Write discipline (this is what keeps the phases race-free and the
    // trajectory bitwise-deterministic for any thread count): every array
    // is either written serially between the phase barriers (the seed /
    // propagate / clear steps in step() and the dynamic ops), or written
    // inside a phase strictly per-entity by the one chunk that owns the
    // entity.  The one exception is pop_moved_: node chunks share flows,
    // so phase 2 sets it through a relaxed atomic, only when clear, and
    // the set it ends up describing does not depend on the order of the
    // writes.  Phases read only bits that were last written before their
    // barrier, so TSan stays quiet.

    /// Dirty bits, consumed (and cleared) by the named phase.
    std::vector<std::uint8_t> flow_dirty_;  ///< phase 1 re-solves these
    std::vector<std::uint8_t> node_dirty_;  ///< phase 2 re-ranks and re-admits these
    std::vector<std::uint8_t> link_dirty_;  ///< phase 3 re-sums these
    /// Moves, produced by one iteration, seed the next.
    std::vector<std::uint8_t> rate_moved_;          ///< phase 1 -> node/link dirt
    std::vector<std::uint8_t> pop_moved_;           ///< phase 2 -> flow dirt, per flow
    std::vector<PriceMove> node_price_move_;        ///< phase 2 -> flow dirt (flows at node)
    std::vector<PriceMove> link_price_move_;        ///< phase 3 -> flow dirt (flows on link)
    /// Per-flow marks of a rise or a fall on the route, set and cleared
    /// by seedDirtyFlows.
    std::vector<std::uint8_t> price_rose_;
    std::vector<std::uint8_t> price_fell_;
    /// Each flow's pin from its last solve (phase 1, per flow).
    std::vector<RatePin> flow_pin_;
    /// Eq. 12 inputs of each node's last admission, fed to the price
    /// update when the node is clean.
    std::vector<double> node_used_;
    std::vector<std::optional<double>> node_unmet_bc_;
    /// Each link's last usage sum, fed to Eq. 13 when the link is clean.
    std::vector<double> link_usage_;
    double cached_utility_ = 0.0;  ///< the last Eq. 1 sum

    /// This iteration's dirty-set sizes, counted serially before the
    /// phase that consumes each set.
    std::size_t dirty_flows_now_ = 0;     ///< active dirty flows entering phase 1
    std::size_t skipped_solves_now_ = 0;  ///< active clean flows entering phase 1
    std::size_t dirty_nodes_now_ = 0;     ///< nodes re-admitting this iteration
    std::size_t dirty_links_now_ = 0;     ///< links re-summing usage
    IncrementalStats stats_;
};

}  // namespace lrgp::core
