// The synchronous LRGP iteration driver (Section 3).
//
// One iteration performs, in order:
//   1. rate allocation at every active flow source (Algorithm 1), using
//      the populations and prices published by the previous iteration;
//   2. greedy consumer allocation at every consumer-hosting node
//      (Algorithm 2, steps 1-2) with the fresh rates;
//   3. node price update (Algorithm 2, step 3 / Eq. 12);
//   4. link price update (Algorithm 3 / Eq. 13).
// The per-iteration utility trace drives the convergence criterion and
// the paper's figures.  Dynamic workload changes (a flow source leaving,
// Figure 3) are supported between iterations.
#pragma once

#include <optional>
#include <vector>

#include "lrgp/convergence.hpp"
#include "lrgp/engine.hpp"
#include "lrgp/greedy_allocator.hpp"
#include "lrgp/price_controllers.hpp"
#include "lrgp/prices.hpp"
#include "lrgp/rate_allocator.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "obs/instruments.hpp"

namespace lrgp::core {

/// Drives LRGP on a ProblemSpec.  Owns a copy of the problem so dynamic
/// changes (removeFlow, setNodeCapacity) stay local to this optimizer.
/// (LrgpOptions and IterationRecord live in lrgp/engine.hpp.)
class LrgpOptimizer : public Engine {
public:
    explicit LrgpOptimizer(model::ProblemSpec spec, LrgpOptions options = {});

    [[nodiscard]] const char* name() const noexcept override { return "serial"; }

    /// Runs one LRGP iteration and returns its record.
    const IterationRecord& step() override;

    /// Runs exactly `iterations` iterations; returns the final record.
    const IterationRecord& run(int iterations) override;

    /// Runs until the convergence criterion fires or `max_iterations` is
    /// reached.  Returns the 1-based iteration of convergence, or nullopt.
    std::optional<int> runUntilConverged(int max_iterations) override;

    // -- dynamic workload changes (applied before the next iteration) ----

    /// Models the flow's source leaving the system: the flow stops
    /// consuming resources and its classes are evicted.
    void removeFlow(model::FlowId flow) override;

    /// Brings a removed flow back (resumes at r_min, zero consumers).
    void restoreFlow(model::FlowId flow) override;

    void setNodeCapacity(model::NodeId node, double capacity) override;

    /// Shrinks/expands a link budget (Eq. 13's c_l).  The usage side of
    /// the price update is rate-derived, so only the controller target
    /// changes; the convergence detector restarts.
    void setLinkCapacity(model::LinkId link, double capacity) override;

    /// Consumers arriving at / leaving a class (changes n^max).  Takes
    /// effect on the next iteration; the convergence detector restarts.
    void setClassMaxConsumers(model::ClassId cls, int max_consumers) override;

    /// Warm start: seeds prices (and optionally populations) from a
    /// previous run so re-optimization after a small workload change
    /// starts near the old equilibrium instead of from scratch.  Sizes
    /// must match this problem; throws std::invalid_argument otherwise.
    void warmStart(const PriceVector& prices,
                   const std::vector<int>* populations = nullptr) override;

    // -- observability ----------------------------------------------------

    /// Attaches a metrics registry (and optionally a tracer) to this
    /// optimizer: iteration/phase timings, rate-solve and admission
    /// counters, price-move counts and the utility gauge are recorded on
    /// every subsequent step().  Pass nullptrs to detach (metric names in
    /// docs/observability.md).
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
    /// Current adaptive/fixed gamma at `node` (for the Figure 2 ablation).
    [[nodiscard]] double nodeGamma(model::NodeId node) const override;

private:
    void noteConvergenceReset();

    model::ProblemSpec spec_;
    LrgpOptions options_;
    RateAllocator rate_allocator_;
    GreedyConsumerAllocator greedy_allocator_;

    // Observability (all null until attachObservability): resolved once,
    // touched behind `obs_attached_` and null checks.
    obs::SolverInstruments instr_;
    obs::AllocatorInstruments alloc_instr_;
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
};

}  // namespace lrgp::core
