// The common engine interface over every LRGP iteration driver.
//
// LrgpOptimizer (serial reference), ParallelLrgpEngine (compiled /
// parallel / incremental) and shard::ShardedLrgpEngine all implement the
// same synchronous contract: step() advances one LRGP iteration, dynamic
// ops apply between iterations, and the observers expose the published
// allocation/price state.  The differential and property harnesses
// iterate over implementations through this interface, and the sharded
// engine composes per-shard member engines through it.  shard::make_engine
// builds each of them by name (it lives in src/shard, the lowest library
// that links all of them).
//
// LrgpOptions and IterationRecord live here (not in optimizer.hpp) so
// the interface does not depend on any concrete engine; optimizer.hpp
// re-exports them by inclusion, preserving existing includes.
#pragma once

#include <optional>
#include <vector>

#include "lrgp/convergence.hpp"
#include "lrgp/price_controllers.hpp"
#include "lrgp/prices.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "utility/rate_objective.hpp"

namespace lrgp::obs {
class Registry;
class IterationTracer;
}  // namespace lrgp::obs

namespace lrgp::core {

struct LrgpOptions {
    GammaPolicy gamma = AdaptiveGamma{};        ///< node price stepsize policy
    NodePriceRule node_price_rule = NodePriceRule::kBenefitCost;  ///< Eq. 12 vs ablation
    double link_gamma = 1e-5;                   ///< Eq. 13 stepsize
    utility::RateSolveOptions rate_solve;       ///< closed-form / numeric control
    double initial_node_price = 0.0;
    double initial_link_price = 0.0;
    ConvergenceOptions convergence;
};

/// A snapshot of the optimizer state after one iteration.
struct IterationRecord {
    int iteration = 0;              ///< 1-based iteration count
    double utility = 0.0;           ///< Eq. 1 evaluated on the new allocation
    model::Allocation allocation;   ///< rates and populations after the iteration
    PriceVector prices;             ///< prices after the iteration
};

/// Abstract LRGP iteration driver.  Implementations own a copy of the
/// problem, so dynamic changes stay local to one engine instance, and
/// every concrete engine keeps the bitwise-determinism contract of the
/// serial optimizer (the sharded engine keeps it exactly for K=1 and
/// per shard otherwise; see docs/algorithm.md).
class Engine {
public:
    virtual ~Engine() = default;

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Short stable identifier ("serial", "compiled", "incremental",
    /// "sharded"): the name shard::make_engine builds this engine from,
    /// also used in logs, bench rows and test parametrization.
    [[nodiscard]] virtual const char* name() const noexcept = 0;

    /// Runs one LRGP iteration and returns its record.
    virtual const IterationRecord& step() = 0;

    /// Runs exactly `iterations` iterations; returns the final record.
    virtual const IterationRecord& run(int iterations) = 0;

    /// Runs until the convergence criterion fires or `max_iterations` is
    /// reached.  Returns the 1-based iteration of convergence, or nullopt.
    virtual std::optional<int> runUntilConverged(int max_iterations) = 0;

    // -- dynamic workload changes (applied before the next iteration) ----

    /// Models the flow's source leaving the system: the flow stops
    /// consuming resources and its classes are evicted.
    virtual void removeFlow(model::FlowId flow) = 0;

    /// Brings a removed flow back (resumes at r_min, zero consumers).
    virtual void restoreFlow(model::FlowId flow) = 0;

    virtual void setNodeCapacity(model::NodeId node, double capacity) = 0;
    virtual void setLinkCapacity(model::LinkId link, double capacity) = 0;

    /// Consumers arriving at / leaving a class (changes n^max).  Takes
    /// effect on the next iteration; the convergence detector restarts.
    virtual void setClassMaxConsumers(model::ClassId cls, int max_consumers) = 0;

    /// Warm start: seeds prices (and optionally populations) from a
    /// previous run.  Throws std::invalid_argument, before changing any
    /// state, when check_warm_start rejects the arguments.  Populations
    /// above a class's n^max are clamped to it.
    virtual void warmStart(const PriceVector& prices,
                           const std::vector<int>* populations = nullptr) = 0;

    // -- observability ----------------------------------------------------

    /// Attaches a metrics registry (and optionally a tracer); pass
    /// nullptrs to detach.
    virtual void attachObservability(obs::Registry* registry,
                                     obs::IterationTracer* tracer = nullptr) = 0;

    // -- observers --------------------------------------------------------

    [[nodiscard]] virtual const model::ProblemSpec& problem() const noexcept = 0;
    [[nodiscard]] virtual const model::Allocation& allocation() const noexcept = 0;
    [[nodiscard]] virtual const PriceVector& prices() const noexcept = 0;
    [[nodiscard]] virtual double currentUtility() const = 0;
    [[nodiscard]] virtual int iterationsRun() const noexcept = 0;
    [[nodiscard]] virtual const metrics::TimeSeries& utilityTrace() const noexcept = 0;
    [[nodiscard]] virtual const ConvergenceDetector& convergence() const noexcept = 0;
    /// Current adaptive/fixed gamma at `node` (for the Figure 2 ablation).
    [[nodiscard]] virtual double nodeGamma(model::NodeId node) const = 0;

protected:
    Engine() = default;
};

/// Throws std::invalid_argument unless `prices` (and `populations`, when
/// given) are sized for `spec`, every price is finite and >= 0, and no
/// population is negative.  Every engine's warmStart runs it first.
void check_warm_start(const model::ProblemSpec& spec, const PriceVector& prices,
                      const std::vector<int>* populations);

}  // namespace lrgp::core
