// Centralized baseline (Section 4.4): simulated annealing with the
// paper's cooling schedule.
//
// The paper's schedule: start temperature in {5, 10, 50, 100}; after each
// simulation round the temperature is multiplied by 0.999; the run ends
// when T <= 1; the step budget (10^6 / 10^7 / 10^8 in the paper) is split
// equally among the temperature levels.  Moves that violate a constraint
// are rejected, keeping the walk inside the feasible region.
#pragma once

#include <cstdint>
#include <random>

#include "baseline/search_state.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"

namespace lrgp::baseline {

struct AnnealOptions {
    double start_temperature = 5.0;
    double cooling_factor = 0.999;  ///< multiplied in after each temperature level
    double end_temperature = 1.0;   ///< stop when T <= this
    std::uint64_t max_steps = 1'000'000;
    std::uint32_t seed = 1;
    /// Maximum rate perturbation as a fraction of (r_max - r_min).
    double rate_step_fraction = 0.1;
    /// Maximum population perturbation as a fraction of n^max.
    double population_step_fraction = 0.1;
};

struct SearchResult {
    model::Allocation best;
    double best_utility = 0.0;
    std::uint64_t steps_taken = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_infeasible = 0;
    double wall_seconds = 0.0;
};

/// Simulated annealing over the joint (rates, populations) space.
[[nodiscard]] SearchResult simulated_annealing(const model::ProblemSpec& spec,
                                               const AnnealOptions& options);

/// Runs simulated_annealing over several start temperatures and returns
/// the best outcome (the paper reports the best of {5,10,50,100} x step
/// budgets); `steps_per_run` applies to each run.
[[nodiscard]] SearchResult best_of_annealing(const model::ProblemSpec& spec,
                                             const std::vector<double>& start_temperatures,
                                             std::uint64_t steps_per_run, std::uint32_t seed);

}  // namespace lrgp::baseline
