#include "baseline/annealing.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace lrgp::baseline {

namespace {

/// Proposes and (maybe) applies one random single-variable move.
/// Returns {attempted_delta_utility, applied}.
struct MoveOutcome {
    double old_utility = 0.0;
    bool applied = false;
    bool feasible = true;
};

class MoveProposer {
public:
    MoveProposer(const model::ProblemSpec& spec, double rate_frac, double pop_frac,
                 std::mt19937& rng)
        : spec_(&spec), rate_frac_(rate_frac), pop_frac_(pop_frac), rng_(&rng) {
        for (const model::FlowSpec& f : spec.flows())
            if (f.active) flows_.push_back(f.id);
        for (const model::ClassSpec& c : spec.classes())
            if (spec.flowActive(c.flow) && c.max_consumers > 0) classes_.push_back(c.id);
        if (flows_.empty() && classes_.empty())
            throw std::invalid_argument("MoveProposer: nothing to optimize");
    }

    /// Applies a random feasible move to `state` if accepted by `accept`
    /// (called with the utility delta).  Returns the outcome.
    ///
    /// Three move kinds are proposed with equal probability:
    ///  * a single-flow rate perturbation,
    ///  * a single-class population perturbation,
    ///  * a coupled move: perturb one flow's rate and re-run a greedy
    ///    population fill at every node that flow touches.  The coupled
    ///    move is what lets the walk trade rate against admissions in one
    ///    step; without it, coordinate-wise search ratchets rates up and
    ///    gets trapped far from the good region.
    template <class AcceptFn>
    MoveOutcome propose(SearchState& state, AcceptFn&& accept) {
        MoveOutcome outcome;
        outcome.old_utility = state.utility();

        std::uniform_real_distribution<double> coin(0.0, 1.0);
        const double which = coin(*rng_);
        if (!flows_.empty() && which < 1.0 / 3.0) {
            return proposeJoint(state, accept, outcome);
        }
        const bool rate_move = !flows_.empty() && (classes_.empty() || which < 2.0 / 3.0);
        if (rate_move) {
            const model::FlowId i = flows_[pick(flows_.size())];
            const model::FlowSpec& f = spec_->flow(i);
            const double range = f.rate_max - f.rate_min;
            std::uniform_real_distribution<double> delta(-rate_frac_ * range, rate_frac_ * range);
            const double old_rate = state.allocation().rates[i.index()];
            double new_rate = std::clamp(old_rate + delta(*rng_), f.rate_min, f.rate_max);
            // Repair: a rate increase that would overflow a resource is
            // clamped to the largest feasible rate instead of being
            // rejected outright, keeping the walk effective near the
            // constraint boundary.
            if (new_rate > old_rate) new_rate = std::min(new_rate, state.maxFeasibleRate(i));
            if (new_rate < f.rate_min) {
                outcome.feasible = false;
            } else {
                outcome.feasible = state.tryRateMove(i, new_rate);
            }
            if (outcome.feasible && !accept(state.utility() - outcome.old_utility)) {
                // Roll back: the reverse move is always feasible.
                state.tryRateMove(i, old_rate);
            } else if (outcome.feasible) {
                outcome.applied = true;
            }
        } else {
            const model::ClassId j = classes_[pick(classes_.size())];
            const model::ClassSpec& c = spec_->consumerClass(j);
            const int span = std::max(1, static_cast<int>(pop_frac_ * c.max_consumers));
            std::uniform_int_distribution<int> delta(-span, span);
            const int old_n = state.allocation().populations[j.index()];
            int new_n = std::clamp(old_n + delta(*rng_), 0, c.max_consumers);
            // Repair: admit as many of the proposed consumers as fit
            // (the current state is feasible, so maxFeasible >= old_n).
            if (new_n > old_n) new_n = std::min(new_n, state.maxFeasiblePopulation(j));
            outcome.feasible = state.tryPopulationMove(j, new_n);
            if (outcome.feasible && !accept(state.utility() - outcome.old_utility)) {
                state.tryPopulationMove(j, old_n);
            } else if (outcome.feasible) {
                outcome.applied = true;
            }
        }
        return outcome;
    }

private:
    /// The coupled move: zero the populations at every node the chosen
    /// flow reaches, perturb the flow's rate, greedily refill those nodes
    /// in benefit-cost order, and accept or roll back atomically.
    template <class AcceptFn>
    MoveOutcome proposeJoint(SearchState& state, AcceptFn&& accept, MoveOutcome outcome) {
        const model::FlowId i = flows_[pick(flows_.size())];
        const model::FlowSpec& f = spec_->flow(i);

        // Affected classes: everything attached at the flow's nodes
        // (other flows' classes there compete for the freed capacity).
        std::vector<model::ClassId> affected;
        for (const model::FlowNodeHop& hop : f.nodes)
            for (model::ClassId j : spec_->classesAtNode(hop.node))
                if (spec_->flowActive(spec_->consumerClass(j).flow)) affected.push_back(j);

        const double old_rate = state.allocation().rates[i.index()];
        std::vector<int> saved(affected.size());
        for (std::size_t k = 0; k < affected.size(); ++k)
            saved[k] = state.allocation().populations[affected[k].index()];

        auto rollback = [&] {
            for (model::ClassId j : affected) (void)state.tryPopulationMove(j, 0);
            (void)state.tryRateMove(i, old_rate);
            for (std::size_t k = 0; k < affected.size(); ++k)
                (void)state.tryPopulationMove(affected[k], saved[k]);
        };

        // Clear the nodes, move the rate, refill greedily.
        for (model::ClassId j : affected) (void)state.tryPopulationMove(j, 0);
        const double range = f.rate_max - f.rate_min;
        std::uniform_real_distribution<double> delta(-rate_frac_ * range, rate_frac_ * range);
        double new_rate = std::clamp(old_rate + delta(*rng_), f.rate_min, f.rate_max);
        new_rate = std::min(new_rate, state.maxFeasibleRate(i));
        if (new_rate < f.rate_min || !state.tryRateMove(i, new_rate)) {
            rollback();
            outcome.feasible = false;
            return outcome;
        }
        for (const model::FlowNodeHop& hop : f.nodes) {
            // Benefit-cost order at this node under the current rates.
            std::vector<std::pair<double, model::ClassId>> ranked;
            for (model::ClassId j : spec_->classesAtNode(hop.node)) {
                const model::ClassSpec& c = spec_->consumerClass(j);
                if (!spec_->flowActive(c.flow) || c.max_consumers == 0) continue;
                const double r = state.allocation().rates[c.flow.index()];
                ranked.emplace_back(c.utility->value(r) / (c.consumer_cost * r), j);
            }
            std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
            });
            for (const auto& [ratio, j] : ranked)
                (void)state.tryPopulationMove(j, state.maxFeasiblePopulation(j));
        }

        if (!accept(state.utility() - outcome.old_utility)) {
            rollback();
            return outcome;
        }
        outcome.applied = true;
        return outcome;
    }

    std::size_t pick(std::size_t n) {
        std::uniform_int_distribution<std::size_t> d(0, n - 1);
        return d(*rng_);
    }

    const model::ProblemSpec* spec_;
    double rate_frac_;
    double pop_frac_;
    std::mt19937* rng_;
    std::vector<model::FlowId> flows_;
    std::vector<model::ClassId> classes_;
};

}  // namespace

SearchResult simulated_annealing(const model::ProblemSpec& spec, const AnnealOptions& options) {
    if (!(options.start_temperature > options.end_temperature))
        throw std::invalid_argument("simulated_annealing: start temperature must exceed end");
    if (!(options.cooling_factor > 0.0 && options.cooling_factor < 1.0))
        throw std::invalid_argument("simulated_annealing: cooling factor must be in (0,1)");
    if (options.max_steps == 0)
        throw std::invalid_argument("simulated_annealing: zero step budget");

    const auto start_time = std::chrono::steady_clock::now();

    // Number of temperature levels until T drops to end_temperature.
    const std::uint64_t levels = static_cast<std::uint64_t>(std::ceil(
        std::log(options.end_temperature / options.start_temperature) /
        std::log(options.cooling_factor)));
    const std::uint64_t steps_per_level = std::max<std::uint64_t>(1, options.max_steps / levels);

    std::mt19937 rng(options.seed);
    SearchState state(spec);
    MoveProposer proposer(spec, options.rate_step_fraction, options.population_step_fraction, rng);
    std::uniform_real_distribution<double> unif(0.0, 1.0);

    SearchResult result;
    result.best = state.allocation();
    result.best_utility = state.utility();

    double temperature = options.start_temperature;
    std::uint64_t steps = 0;
    while (temperature > options.end_temperature && steps < options.max_steps) {
        for (std::uint64_t s = 0; s < steps_per_level && steps < options.max_steps; ++s, ++steps) {
            const MoveOutcome outcome = proposer.propose(state, [&](double delta_utility) {
                return delta_utility >= 0.0 ||
                       unif(rng) < std::exp(delta_utility / temperature);
            });
            if (!outcome.feasible) {
                ++result.rejected_infeasible;
                continue;
            }
            if (outcome.applied) {
                ++result.accepted;
                if (state.utility() > result.best_utility) {
                    result.best_utility = state.utility();
                    result.best = state.allocation();
                }
            }
        }
        temperature *= options.cooling_factor;
    }

    result.steps_taken = steps;
    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
    return result;
}

SearchResult best_of_annealing(const model::ProblemSpec& spec,
                               const std::vector<double>& start_temperatures,
                               std::uint64_t steps_per_run, std::uint32_t seed) {
    if (start_temperatures.empty())
        throw std::invalid_argument("best_of_annealing: no temperatures");
    SearchResult best;
    bool first = true;
    double total_seconds = 0.0;
    std::uint64_t total_steps = 0;
    for (std::size_t k = 0; k < start_temperatures.size(); ++k) {
        AnnealOptions opts;
        opts.start_temperature = start_temperatures[k];
        opts.max_steps = steps_per_run;
        opts.seed = seed + static_cast<std::uint32_t>(k);
        SearchResult r = simulated_annealing(spec, opts);
        total_seconds += r.wall_seconds;
        total_steps += r.steps_taken;
        if (first || r.best_utility > best.best_utility) {
            best = std::move(r);
            first = false;
        }
    }
    best.wall_seconds = total_seconds;
    best.steps_taken = total_steps;
    return best;
}

}  // namespace lrgp::baseline
