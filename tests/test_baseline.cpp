#include <gtest/gtest.h>

#include <random>

#include "baseline/annealing.hpp"
#include "baseline/search_state.hpp"
#include "test_helpers.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using baseline::AnnealOptions;
using baseline::SearchState;
using lrgp::test::make_linked_problem;
using lrgp::test::make_tiny_problem;

TEST(SearchState, StartsAtMinimalFeasible) {
    const auto t = make_tiny_problem();
    SearchState state(t.spec);
    EXPECT_DOUBLE_EQ(state.utility(), 0.0);
    EXPECT_DOUBLE_EQ(state.allocation().rates[t.flow.index()], 1.0);
}

TEST(SearchState, RejectsInfeasibleInitial) {
    const auto t = make_tiny_problem();
    auto bad = model::Allocation::minimal(t.spec);
    bad.rates[t.flow.index()] = 50.0;
    bad.populations[t.pub.index()] = 20;  // blows the node budget
    EXPECT_THROW((SearchState{t.spec, bad}), std::invalid_argument);
}

TEST(SearchState, RateMoveUpdatesUsageAndUtility) {
    const auto t = make_tiny_problem();
    SearchState state(t.spec);
    ASSERT_TRUE(state.tryPopulationMove(t.gold, 4));
    ASSERT_TRUE(state.tryRateMove(t.flow, 10.0));
    EXPECT_NEAR(state.utility(), 4 * 30.0 * std::log(11.0), 1e-9);
    // usage: F*r + G*n*r = 2*10 + 5*4*10 = 220
    EXPECT_NEAR(state.nodeUsage(t.cnode), 220.0, 1e-9);
}

TEST(SearchState, InfeasibleMovesRejectedWithoutSideEffects) {
    const auto t = make_tiny_problem();
    SearchState state(t.spec);
    ASSERT_TRUE(state.tryRateMove(t.flow, 50.0));
    // 20 public consumers at rate 50 cost 10*20*50 = 10000 > 1000.
    const double before_usage = state.nodeUsage(t.cnode);
    const double before_utility = state.utility();
    EXPECT_FALSE(state.tryPopulationMove(t.pub, 20));
    EXPECT_DOUBLE_EQ(state.nodeUsage(t.cnode), before_usage);
    EXPECT_DOUBLE_EQ(state.utility(), before_utility);
}

TEST(SearchState, IncrementalMatchesRebuiltCaches) {
    const auto spec = workload::make_base_workload();
    SearchState state(spec);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    // Random walk of applied moves, then compare against a full rebuild.
    for (int s = 0; s < 500; ++s) {
        if (unif(rng) < 0.5) {
            const auto& f = spec.flows()[static_cast<std::size_t>(unif(rng) * 6)];
            (void)state.tryRateMove(f.id, 10.0 + unif(rng) * 990.0);
        } else {
            const auto& c = spec.classes()[static_cast<std::size_t>(unif(rng) * 20)];
            (void)state.tryPopulationMove(c.id,
                                          static_cast<int>(unif(rng) * c.max_consumers));
        }
    }
    SearchState rebuilt(spec, state.allocation());
    EXPECT_NEAR(state.utility(), rebuilt.utility(), 1e-6 * (1.0 + rebuilt.utility()));
    for (const auto& node : spec.nodes())
        EXPECT_NEAR(state.nodeUsage(node.id), rebuilt.nodeUsage(node.id), 1e-6);
}

TEST(SearchState, LinkConstraintsEnforced) {
    const auto p = make_linked_problem();
    SearchState state(p.spec);
    ASSERT_TRUE(state.tryRateMove(p.flow_a, 90.0));
    // flow_b at 90 would put the shared link at 180 > 100.
    EXPECT_FALSE(state.tryRateMove(p.flow_b, 90.0));
    EXPECT_TRUE(state.tryRateMove(p.flow_b, 9.0));
    EXPECT_NEAR(state.linkUsage(p.shared_link), 99.0, 1e-9);
}

TEST(SearchState, InactiveFlowMovesRejected) {
    auto t = make_tiny_problem();
    t.spec.setFlowActive(t.flow, false);
    SearchState state(t.spec);
    EXPECT_FALSE(state.tryRateMove(t.flow, 10.0));
    EXPECT_FALSE(state.tryPopulationMove(t.gold, 1));
}

TEST(Annealing, ProducesFeasibleResult) {
    const auto spec = workload::make_base_workload();
    AnnealOptions options;
    options.max_steps = 50'000;
    const auto result = baseline::simulated_annealing(spec, options);
    EXPECT_GT(result.best_utility, 0.0);
    EXPECT_TRUE(model::check_feasibility(spec, result.best).feasible());
    EXPECT_NEAR(result.best_utility, model::total_utility(spec, result.best),
                1e-6 * result.best_utility);
}

TEST(Annealing, MoreStepsDoNotHurt) {
    const auto spec = workload::make_base_workload();
    AnnealOptions small;
    small.max_steps = 5'000;
    small.seed = 3;
    AnnealOptions large;
    large.max_steps = 100'000;
    large.seed = 3;
    const auto r_small = baseline::simulated_annealing(spec, small);
    const auto r_large = baseline::simulated_annealing(spec, large);
    EXPECT_GE(r_large.best_utility, 0.8 * r_small.best_utility);
    EXPECT_GT(r_large.best_utility, r_small.best_utility * 0.99);
}

TEST(Annealing, DeterministicForFixedSeed) {
    const auto spec = workload::make_base_workload();
    AnnealOptions options;
    options.max_steps = 10'000;
    options.seed = 42;
    const auto a = baseline::simulated_annealing(spec, options);
    const auto b = baseline::simulated_annealing(spec, options);
    EXPECT_DOUBLE_EQ(a.best_utility, b.best_utility);
}

TEST(Annealing, Validation) {
    const auto spec = workload::make_base_workload();
    AnnealOptions bad;
    bad.start_temperature = 0.5;  // below end temperature
    EXPECT_THROW((void)baseline::simulated_annealing(spec, bad), std::invalid_argument);
    AnnealOptions bad2;
    bad2.cooling_factor = 1.5;
    EXPECT_THROW((void)baseline::simulated_annealing(spec, bad2), std::invalid_argument);
    AnnealOptions bad3;
    bad3.max_steps = 0;
    EXPECT_THROW((void)baseline::simulated_annealing(spec, bad3), std::invalid_argument);
}

TEST(Annealing, BestOfPicksTheBestRun) {
    const auto spec = workload::make_base_workload();
    const auto best = baseline::best_of_annealing(spec, {5.0, 50.0}, 10'000, 1);
    AnnealOptions opts5;
    opts5.start_temperature = 5.0;
    opts5.max_steps = 10'000;
    opts5.seed = 1;
    AnnealOptions opts50;
    opts50.start_temperature = 50.0;
    opts50.max_steps = 10'000;
    opts50.seed = 2;
    const double u5 = baseline::simulated_annealing(spec, opts5).best_utility;
    const double u50 = baseline::simulated_annealing(spec, opts50).best_utility;
    EXPECT_DOUBLE_EQ(best.best_utility, std::max(u5, u50));
    EXPECT_THROW((void)baseline::best_of_annealing(spec, {}, 100, 1), std::invalid_argument);
}

}  // namespace
