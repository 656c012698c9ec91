// Dynamic-workload behaviour of the optimizer: consumers arriving and
// leaving (n^max changes), warm-started re-optimization, and the
// asynchronous protocol under message loss (Section 3.5's tolerance
// claim).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_lrgp.hpp"
#include "lrgp/optimizer.hpp"
#include "shard/sharded_engine.hpp"
#include "test_helpers.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

TEST(Dynamics, GrowingPopulationCeilingRaisesUtility) {
    const auto t = lrgp::test::make_tiny_problem();
    core::LrgpOptimizer opt(t.spec);
    opt.run(100);
    const double before = opt.currentUtility();
    // 20 more gold consumers arrive.
    opt.setClassMaxConsumers(t.gold, 28);
    opt.run(100);
    EXPECT_GT(opt.currentUtility(), before * 1.05);
    EXPECT_TRUE(model::check_feasibility(opt.problem(), opt.allocation()).feasible());
}

TEST(Dynamics, ShrinkingCeilingEvictsImmediately) {
    const auto t = lrgp::test::make_tiny_problem();
    core::LrgpOptimizer opt(t.spec);
    opt.run(100);
    ASSERT_GE(opt.allocation().populations[t.gold.index()], 7);
    opt.setClassMaxConsumers(t.gold, 2);
    // Even before the next iteration the allocation is within bounds.
    EXPECT_LE(opt.allocation().populations[t.gold.index()], 2);
    opt.run(50);
    EXPECT_LE(opt.allocation().populations[t.gold.index()], 2);
    EXPECT_TRUE(model::check_feasibility(opt.problem(), opt.allocation()).feasible());
}

TEST(Dynamics, CeilingValidation) {
    const auto t = lrgp::test::make_tiny_problem();
    core::LrgpOptimizer opt(t.spec);
    EXPECT_THROW(opt.setClassMaxConsumers(t.gold, -1), std::invalid_argument);
}

TEST(Dynamics, WarmStartReconvergesFasterAfterSmallChange) {
    // Converge, perturb one node's capacity by 10%, and compare cold vs
    // warm re-optimization on the perturbed problem.
    core::LrgpOptimizer first(workload::make_base_workload());
    first.run(150);
    const auto learned_prices = first.prices();
    const auto learned_populations = first.allocation().populations;

    auto perturbed = workload::make_base_workload();
    const auto s0 = workload::find_node(perturbed, "r0_S0");
    perturbed.setNodeCapacity(s0, perturbed.node(s0).capacity * 0.9);

    core::LrgpOptimizer cold(perturbed);
    const auto cold_conv = cold.runUntilConverged(400);

    core::LrgpOptimizer warm(perturbed);
    warm.warmStart(learned_prices, &learned_populations);
    const auto warm_conv = warm.runUntilConverged(400);

    ASSERT_TRUE(warm_conv.has_value());
    ASSERT_TRUE(cold_conv.has_value());
    EXPECT_LE(*warm_conv, *cold_conv);
    // Both land at essentially the same utility.
    EXPECT_NEAR(warm.currentUtility(), cold.currentUtility(),
                0.01 * cold.currentUtility());
}

/// The five engine configurations shard::make_engine builds.
const std::pair<std::string, int> kEngines[] = {
    {"serial", 1}, {"compiled", 1}, {"incremental", 1}, {"sharded", 1}, {"sharded", 4}};

TEST(Dynamics, WarmStartValidatesSizes) {
    // Mis-sized vectors, NaN, infinite or negative prices and negative
    // populations are all rejected before the engine changes any state.
    const auto t = lrgp::test::make_linked_problem();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& [name, shards] : kEngines) {
        SCOPED_TRACE(name + " x" + std::to_string(shards));
        auto engine = shard::make_engine(name, t.spec, {}, 1, shards);
        engine->run(60);
        const core::PriceVector prices = engine->prices();
        const std::vector<int> populations = engine->allocation().populations;

        EXPECT_THROW(engine->warmStart(core::PriceVector::zeros(1, 0)), std::invalid_argument);
        const std::vector<int> wrong_size(99, 0);
        EXPECT_THROW(engine->warmStart(prices, &wrong_size), std::invalid_argument);
        for (const double bad : {nan, inf, -5.0}) {
            core::PriceVector node_bad = prices;
            node_bad.node[t.node_a.index()] = bad;
            EXPECT_THROW(engine->warmStart(node_bad), std::invalid_argument) << bad;
            core::PriceVector link_bad = prices;
            link_bad.link[t.shared_link.index()] = bad;
            EXPECT_THROW(engine->warmStart(link_bad), std::invalid_argument) << bad;
        }
        const std::vector<int> negative(t.spec.classCount(), -7);
        EXPECT_THROW(engine->warmStart(prices, &negative), std::invalid_argument);

        EXPECT_EQ(engine->prices().node, prices.node);
        EXPECT_EQ(engine->prices().link, prices.link);
        EXPECT_EQ(engine->allocation().populations, populations);
    }
}

TEST(Dynamics, WarmStartClampsPopulationsToCeilings) {
    const auto spec = workload::make_base_workload();
    for (const auto& [name, shards] : kEngines) {
        SCOPED_TRACE(name + " x" + std::to_string(shards));
        auto engine = shard::make_engine(name, spec, {}, 1, shards);
        engine->run(60);
        const std::vector<int> oversized(spec.classCount(), 1'000'000);  // above every n^max
        engine->warmStart(engine->prices(), &oversized);
        // Published at once, before the next step.
        for (const model::ClassSpec& c : spec.classes())
            EXPECT_LE(engine->allocation().populations[c.id.index()], c.max_consumers) << c.name;
        engine->step();
        EXPECT_TRUE(model::check_feasibility(spec, engine->allocation()).feasible());
    }
}

TEST(MessageLoss, AsyncToleratesTenPercentLoss) {
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer central(spec);
    central.run(150);

    dist::DistOptions options;
    options.synchronous = false;
    options.message_loss_probability = 0.10;
    options.price_window = 5;  // averaging smooths over the gaps
    dist::DistLrgp d(spec, options);
    d.runFor(15.0);

    EXPECT_GT(d.messagesLost(), 0u);
    EXPECT_NEAR(d.currentUtility(), central.currentUtility(),
                0.10 * central.currentUtility());
    EXPECT_TRUE(model::check_feasibility(spec, d.snapshot()).feasible());
}

TEST(MessageLoss, LossRateMatchesConfiguration) {
    const auto spec = workload::make_base_workload();
    dist::DistOptions options;
    options.synchronous = false;
    options.message_loss_probability = 0.25;
    dist::DistLrgp d(spec, options);
    d.runFor(10.0);
    const double observed =
        static_cast<double>(d.messagesLost()) / static_cast<double>(d.messagesSent());
    EXPECT_NEAR(observed, 0.25, 0.05);
}

TEST(MessageLoss, RejectedInSyncMode) {
    const auto spec = workload::make_base_workload();
    dist::DistOptions options;
    options.message_loss_probability = 0.1;  // synchronous default
    EXPECT_THROW((dist::DistLrgp{spec, options}), std::invalid_argument);
    dist::DistOptions bad;
    bad.synchronous = false;
    bad.message_loss_probability = 1.0;
    EXPECT_THROW((dist::DistLrgp{spec, bad}), std::invalid_argument);
}

}  // namespace
