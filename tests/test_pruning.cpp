#include <gtest/gtest.h>

#include <memory>

#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "lrgp/pruning.hpp"
#include "lrgp/two_stage.hpp"
#include "model/analysis.hpp"
#include "workload/random_workload.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

/// A workload where stage one provably wastes resources: flow "wide" is
/// routed to two nodes but its class at the second node always loses the
/// benefit-cost contest there, so the F cost it pays at that node buys
/// nothing and stage two should reclaim it.
model::ProblemSpec wastefulProblem() {
    model::ProblemBuilder b;
    const auto src = b.addNode("P", 1e9);
    const auto n1 = b.addNode("N1", 5e4);
    const auto n2 = b.addNode("N2", 5e4);
    const auto wide = b.addFlow("wide", src, 10.0, 1000.0);
    b.routeThroughNode(wide, n1, 3.0);
    b.routeThroughNode(wide, n2, 30.0);  // expensive hop
    b.addClass("w1", wide, n1, 200, 19.0, std::make_shared<utility::LogUtility>(50.0));
    // At n2 the class is worthless compared to the local flow's class.
    b.addClass("w2", wide, n2, 200, 19.0, std::make_shared<utility::LogUtility>(0.001));
    const auto local = b.addFlow("local", src, 10.0, 1000.0);
    b.routeThroughNode(local, n2, 3.0);
    b.addClass("l2", local, n2, 500, 19.0, std::make_shared<utility::LogUtility>(80.0));
    return b.build();
}

TEST(Pruning, RemovesConsumerlessRoutes) {
    const auto spec = wastefulProblem();
    core::LrgpOptimizer opt(spec);
    opt.run(200);
    // The wide flow's class at N2 must lose to the local class.
    const auto& alloc = opt.allocation();
    ASSERT_EQ(alloc.populations[1], 0) << "test premise: w2 gets nothing";
    ASSERT_GT(alloc.populations[0], 0);

    core::PruneReport report;
    const auto pruned = core::prune_problem(spec, alloc, &report);
    EXPECT_GE(report.routes_removed, 1);
    EXPECT_EQ(report.classes_deactivated, 1);  // w2
    // The pruned hop keeps the node in the route but with zero cost.
    EXPECT_DOUBLE_EQ(pruned.flowNodeCost(model::NodeId{2}, model::FlowId{0}), 0.0);
    // Surviving hops keep their coefficients.
    EXPECT_DOUBLE_EQ(pruned.flowNodeCost(model::NodeId{1}, model::FlowId{0}), 3.0);
}

TEST(Pruning, StageTwoNeverLosesUtility) {
    const auto result = core::two_stage_optimize(wastefulProblem());
    EXPECT_GE(result.stage_two_utility, result.stage_one_utility * (1.0 - 1e-6));
}

TEST(Pruning, StageTwoGainsWhenRoutesWereWasteful) {
    const auto result = core::two_stage_optimize(wastefulProblem());
    ASSERT_GE(result.prune.routes_removed, 1);
    // N2 no longer pays 30 units/msg for the wide flow; the local class
    // gets that capacity back.
    EXPECT_GT(result.stage_two_utility, result.stage_one_utility * 1.001);
}

TEST(Pruning, BaseWorkloadIsAlreadyTight) {
    // Table 1 routes flows only where their classes live and every class
    // pair wins some admission, so pruning should find nothing (or at
    // most classes with zero admissions at one of their two nodes).
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer opt(spec);
    opt.run(150);
    core::PruneReport report;
    (void)core::prune_problem(spec, opt.allocation(), &report);
    // Flows always keep at least one consuming route.
    const auto result = core::two_stage_optimize(spec);
    EXPECT_GE(result.stage_two_utility, result.stage_one_utility * 0.999);
}

TEST(Pruning, SizesValidated) {
    const auto spec = workload::make_base_workload();
    EXPECT_THROW((void)core::prune_problem(spec, model::Allocation{}), std::invalid_argument);
}

TEST(Pruning, PreservesEntityIdentity) {
    const auto spec = wastefulProblem();
    core::LrgpOptimizer opt(spec);
    opt.run(100);
    const auto pruned = core::prune_problem(spec, opt.allocation());
    ASSERT_EQ(pruned.flowCount(), spec.flowCount());
    ASSERT_EQ(pruned.classCount(), spec.classCount());
    ASSERT_EQ(pruned.nodeCount(), spec.nodeCount());
    for (std::size_t i = 0; i < spec.flowCount(); ++i)
        EXPECT_EQ(pruned.flows()[i].name, spec.flows()[i].name);
    for (std::size_t j = 0; j < spec.classCount(); ++j)
        EXPECT_EQ(pruned.classes()[j].name, spec.classes()[j].name);
}

TEST(Pruning, InactiveFlowsStayInactive) {
    auto spec = wastefulProblem();
    spec.setFlowActive(model::FlowId{1}, false);
    auto alloc = model::Allocation::minimal(spec);
    const auto pruned = core::prune_problem(spec, alloc);
    EXPECT_FALSE(pruned.flowActive(model::FlowId{1}));
}

TEST(Pruning, PrunedProblemPreservesAllocationEvaluationOnSeededInstances) {
    // Pruning only drops (flow, node) routes whose classes got zero
    // consumers, so the stage-one allocation itself must evaluate
    // identically on the pruned problem: the Eq. 1 utility is bitwise
    // equal (same class terms in the same order) and resource usage can
    // only shrink (dropped hops stop paying F_{b,i} r_i).
    for (std::uint32_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        workload::RandomWorkloadOptions opt;
        opt.seed = seed;
        opt.link_bottleneck_probability = (seed % 3 == 0) ? 1.0 : 0.0;
        const model::ProblemSpec spec = workload::make_random_workload(opt);
        core::LrgpOptimizer optimizer(spec);
        optimizer.run(60);
        const model::Allocation& alloc = optimizer.allocation();

        const model::ProblemSpec pruned = core::prune_problem(spec, alloc);
        EXPECT_EQ(model::total_utility(spec, alloc), model::total_utility(pruned, alloc));
        for (const model::NodeSpec& b : spec.nodes())
            EXPECT_LE(model::node_usage(pruned, alloc, b.id),
                      model::node_usage(spec, alloc, b.id) * (1.0 + 1e-12))
                << "node " << b.name;
        for (const model::LinkSpec& l : spec.links())
            EXPECT_LE(model::link_usage(pruned, alloc, l.id),
                      model::link_usage(spec, alloc, l.id) * (1.0 + 1e-12))
                << "link " << l.name;
    }
}

TEST(Pruning, NoOpPruneReproducesUnprunedTrajectoryBitwise) {
    // When pruning removes nothing, the pruned spec must be the same
    // problem: fresh LRGP runs on it — serial and the incremental
    // engine — reproduce the unpruned serial trajectory bitwise.  On
    // instances where pruning did remove routes, the stage-two re-solve
    // must not lose utility.  Both branches must occur across the seeds.
    int noop_instances = 0;
    int pruned_instances = 0;
    for (std::uint32_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        workload::RandomWorkloadOptions opt;
        opt.seed = seed;
        const model::ProblemSpec spec = workload::make_random_workload(opt);
        core::LrgpOptimizer stage_one(spec);
        stage_one.run(60);

        core::PruneReport report;
        const model::ProblemSpec pruned =
            core::prune_problem(spec, stage_one.allocation(), &report);
        const bool noop = report.routes_removed == 0 && report.links_removed == 0 &&
                          report.classes_deactivated == 0;
        if (noop) {
            ++noop_instances;
            core::LrgpOptimizer on_spec(spec);
            core::LrgpOptimizer on_pruned(pruned);
            core::ParallelLrgpEngine inc_on_pruned(pruned, {}, {.threads = 2});
            for (int i = 0; i < 40; ++i) {
                const core::IterationRecord& a = on_spec.step();
                const core::IterationRecord& b = on_pruned.step();
                const core::IterationRecord& c = inc_on_pruned.step();
                ASSERT_EQ(a.utility, b.utility) << "iter " << i;
                ASSERT_EQ(a.allocation.rates, b.allocation.rates);
                ASSERT_EQ(a.allocation.populations, b.allocation.populations);
                ASSERT_EQ(b.utility, c.utility) << "iter " << i;
                ASSERT_EQ(b.allocation.rates, c.allocation.rates);
                ASSERT_EQ(b.allocation.populations, c.allocation.populations);
                ASSERT_EQ(b.prices.node, c.prices.node);
                ASSERT_EQ(b.prices.link, c.prices.link);
            }
        } else {
            ++pruned_instances;
            // LRGP is a heuristic: on contended random instances the
            // stage-two re-solve can settle at a marginally lower fixed
            // point (sub-percent in practice), so the bound is loose —
            // it guards against pruning breaking the problem, not
            // against the solver's own wobble.
            const auto result = core::two_stage_optimize(spec);
            EXPECT_GE(result.stage_two_utility, result.stage_one_utility * 0.99);
        }
    }
    // The seeds must exercise both the identity path and the prune path;
    // if either count drops to zero the generator changed under us.
    EXPECT_GT(noop_instances, 0);
    EXPECT_GT(pruned_instances, 0);
}

TEST(Pruning, DeadFlowLosesItsLinks) {
    // A flow whose classes all got zero consumers stops consuming links.
    model::ProblemBuilder b;
    const auto src = b.addNode("P", 1e9);
    const auto n1 = b.addNode("N1", 1e5);
    const auto link = b.addLink("uplink", src, n1, 1e4);
    const auto f = b.addFlow("f", src, 10.0, 100.0);
    b.routeOverLink(f, link, 1.0);
    b.routeThroughNode(f, n1, 1.0);
    b.addClass("c", f, n1, 10, 5.0, std::make_shared<utility::LogUtility>(1.0));
    const auto spec = b.build();

    auto alloc = model::Allocation::minimal(spec);  // zero consumers
    core::PruneReport report;
    const auto pruned = core::prune_problem(spec, alloc, &report);
    EXPECT_EQ(report.links_removed, 1);
    EXPECT_TRUE(pruned.flowsOnLink(link).empty());
}

}  // namespace
