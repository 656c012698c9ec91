#include <gtest/gtest.h>

#include "lrgp/optimizer.hpp"
#include "model/analysis.hpp"
#include "test_helpers.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using lrgp::test::make_tiny_problem;

TEST(JainIndex, PerfectlyEvenIsOne) {
    EXPECT_DOUBLE_EQ(model::jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(JainIndex, SingleWinnerIsOneOverN) {
    EXPECT_NEAR(model::jain_index({10.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(JainIndex, EdgeCases) {
    EXPECT_DOUBLE_EQ(model::jain_index({}), 0.0);
    EXPECT_DOUBLE_EQ(model::jain_index({0.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(model::jain_index({7.0}), 1.0);
}

TEST(JainIndex, LargeValuesDoNotOverflow) {
    // The plain sums overflow to +inf here (inf / inf was NaN, and a
    // finite numerator over an infinite denominator read as 0).
    EXPECT_DOUBLE_EQ(model::jain_index({1e300, 1e300}), 1.0);
    EXPECT_DOUBLE_EQ(model::jain_index({1e300, 0.0}), 0.5);
    EXPECT_DOUBLE_EQ(model::jain_index({1e154, 0.0, 0.0, 0.0}), 0.25);
}

TEST(Summarize, CountsAdmissionBuckets) {
    const auto t = make_tiny_problem();
    auto alloc = model::Allocation::minimal(t.spec);
    alloc.rates[t.flow.index()] = 10.0;
    alloc.populations[t.gold.index()] = 8;   // full
    alloc.populations[t.pub.index()] = 5;    // partial
    const auto summary = model::summarize(t.spec, alloc);
    EXPECT_EQ(summary.classes_fully_admitted, 1);
    EXPECT_EQ(summary.classes_partially_admitted, 1);
    EXPECT_EQ(summary.classes_denied, 0);
    EXPECT_NEAR(summary.classes[t.gold.index()].admission_ratio, 1.0, 1e-12);
    EXPECT_NEAR(summary.classes[t.pub.index()].admission_ratio, 0.25, 1e-12);
}

TEST(Summarize, UtilityBreakdownSumsToTotal) {
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer opt(spec);
    opt.run(100);
    const auto summary = model::summarize(spec, opt.allocation());
    double sum = 0.0;
    for (const auto& s : summary.classes) sum += s.aggregate_utility;
    EXPECT_NEAR(sum, summary.total_utility, 1e-6 * summary.total_utility);
    EXPECT_NEAR(summary.total_utility, opt.currentUtility(), 1e-9);
}

TEST(Summarize, UtilizationMatchesEvaluators) {
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer opt(spec);
    opt.run(100);
    const auto summary = model::summarize(spec, opt.allocation());
    ASSERT_EQ(summary.node_utilization.size(), spec.nodeCount());
    for (const auto& node : spec.nodes()) {
        const double expected =
            model::node_usage(spec, opt.allocation(), node.id) / node.capacity;
        EXPECT_NEAR(summary.node_utilization[node.id.index()], expected, 1e-12);
        EXPECT_LE(summary.node_utilization[node.id.index()], 1.0 + 1e-9);
    }
    // Consumer nodes run hot at the optimum; the producer node is idle.
    const auto s0 = workload::find_node(spec, "r0_S0");
    EXPECT_GT(summary.node_utilization[s0.index()], 0.95);
}

TEST(Summarize, InactiveFlowClassesAreDenied) {
    auto t = make_tiny_problem();
    auto alloc = model::Allocation::minimal(t.spec);
    alloc.rates[t.flow.index()] = 10.0;
    alloc.populations[t.gold.index()] = 4;
    t.spec.setFlowActive(t.flow, false);
    alloc.rates[t.flow.index()] = 0.0;
    alloc.populations[t.gold.index()] = 0;
    const auto summary = model::summarize(t.spec, alloc);
    EXPECT_EQ(summary.classes_denied, 2);
    EXPECT_DOUBLE_EQ(summary.total_utility, 0.0);
}

TEST(Summarize, FairnessReflectsRankSkew) {
    // The base workload concentrates utility in high-rank classes, so
    // fairness is far from 1 but nonzero.
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer opt(spec);
    opt.run(100);
    const auto summary = model::summarize(spec, opt.allocation());
    EXPECT_GT(summary.jain_fairness, 0.05);
    EXPECT_LT(summary.jain_fairness, 0.9);
}

}  // namespace
