#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>

#include "lrgp/greedy_allocator.hpp"
#include "model/allocation.hpp"
#include "test_helpers.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using core::GreedyConsumerAllocator;
using lrgp::test::make_tiny_problem;

TEST(Greedy, BenefitCostsSortedDescending) {
    const auto t = make_tiny_problem();
    GreedyConsumerAllocator greedy(t.spec);
    std::vector<double> rates{10.0};
    const auto bcs = greedy.benefitCosts(t.cnode, rates);
    ASSERT_EQ(bcs.size(), 2u);
    EXPECT_GE(bcs[0].ratio, bcs[1].ratio);
    // gold: 30*log(11)/(5*10) = 1.438...; public: 4*log(11)/(10*10) = 0.0959
    EXPECT_EQ(bcs[0].cls, t.gold);
    EXPECT_NEAR(bcs[0].ratio, 30.0 * std::log(11.0) / 50.0, 1e-9);
    EXPECT_NEAR(bcs[1].ratio, 4.0 * std::log(11.0) / 100.0, 1e-9);
}

TEST(Greedy, AdmitsBestClassFirst) {
    const auto t = make_tiny_problem();
    GreedyConsumerAllocator greedy(t.spec);
    // At rate 10: base usage = 20, remaining = 980.  Gold unit cost 50:
    // all 8 admitted (400).  Then public unit cost 100: remaining 580 -> 5.
    const auto result = greedy.allocate(t.cnode, {10.0});
    int gold_n = -1, pub_n = -1;
    for (const auto& [cls, n] : result.populations) {
        if (cls == t.gold) gold_n = n;
        if (cls == t.pub) pub_n = n;
    }
    EXPECT_EQ(gold_n, 8);
    EXPECT_EQ(pub_n, 5);
    EXPECT_DOUBLE_EQ(result.used, 20.0 + 8 * 50.0 + 5 * 100.0);
}

TEST(Greedy, NeverExceedsCapacity) {
    const auto t = make_tiny_problem();
    GreedyConsumerAllocator greedy(t.spec);
    for (double rate = 1.0; rate <= 50.0; rate += 1.0) {
        const auto result = greedy.allocate(t.cnode, {rate});
        EXPECT_LE(result.used, t.spec.node(t.cnode).capacity + 1e-9) << "rate=" << rate;
    }
}

TEST(Greedy, BestUnmetBcReflectsFirstUnsatisfiedClass) {
    const auto t = make_tiny_problem();
    GreedyConsumerAllocator greedy(t.spec);
    // At rate 10, gold is fully admitted but public is not: BC(b,t) is
    // public's ratio.
    const auto result = greedy.allocate(t.cnode, {10.0});
    ASSERT_TRUE(result.best_unmet_bc.has_value());
    EXPECT_NEAR(*result.best_unmet_bc, 4.0 * std::log(11.0) / 100.0, 1e-9);
}

TEST(Greedy, BestUnmetBcEmptyWhenAllAdmitted) {
    // Huge capacity: everything fits.
    model::ProblemBuilder b;
    const auto src = b.addNode("P", 1e9);
    const auto node = b.addNode("S", 1e9);
    const auto flow = b.addFlow("f", src, 1.0, 50.0);
    b.routeThroughNode(flow, node, 1.0);
    b.addClass("c", flow, node, 5, 1.0, std::make_shared<utility::LogUtility>(2.0));
    const auto spec = b.build();
    GreedyConsumerAllocator greedy(spec);
    const auto result = greedy.allocate(model::NodeId{1}, {10.0});
    EXPECT_EQ(result.populations[0].second, 5);
    EXPECT_FALSE(result.best_unmet_bc.has_value());
}

TEST(Greedy, FlowCostsAloneCanExhaustNode) {
    // Tiny capacity: F*r alone exceeds it; no consumer admitted, and the
    // used value reports the overshoot (paper: "all n_j remain at 0").
    model::ProblemBuilder b;
    const auto src = b.addNode("P", 1e9);
    const auto node = b.addNode("S", 5.0);
    const auto flow = b.addFlow("f", src, 1.0, 50.0);
    b.routeThroughNode(flow, node, 1.0);
    b.addClass("c", flow, node, 5, 1.0, std::make_shared<utility::LogUtility>(2.0));
    const auto spec = b.build();
    GreedyConsumerAllocator greedy(spec);
    const auto result = greedy.allocate(model::NodeId{1}, {50.0});
    EXPECT_EQ(result.populations[0].second, 0);
    EXPECT_DOUBLE_EQ(result.used, 50.0);  // > capacity 5
}

TEST(Greedy, InactiveFlowsConsumeNothing) {
    auto t = make_tiny_problem();
    t.spec.setFlowActive(t.flow, false);
    GreedyConsumerAllocator greedy(t.spec);
    const auto result = greedy.allocate(t.cnode, {10.0});
    for (const auto& [cls, n] : result.populations) EXPECT_EQ(n, 0);
    EXPECT_DOUBLE_EQ(result.used, 0.0);
    EXPECT_FALSE(result.best_unmet_bc.has_value());
}

TEST(Greedy, ZeroMaxConsumerClassesIgnored) {
    model::ProblemBuilder b;
    const auto src = b.addNode("P", 1e9);
    const auto node = b.addNode("S", 1000.0);
    const auto flow = b.addFlow("f", src, 1.0, 50.0);
    b.routeThroughNode(flow, node, 1.0);
    b.addClass("empty", flow, node, 0, 1.0, std::make_shared<utility::LogUtility>(99.0));
    b.addClass("real", flow, node, 3, 1.0, std::make_shared<utility::LogUtility>(1.0));
    const auto spec = b.build();
    GreedyConsumerAllocator greedy(spec);
    const auto bcs = greedy.benefitCosts(model::NodeId{1}, {10.0});
    ASSERT_EQ(bcs.size(), 1u);  // the n_max=0 class is not allocatable
    const auto result = greedy.allocate(model::NodeId{1}, {10.0});
    EXPECT_EQ(result.populations[0].second, 0);
    EXPECT_EQ(result.populations[1].second, 3);
}

TEST(Greedy, BatchedAndUnbatchedAgree) {
    const auto spec = workload::make_base_workload();
    GreedyConsumerAllocator greedy(spec);
    std::vector<double> rates(spec.flowCount());
    for (const auto& f : spec.flows()) rates[f.id.index()] = 10.0 + 37.0 * f.id.value;
    for (const model::NodeSpec& node : spec.nodes()) {
        const auto batched = greedy.allocate(node.id, rates, /*batched=*/true);
        const auto stepwise = greedy.allocate(node.id, rates, /*batched=*/false);
        ASSERT_EQ(batched.populations.size(), stepwise.populations.size());
        for (std::size_t k = 0; k < batched.populations.size(); ++k) {
            EXPECT_EQ(batched.populations[k].first, stepwise.populations[k].first);
            EXPECT_EQ(batched.populations[k].second, stepwise.populations[k].second)
                << "node " << node.name;
        }
        EXPECT_NEAR(batched.used, stepwise.used, 1e-6);
    }
}

// Property sweep over the base workload: greedy allocations are always
// within capacity and within population bounds, at any rate level.
class GreedySweep : public ::testing::TestWithParam<double> {};

TEST_P(GreedySweep, RespectsAllNodeConstraints) {
    const double rate = GetParam();
    const auto spec = workload::make_base_workload();
    GreedyConsumerAllocator greedy(spec);
    std::vector<double> rates(spec.flowCount(), rate);
    for (const model::NodeSpec& node : spec.nodes()) {
        const auto result = greedy.allocate(node.id, rates);
        double used_check = 0.0;
        for (model::FlowId i : spec.flowsAtNode(node.id))
            used_check += spec.flowNodeCost(node.id, i) * rate;
        for (const auto& [cls, n] : result.populations) {
            const auto& c = spec.consumerClass(cls);
            EXPECT_GE(n, 0);
            EXPECT_LE(n, c.max_consumers);
            used_check += c.consumer_cost * n * rate;
        }
        EXPECT_NEAR(result.used, used_check, 1e-6);
        if (used_check <= spec.node(node.id).capacity) {
            EXPECT_LE(result.used, spec.node(node.id).capacity + 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, GreedySweep,
                         ::testing::Values(10.0, 25.0, 60.0, 125.0, 333.0, 500.0, 1000.0));

// Regression: a zero rate gives every class at that flow a zero unit
// cost, making BC_j = U_j(0)/0 an undefined 0/0.  Such classes must be
// omitted from the ranking (not ranked as NaN, which would poison the
// sort and BC(b,t)) and must receive no consumers (floor(remaining/0)
// would otherwise admit an unbounded block).
TEST(Greedy, ZeroRateClassesAreNotAllocatable) {
    const auto t = make_tiny_problem();
    GreedyConsumerAllocator greedy(t.spec);
    const std::vector<double> rates{0.0};

    const auto bcs = greedy.benefitCosts(t.cnode, rates);
    EXPECT_TRUE(bcs.empty());

    const auto result = greedy.allocate(t.cnode, rates);
    for (const auto& [cls, n] : result.populations) EXPECT_EQ(n, 0);
    EXPECT_EQ(result.used, 0.0);
    // No allocatable class means no defined BC(b,t) — not a NaN one.
    EXPECT_FALSE(result.best_unmet_bc.has_value());
}

TEST(Greedy, ZeroRateFlowDoesNotPoisonOtherFlows) {
    // Two flows with classes at one shared node; the dead (zero-rate)
    // flow's class sits out while the live flow's allocation proceeds
    // exactly as if it were alone.
    model::ProblemBuilder b;
    const model::NodeId source = b.addNode("P", 1e9);
    const model::NodeId shared = b.addNode("S", 1000.0);
    const model::FlowId live = b.addFlow("live", source, 1.0, 50.0);
    const model::FlowId dead = b.addFlow("dead", source, 1.0, 50.0);
    b.routeThroughNode(live, shared, 2.0);
    b.routeThroughNode(dead, shared, 2.0);
    b.addClass("live_cls", live, shared, 8, 5.0,
               std::make_shared<utility::LogUtility>(30.0));
    b.addClass("dead_cls", dead, shared, 20, 10.0,
               std::make_shared<utility::LogUtility>(4.0));
    const model::ProblemSpec spec = b.build();
    GreedyConsumerAllocator greedy(spec);

    const std::vector<double> mixed_rates{10.0, 0.0};
    const auto bcs = greedy.benefitCosts(shared, mixed_rates);
    ASSERT_EQ(bcs.size(), 1u);  // only the live flow's class ranks
    EXPECT_FALSE(std::isnan(bcs[0].ratio));
    EXPECT_GT(bcs[0].unit_cost, 0.0);

    const auto mixed = greedy.allocate(shared, mixed_rates);
    const auto reference = greedy.allocate(shared, std::vector<double>{10.0, 0.0});
    int live_admitted = 0, dead_admitted = 0;
    for (const auto& [cls, n] : mixed.populations) {
        if (spec.consumerClass(cls).flow == live) live_admitted = n;
        if (spec.consumerClass(cls).flow == dead) dead_admitted = n;
    }
    EXPECT_GT(live_admitted, 0);
    EXPECT_EQ(dead_admitted, 0);
    EXPECT_EQ(mixed.used, reference.used);
}

/// The batched step GreedyConsumerAllocator::allocate takes: the oracle
/// for greedy_admit_count.
int floor_divide_count(double remaining, double unit_cost, int max_consumers) {
    if (!(remaining > 0.0)) return 0;
    return static_cast<int>(
        std::min(std::floor(remaining / unit_cost), static_cast<double>(max_consumers)));
}

void expect_admission_matches(double remaining, double unit_cost, int max_consumers) {
    SCOPED_TRACE(testing::Message() << std::hexfloat << "remaining " << remaining << ", u "
                                    << unit_cost << ", n^max " << std::dec << max_consumers);
    const int want = floor_divide_count(remaining, unit_cost, max_consumers);
    const int got = core::greedy_admit_count(remaining, unit_cost, max_consumers);
    ASSERT_EQ(got, want);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(remaining - got * unit_cost),
              std::bit_cast<std::uint64_t>(remaining - want * unit_cost));
}

/// x moved by `steps` representable doubles (negative: downwards).
double step_ulps(double x, int steps) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (; steps > 0; --steps) x = std::nextafter(x, kInf);
    for (; steps < 0; ++steps) x = std::nextafter(x, -kInf);
    return x;
}

TEST(GreedyAdmission, ShortcutMatchesFloorDivide) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kMax = std::numeric_limits<double>::max();
    constexpr double kMinNormal = std::numeric_limits<double>::min();
    constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
    const double units[] = {1.0, 0.5, 3.0, 19.0 * 37.5, 0.1, std::nextafter(1.0, 2.0),
                            std::nextafter(1.0, 0.0), 1e-300, kMinNormal,
                            std::nextafter(kMinNormal, 0.0), 3 * kDenormMin, kDenormMin,
                            1e300, kMax / 4, kMax};
    for (const double u : units) {
        for (const int n : {1, 2, 7, INT_MAX}) {
            // Both thresholds and their neighbours, the signs of zero,
            // negatives, and quotients far above INT_MAX.
            std::vector<double> remaining{0.0, -0.0, -1.0, -u, -kMax, -kInf, kDenormMin,
                                          std::ldexp(u, 40), 1e300, kMax, kInf};
            for (const double edge : {static_cast<double>(n) * u, u})
                for (int steps = -2; steps <= 2; ++steps)
                    remaining.push_back(step_ulps(edge, steps));
            for (const double r : remaining) expect_admission_matches(r, u, n);
            if (testing::Test::HasFatalFailure()) return;
        }
    }

    // Seeded sweep: u across the whole exponent range, remaining a few
    // ulps either side of a whole number of units.
    std::mt19937_64 rng(20061);
    std::uniform_int_distribution<int> exponent(-1070, 1020);
    std::uniform_real_distribution<double> mantissa(1.0, 2.0);
    std::uniform_int_distribution<int> wiggle(-3, 3);
    for (int i = 0; i < 200000; ++i) {
        const double u = std::ldexp(mantissa(rng), exponent(rng));
        const int n = i % 10 == 0 ? INT_MAX : 1 + static_cast<int>(rng() % 1000);
        const std::uint64_t span = static_cast<std::uint64_t>(n) + 4;
        const double units_left = static_cast<double>(rng() % span) - 2.0;
        expect_admission_matches(step_ulps(units_left * u, wiggle(rng)), u, n);
        if (testing::Test::HasFatalFailure()) return;
    }
}

}  // namespace
