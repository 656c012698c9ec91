#include <gtest/gtest.h>

#include <string>

#include "io/problem_json.hpp"
#include "lrgp/optimizer.hpp"
#include "test_helpers.hpp"
#include "workload/random_workload.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

void expectSpecsEquivalent(const model::ProblemSpec& a, const model::ProblemSpec& b) {
    ASSERT_EQ(a.nodeCount(), b.nodeCount());
    ASSERT_EQ(a.linkCount(), b.linkCount());
    ASSERT_EQ(a.flowCount(), b.flowCount());
    ASSERT_EQ(a.classCount(), b.classCount());
    for (std::size_t i = 0; i < a.nodeCount(); ++i) {
        EXPECT_EQ(a.nodes()[i].name, b.nodes()[i].name);
        EXPECT_DOUBLE_EQ(a.nodes()[i].capacity, b.nodes()[i].capacity);
    }
    for (std::size_t i = 0; i < a.flowCount(); ++i) {
        EXPECT_EQ(a.flows()[i].name, b.flows()[i].name);
        EXPECT_DOUBLE_EQ(a.flows()[i].rate_min, b.flows()[i].rate_min);
        EXPECT_DOUBLE_EQ(a.flows()[i].rate_max, b.flows()[i].rate_max);
        EXPECT_EQ(a.flows()[i].active, b.flows()[i].active);
        ASSERT_EQ(a.flows()[i].nodes.size(), b.flows()[i].nodes.size());
        for (std::size_t h = 0; h < a.flows()[i].nodes.size(); ++h) {
            EXPECT_EQ(a.flows()[i].nodes[h].node, b.flows()[i].nodes[h].node);
            EXPECT_DOUBLE_EQ(a.flows()[i].nodes[h].flow_node_cost,
                             b.flows()[i].nodes[h].flow_node_cost);
        }
    }
    for (std::size_t j = 0; j < a.classCount(); ++j) {
        EXPECT_EQ(a.classes()[j].name, b.classes()[j].name);
        EXPECT_EQ(a.classes()[j].max_consumers, b.classes()[j].max_consumers);
        EXPECT_DOUBLE_EQ(a.classes()[j].consumer_cost, b.classes()[j].consumer_cost);
        // Same utility values at sample points.
        for (double r : {10.0, 100.0, 900.0})
            EXPECT_DOUBLE_EQ(a.classes()[j].utility->value(r), b.classes()[j].utility->value(r));
    }
}

TEST(ProblemJson, BaseWorkloadRoundTrips) {
    const auto spec = workload::make_base_workload();
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
    expectSpecsEquivalent(spec, restored);
}

TEST(ProblemJson, PowerShapeRoundTrips) {
    const auto spec = workload::make_base_workload(workload::UtilityShape::kPow075);
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
    expectSpecsEquivalent(spec, restored);
}

TEST(ProblemJson, LinkedProblemRoundTrips) {
    const auto p = lrgp::test::make_linked_problem();
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(p.spec));
    expectSpecsEquivalent(p.spec, restored);
    EXPECT_DOUBLE_EQ(restored.linkCost(p.shared_link, p.flow_a), 1.0);
}

TEST(ProblemJson, InactiveFlowPreserved) {
    auto spec = workload::make_base_workload();
    spec.setFlowActive(model::FlowId{2}, false);
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
    EXPECT_FALSE(restored.flowActive(model::FlowId{2}));
}

TEST(ProblemJson, ScaledUtilityRoundTrips) {
    model::ProblemBuilder b;
    const auto n = b.addNode("N", 1e5);
    const auto f = b.addFlow("f", n, 1.0, 10.0);
    b.routeThroughNode(f, n, 1.0);
    b.addClass("c", f, n, 5, 1.0,
               std::make_shared<utility::ScaledUtility>(
                   2.5, std::make_shared<utility::PowerUtility>(4.0, 0.5)));
    const auto spec = b.build();
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
    EXPECT_DOUBLE_EQ(restored.classes()[0].utility->value(4.0), 2.5 * 4.0 * 2.0);
}

TEST(ProblemJson, SigmoidUtilityRoundTrips) {
    model::ProblemBuilder b;
    const auto n = b.addNode("N", 1e5);
    const auto f = b.addFlow("f", n, 1.0, 10.0);
    b.routeThroughNode(f, n, 1.0);
    b.addClass("c", f, n, 5, 1.0, std::make_shared<utility::SigmoidUtility>(9.0, 4.0, 2.5));
    const auto spec = b.build();
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
    const auto& u = *restored.classes()[0].utility;
    EXPECT_FALSE(u.concave());
    for (double r : {0.0, 1.0, 4.0, 8.0})
        EXPECT_DOUBLE_EQ(u.value(r), spec.classes()[0].utility->value(r));
}

TEST(ProblemJson, OptimizationEquivalentAfterRoundTrip) {
    // The restored problem must optimize to exactly the same trajectory.
    const auto spec = workload::make_base_workload();
    const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
    core::LrgpOptimizer a(spec);
    core::LrgpOptimizer b(restored);
    for (int i = 0; i < 40; ++i) EXPECT_DOUBLE_EQ(a.step().utility, b.step().utility);
}

TEST(ProblemJson, RandomWorkloadsRoundTrip) {
    for (std::uint32_t seed : {1u, 7u, 99u}) {
        workload::RandomWorkloadOptions options;
        options.seed = seed;
        options.link_bottleneck_probability = seed % 2 ? 1.0 : 0.0;
        const auto spec = workload::make_random_workload(options);
        const auto restored = io::problem_from_json_string(io::problem_to_json_string(spec));
        expectSpecsEquivalent(spec, restored);
    }
}

TEST(ProblemJson, RejectsUnknownReferences) {
    EXPECT_THROW((void)io::problem_from_json_string(
                     R"({"nodes": [], "flows": [{"name":"f","source":"ghost",
                         "rate_min":1,"rate_max":2,"nodes":[]}], "classes": []})"),
                 std::runtime_error);
}

TEST(ProblemJson, RejectsDuplicateNames) {
    EXPECT_THROW((void)io::problem_from_json_string(
                     R"({"nodes": [{"name":"n","capacity":1},{"name":"n","capacity":2}],
                         "flows": [], "classes": []})"),
                 std::runtime_error);
}

TEST(ProblemJson, RejectsUnknownUtilityType) {
    EXPECT_THROW(
        (void)io::problem_from_json_string(
            R"({"nodes": [{"name":"n","capacity":10}],
                "flows": [{"name":"f","source":"n","rate_min":1,"rate_max":2,
                           "nodes":[{"node":"n","cost":1}]}],
                "classes": [{"name":"c","flow":"f","node":"n","max_consumers":1,
                             "consumer_cost":1,"utility":{"type":"cubic","weight":1}}]})"),
        std::runtime_error);
}

TEST(ProblemJson, RejectsNonIntegralMaxConsumers) {
    // Integer fields are checked, never cast: 2.5 must not load as 2, and
    // 1e300 must not wrap into a negative count.
    for (const char* max_consumers : {"2.5", "1e300"}) {
        const std::string text =
            std::string(R"({"nodes": [{"name":"n","capacity":10}],
                "flows": [{"name":"f","source":"n","rate_min":1,"rate_max":2,
                           "nodes":[{"node":"n","cost":1}]}],
                "classes": [{"name":"c","flow":"f","node":"n","max_consumers":)") +
            max_consumers + R"(,
                             "consumer_cost":1,"utility":{"type":"log","weight":1}}]})";
        EXPECT_THROW((void)io::problem_from_json_string(text), std::runtime_error)
            << max_consumers;
    }
}

TEST(AllocationJson, RoundTrips) {
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer opt(spec);
    opt.run(60);
    const auto json = io::allocation_to_json(spec, opt.allocation());
    const auto restored = io::allocation_from_json(spec, io::parse_json(json.dump()));
    ASSERT_EQ(restored.rates.size(), opt.allocation().rates.size());
    for (std::size_t i = 0; i < restored.rates.size(); ++i)
        EXPECT_DOUBLE_EQ(restored.rates[i], opt.allocation().rates[i]);
    for (std::size_t j = 0; j < restored.populations.size(); ++j)
        EXPECT_EQ(restored.populations[j], opt.allocation().populations[j]);
}

TEST(AllocationJson, RejectsNonIntegralPopulations) {
    const auto spec = workload::make_base_workload();
    const io::JsonValue json = io::allocation_to_json(spec, model::Allocation::minimal(spec));
    const std::string& first = spec.classes().front().name;
    for (const double population : {2.5, 1e300}) {
        io::JsonObject root = json.asObject();
        io::JsonObject populations = root.at("populations").asObject();
        populations[first] = population;
        root["populations"] = io::JsonValue(std::move(populations));
        EXPECT_THROW((void)io::allocation_from_json(spec, io::JsonValue(std::move(root))),
                     std::runtime_error)
            << population;
    }
}

TEST(AllocationJson, SizeValidated) {
    const auto spec = workload::make_base_workload();
    EXPECT_THROW((void)io::allocation_to_json(spec, model::Allocation{}),
                 std::invalid_argument);
}

}  // namespace
