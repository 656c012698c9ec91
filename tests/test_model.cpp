#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "model/problem.hpp"
#include "test_helpers.hpp"
#include "utility/utility_function.hpp"

namespace {

using namespace lrgp;
using lrgp::test::make_tiny_problem;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::shared_ptr<const utility::UtilityFunction> logu(double w) {
    return std::make_shared<utility::LogUtility>(w);
}

TEST(Ids, DefaultIsInvalid) {
    model::FlowId id;
    EXPECT_FALSE(id.valid());
    EXPECT_TRUE(model::FlowId{3}.valid());
}

TEST(Ids, ComparisonAndHash) {
    model::NodeId a{1}, b{2}, a2{1};
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
    EXPECT_LT(a, b);
    EXPECT_EQ(std::hash<model::NodeId>{}(a), std::hash<model::NodeId>{}(a2));
}

TEST(ProblemBuilder, BuildsTinyProblem) {
    const auto t = make_tiny_problem();
    EXPECT_EQ(t.spec.nodeCount(), 2u);
    EXPECT_EQ(t.spec.flowCount(), 1u);
    EXPECT_EQ(t.spec.classCount(), 2u);
    EXPECT_EQ(t.spec.linkCount(), 0u);
    EXPECT_EQ(t.spec.flow(t.flow).name, "trades");
    EXPECT_DOUBLE_EQ(t.spec.node(t.cnode).capacity, 1000.0);
}

TEST(ProblemBuilder, DenseIdsMatchIndices) {
    const auto t = make_tiny_problem();
    for (std::size_t i = 0; i < t.spec.nodeCount(); ++i)
        EXPECT_EQ(t.spec.nodes()[i].id.index(), i);
    for (std::size_t i = 0; i < t.spec.classCount(); ++i)
        EXPECT_EQ(t.spec.classes()[i].id.index(), i);
}

TEST(ProblemBuilder, ReverseIndexes) {
    const auto t = make_tiny_problem();
    EXPECT_EQ(t.spec.classesOfFlow(t.flow).size(), 2u);
    EXPECT_EQ(t.spec.classesAtNode(t.cnode).size(), 2u);
    ASSERT_EQ(t.spec.flowsAtNode(t.cnode).size(), 1u);
    EXPECT_EQ(t.spec.flowsAtNode(t.cnode)[0], t.flow);
    // The producer node hosts no flows or classes.
    const model::NodeId producer{0};
    EXPECT_TRUE(t.spec.flowsAtNode(producer).empty());
    EXPECT_TRUE(t.spec.classesAtNode(producer).empty());
}

TEST(ProblemBuilder, CostLookups) {
    const auto t = make_tiny_problem();
    EXPECT_DOUBLE_EQ(t.spec.flowNodeCost(t.cnode, t.flow), 2.0);
    EXPECT_DOUBLE_EQ(t.spec.flowNodeCost(model::NodeId{0}, t.flow), 0.0);
    EXPECT_DOUBLE_EQ(t.spec.consumerClass(t.gold).consumer_cost, 5.0);
}

TEST(ProblemBuilder, RejectsBadNodes) {
    model::ProblemBuilder b;
    EXPECT_THROW(b.addNode("n", 0.0), std::invalid_argument);
    EXPECT_THROW(b.addNode("n", -5.0), std::invalid_argument);
    EXPECT_THROW(b.addNode("n", kInf), std::invalid_argument);
    EXPECT_THROW(b.addNode("n", kNaN), std::invalid_argument);
}

TEST(ProblemBuilder, RejectsBadLinks) {
    model::ProblemBuilder b;
    const auto n1 = b.addNode("n1", 10.0);
    const auto n2 = b.addNode("n2", 10.0);
    EXPECT_THROW(b.addLink("l", n1, n1, 10.0), std::invalid_argument);
    EXPECT_THROW(b.addLink("l", n1, n2, 0.0), std::invalid_argument);
    EXPECT_THROW(b.addLink("l", n1, model::NodeId{99}, 10.0), std::invalid_argument);
    EXPECT_THROW(b.addLink("l", n1, n2, kInf), std::invalid_argument);
    const auto l = b.addLink("l", n1, n2, 10.0);
    const auto f = b.addFlow("f", n1, 1.0, 2.0);
    EXPECT_THROW(b.routeOverLink(f, l, 0.0), std::invalid_argument);
    EXPECT_THROW(b.routeOverLink(f, l, kInf), std::invalid_argument);
    EXPECT_THROW(b.routeOverLink(f, l, kNaN), std::invalid_argument);
    model::ProblemSpec spec = b.build();
    EXPECT_THROW(spec.setLinkCapacity(l, 0.0), std::invalid_argument);
    EXPECT_THROW(spec.setLinkCapacity(l, kInf), std::invalid_argument);
}

TEST(ProblemBuilder, RejectsBadFlows) {
    model::ProblemBuilder b;
    const auto n = b.addNode("n", 10.0);
    EXPECT_THROW(b.addFlow("f", model::NodeId{99}, 1.0, 2.0), std::invalid_argument);
    EXPECT_THROW(b.addFlow("f", n, 0.0, 2.0), std::invalid_argument);
    EXPECT_THROW(b.addFlow("f", n, 3.0, 2.0), std::invalid_argument);
    EXPECT_THROW(b.addFlow("f", n, 1.0, kInf), std::invalid_argument);
    EXPECT_THROW(b.addFlow("f", n, 1.0, kNaN), std::invalid_argument);
}

TEST(ProblemBuilder, RejectsDuplicateRouting) {
    model::ProblemBuilder b;
    const auto n = b.addNode("n", 10.0);
    const auto f = b.addFlow("f", n, 1.0, 2.0);
    b.routeThroughNode(f, n, 1.0);
    EXPECT_THROW(b.routeThroughNode(f, n, 1.0), std::invalid_argument);
}

TEST(ProblemBuilder, RejectsNegativeCosts) {
    model::ProblemBuilder b;
    const auto n = b.addNode("n", 10.0);
    const auto f = b.addFlow("f", n, 1.0, 2.0);
    EXPECT_THROW(b.routeThroughNode(f, n, -1.0), std::invalid_argument);
    EXPECT_THROW(b.routeThroughNode(f, n, kInf), std::invalid_argument);
    EXPECT_THROW(b.routeThroughNode(f, n, kNaN), std::invalid_argument);
}

TEST(ProblemBuilder, RejectsBadClasses) {
    model::ProblemBuilder b;
    const auto n = b.addNode("n", 10.0);
    const auto f = b.addFlow("f", n, 1.0, 2.0);
    b.routeThroughNode(f, n, 1.0);
    EXPECT_THROW(b.addClass("c", f, n, -1, 1.0, logu(1.0)), std::invalid_argument);
    EXPECT_THROW(b.addClass("c", f, n, 1, 0.0, logu(1.0)), std::invalid_argument);
    EXPECT_THROW(b.addClass("c", f, n, 1, kInf, logu(1.0)), std::invalid_argument);
    EXPECT_THROW(b.addClass("c", f, n, 1, 1.0, nullptr), std::invalid_argument);
}

TEST(ProblemBuilder, BuildRejectsClassOffFlowRoute) {
    model::ProblemBuilder b;
    const auto n1 = b.addNode("n1", 10.0);
    const auto n2 = b.addNode("n2", 10.0);
    const auto f = b.addFlow("f", n1, 1.0, 2.0);
    b.routeThroughNode(f, n1, 1.0);
    b.addClass("c", f, n2, 1, 1.0, logu(1.0));  // n2 not on f's route
    EXPECT_THROW((void)b.build(), std::invalid_argument);
}

TEST(ProblemBuilder, BuildRejectsOverflowingWorstCaseUsage) {
    // Each F * rate_max is finite, but the node's sum over its two flows
    // is +inf.
    model::ProblemBuilder nodes;
    const auto n = nodes.addNode("n", 10.0);
    for (const char* name : {"f0", "f1"})
        nodes.routeThroughNode(nodes.addFlow(name, n, 1.0, 1e308), n, 1.0);
    EXPECT_THROW((void)nodes.build(), std::invalid_argument);

    model::ProblemBuilder links;
    const auto n1 = links.addNode("n1", 10.0);
    const auto n2 = links.addNode("n2", 10.0);
    const auto l = links.addLink("l", n1, n2, 10.0);
    links.routeOverLink(links.addFlow("f", n1, 1.0, 1e308), l, 2.0);
    EXPECT_THROW((void)links.build(), std::invalid_argument);

    // A huge consumer cost G only makes its class unadmittable.
    model::ProblemBuilder consumers;
    const auto c = consumers.addNode("c", 10.0);
    const auto f = consumers.addFlow("f", c, 1.0, 2.0);
    consumers.routeThroughNode(f, c, 1.0);
    consumers.addClass("k", f, c, 1, 1e308, logu(1.0));
    EXPECT_NO_THROW((void)consumers.build());
}

TEST(ProblemBuilder, BuildRejectsCapacityBelowTheRateMinFloor) {
    // Two flows at rate_min 3 with F = 2 need 12 units of the node with
    // no consumer admitted; with L = 2 they need 12 units of the link.
    const auto on_node = [](double capacity) {
        model::ProblemBuilder b;
        const auto n = b.addNode("n", capacity);
        for (const char* name : {"f0", "f1"})
            b.routeThroughNode(b.addFlow(name, n, 3.0, 5.0), n, 2.0);
        return b.build();
    };
    EXPECT_THROW((void)on_node(11.9), std::invalid_argument);
    EXPECT_NO_THROW((void)on_node(12.0));  // exactly at the floor

    const auto on_link = [](double capacity) {
        model::ProblemBuilder b;
        const auto n1 = b.addNode("n1", 100.0);
        const auto n2 = b.addNode("n2", 100.0);
        const auto l = b.addLink("l", n1, n2, capacity);
        for (const char* name : {"f0", "f1"})
            b.routeOverLink(b.addFlow(name, n1, 3.0, 5.0), l, 2.0);
        return b.build();
    };
    EXPECT_THROW((void)on_link(11.9), std::invalid_argument);
    EXPECT_NO_THROW((void)on_link(12.0));
}

TEST(ProblemSpec, FlowActiveToggle) {
    auto t = make_tiny_problem();
    EXPECT_TRUE(t.spec.flowActive(t.flow));
    t.spec.setFlowActive(t.flow, false);
    EXPECT_FALSE(t.spec.flowActive(t.flow));
}

TEST(ProblemSpec, SetNodeCapacity) {
    auto t = make_tiny_problem();
    t.spec.setNodeCapacity(t.cnode, 555.0);
    EXPECT_DOUBLE_EQ(t.spec.node(t.cnode).capacity, 555.0);
    EXPECT_THROW(t.spec.setNodeCapacity(t.cnode, 0.0), std::invalid_argument);
    EXPECT_THROW(t.spec.setNodeCapacity(t.cnode, kInf), std::invalid_argument);
}

}  // namespace
