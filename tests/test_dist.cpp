#include <gtest/gtest.h>

#include "dist/dist_lrgp.hpp"
#include "lrgp/optimizer.hpp"
#include "test_helpers.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using dist::DistLrgp;
using dist::DistOptions;

TEST(DistSync, ProtocolMatchesCentralizedTrace) {
    // The synchronous distributed protocol only distributes the
    // arithmetic: its per-round utility trace must be bit-identical to
    // the centralized optimizer's per-iteration trace.
    const auto spec = workload::make_base_workload();

    core::LrgpOptimizer central(spec);
    central.run(40);

    DistLrgp distributed(spec, DistOptions{});
    distributed.runRounds(40);

    const auto& central_trace = central.utilityTrace();
    const auto& dist_trace = distributed.utilityTrace();
    ASSERT_GE(dist_trace.size(), 40u);
    for (std::size_t i = 0; i < 40; ++i)
        EXPECT_DOUBLE_EQ(dist_trace[i], central_trace[i]) << "round " << i + 1;
}

TEST(DistSync, LatencyJitterDoesNotChangeResults) {
    // Synchrony is enforced by counting, not timing: different latency
    // distributions must give identical round outcomes.
    const auto spec = workload::make_base_workload();
    DistOptions fast;
    fast.latency_min = 0.001;
    fast.latency_max = 0.002;
    fast.seed = 7;
    DistOptions slow;
    slow.latency_min = 0.05;
    slow.latency_max = 0.5;
    slow.seed = 99;

    DistLrgp a(spec, fast);
    a.runRounds(25);
    DistLrgp b(spec, slow);
    b.runRounds(25);
    for (std::size_t i = 0; i < 25; ++i) EXPECT_DOUBLE_EQ(a.utilityTrace()[i], b.utilityTrace()[i]);
    // But wall-clock (sim time) differs with latency.
    EXPECT_LT(a.now(), b.now());
}

TEST(DistSync, RoundTimeScalesWithLatency) {
    // An iteration costs roughly one round trip (rate down, report back).
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.latency_min = options.latency_max = 0.010;  // fixed 10ms
    DistLrgp d(spec, options);
    d.runRounds(10);
    // 10 rounds of (10ms down + 10ms up) = 0.2s.
    EXPECT_NEAR(d.now(), 0.2, 0.02);
}

TEST(DistSync, MessageCountPerRound) {
    const auto t = lrgp::test::make_tiny_problem();
    DistLrgp d(t.spec, DistOptions{});
    d.runRounds(5);
    // Per round: 1 rate message (flow->cnode) + 1 report (cnode->source).
    // Allow the in-flight tail of the final round.
    EXPECT_GE(d.messagesSent(), 10u);
    EXPECT_LE(d.messagesSent(), 12u);
}

TEST(DistSync, RunRoundsValidation) {
    const auto t = lrgp::test::make_tiny_problem();
    DistLrgp d(t.spec, DistOptions{});
    EXPECT_THROW(d.runRounds(0), std::invalid_argument);
    DistOptions zero_latency;
    zero_latency.latency_min = 0.0;
    EXPECT_THROW((DistLrgp{t.spec, zero_latency}), std::invalid_argument);
}

TEST(DistSync, RemoveFlowRejected) {
    const auto spec = workload::make_base_workload();
    DistLrgp d(spec, DistOptions{});
    EXPECT_THROW(d.removeFlowAt(model::FlowId{5}, 1.0), std::logic_error);
}

TEST(DistAsync, ConvergesNearCentralizedUtility) {
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer central(spec);
    central.run(120);

    DistOptions options;
    options.synchronous = false;
    DistLrgp d(spec, options);
    d.runFor(10.0);  // ~200 agent periods
    EXPECT_NEAR(d.currentUtility(), central.currentUtility(),
                0.05 * central.currentUtility());
    EXPECT_TRUE(model::check_feasibility(spec, d.snapshot()).feasible());
}

TEST(DistAsync, UtilitySamplerProducesTrace) {
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.synchronous = false;
    options.sample_period = 0.1;
    DistLrgp d(spec, options);
    d.runFor(5.0);
    EXPECT_NEAR(static_cast<double>(d.utilityTrace().size()), 50.0, 2.0);
}

TEST(DistAsync, FlowRemovalRecovers) {
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.synchronous = false;
    DistLrgp d(spec, options);
    d.runFor(8.0);
    const double before = d.currentUtility();
    d.removeFlowAt(workload::find_flow(spec, "f0_5"), d.now() + 0.1);
    d.runFor(8.0);
    const double after = d.currentUtility();
    EXPECT_LT(after, before);
    EXPECT_GT(after, 0.0);
    EXPECT_TRUE(model::check_feasibility(d.problem(), d.snapshot()).feasible());
}

TEST(DistAsync, PriceWindowValidation) {
    const auto t = lrgp::test::make_tiny_problem();
    DistOptions options;
    options.synchronous = false;
    options.price_window = 0;
    EXPECT_THROW((DistLrgp{t.spec, options}), std::invalid_argument);
}

TEST(DistAsync, LargerPriceWindowStillConverges) {
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.synchronous = false;
    options.price_window = 8;
    DistLrgp d(spec, options);
    d.runFor(12.0);
    core::LrgpOptimizer central(spec);
    central.run(150);
    EXPECT_NEAR(d.currentUtility(), central.currentUtility(),
                0.08 * central.currentUtility());
}

TEST(DistOptions, ValidationRejectsInconsistentSettings) {
    const auto spec = workload::make_base_workload();

    DistOptions inverted_latency;
    inverted_latency.latency_min = 0.02;
    inverted_latency.latency_max = 0.01;
    EXPECT_THROW((DistLrgp{spec, inverted_latency}), std::invalid_argument);

    DistOptions negative_loss;
    negative_loss.synchronous = false;
    negative_loss.message_loss_probability = -0.1;
    EXPECT_THROW((DistLrgp{spec, negative_loss}), std::invalid_argument);

    DistOptions bad_period;
    bad_period.synchronous = false;
    bad_period.agent_period = 0.0;
    EXPECT_THROW((DistLrgp{spec, bad_period}), std::invalid_argument);

    DistOptions bad_sampler;
    bad_sampler.synchronous = false;
    bad_sampler.sample_period = -1.0;
    EXPECT_THROW((DistLrgp{spec, bad_sampler}), std::invalid_argument);
}

TEST(DistAsync, RunForRejectsNegativeDuration) {
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.synchronous = false;
    DistLrgp d(spec, options);
    EXPECT_THROW(d.runFor(-1.0), std::invalid_argument);
}

TEST(DistAsync, FlowRemovalUnderMessageLossStillReconverges) {
    // A departing flow whose goodbye coincides with 20% message loss:
    // the surviving flows must still settle near the centralized optimum
    // for the reduced problem.
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.synchronous = false;
    options.message_loss_probability = 0.2;
    DistLrgp d(spec, options);
    d.runFor(8.0);
    const model::FlowId removed = workload::find_flow(spec, "f0_5");
    d.removeFlowAt(removed, d.now() + 0.1);
    d.runFor(12.0);

    // Centralized reference on the same problem without the flow.
    core::LrgpOptimizer central(spec);
    central.removeFlow(removed);
    central.run(200);

    EXPECT_DOUBLE_EQ(d.snapshot().rates[removed.index()], 0.0);
    EXPECT_NEAR(d.currentUtility(), central.currentUtility(),
                0.08 * central.currentUtility());
    EXPECT_TRUE(model::check_feasibility(d.problem(), d.snapshot()).feasible());
}

}  // namespace
