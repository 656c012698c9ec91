// Message-level dataplane: enacted allocations running as simulated
// traffic, measured against the optimizer's planned numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "broker/overlay.hpp"
#include "dataplane/closed_loop.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/token_bucket.hpp"
#include "dist/dist_lrgp.hpp"
#include "faults/scenarios.hpp"
#include "lrgp/enactment.hpp"
#include "lrgp/optimizer.hpp"
#include "metrics/recovery.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "scenario/runner.hpp"
#include "utility/utility_function.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

/// Two consumer-hosting nodes, one link, two flows, three classes — big
/// enough to exercise link chains, fan-out and shared nodes, small
/// enough that expected counts can be reasoned about exactly.
model::ProblemSpec makeSmallSpec() {
    model::ProblemBuilder b;
    const model::NodeId s0 = b.addNode("S0", 100.0);
    const model::NodeId s1 = b.addNode("S1", 80.0);
    const model::LinkId l0 = b.addLink("l0", s0, s1, 50.0);
    const model::FlowId f0 = b.addFlow("f0", s0, 1.0, 10.0);
    b.routeThroughNode(f0, s0, 1.0);
    b.routeThroughNode(f0, s1, 1.0);
    b.routeOverLink(f0, l0, 1.0);
    const model::FlowId f1 = b.addFlow("f1", s1, 1.0, 8.0);
    b.routeThroughNode(f1, s1, 2.0);
    b.addClass("c0", f0, s0, 3, 0.5, std::make_shared<utility::LogUtility>(20.0));
    b.addClass("c1", f0, s1, 2, 1.0, std::make_shared<utility::LogUtility>(10.0));
    b.addClass("c2", f1, s1, 4, 0.5, std::make_shared<utility::LogUtility>(15.0));
    return b.build();
}

model::Allocation smallAllocation() {
    model::Allocation alloc;
    alloc.rates = {4.0, 2.0};
    alloc.populations = {2, 1, 3};
    return alloc;
}

TEST(TokenBucket, DeterministicArrivalsAtRefillRateNeverDrop) {
    dataplane::TokenBucket bucket(1.0, 5.0);
    double now = 0.0;
    for (int i = 0; i < 1000; ++i) {
        now += 0.2;  // exactly 1/rate apart
        EXPECT_TRUE(bucket.tryConsume(now)) << "arrival " << i;
    }
}

TEST(TokenBucket, PolicesBeyondBurstAllowance) {
    dataplane::TokenBucket bucket(4.0, 1.0);
    int passed = 0;
    for (int i = 0; i < 10; ++i) {
        if (bucket.tryConsume(0.0)) ++passed;
    }
    EXPECT_EQ(passed, 4);  // the burst allowance, then empty
    EXPECT_TRUE(bucket.tryConsume(1.0));
    EXPECT_FALSE(bucket.tryConsume(1.0));
}

TEST(Dataplane, SteadyStateMatchesPlannedUtilityWithinTwoPercent) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::Dataplane dp(spec);
    const model::Allocation alloc = smallAllocation();
    ASSERT_TRUE(model::check_feasibility(spec, alloc).feasible());
    dp.notePlanned(alloc);
    dp.enact(alloc);
    dp.runUntil(60.0);

    const dataplane::DataplaneStats stats = dp.collectStats();
    EXPECT_EQ(stats.dropped_link, 0u);
    EXPECT_EQ(stats.dropped_node, 0u);
    EXPECT_EQ(stats.drop_rate, 0.0);
    EXPECT_EQ(stats.total_shaped, 0u);
    ASSERT_GT(stats.utility.planned, 0.0);
    const double gap =
        std::abs(stats.utility.achieved_cumulative - stats.utility.planned) /
        stats.utility.planned;
    EXPECT_LE(gap, 0.02) << "achieved " << stats.utility.achieved_cumulative << " vs planned "
                         << stats.utility.planned;
    // Lightly loaded servers: end-to-end latency is a few service times.
    EXPECT_GT(stats.latency.count, 0u);
    EXPECT_LT(stats.latency.p99, 1.0);
    EXPECT_LE(stats.latency.p50, stats.latency.p99);
    EXPECT_LE(stats.latency.p99, stats.latency.max);
}

TEST(Dataplane, TokenBucketShapesOverdrivenProducer) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::Dataplane dp(spec);
    const model::Allocation alloc = smallAllocation();
    dp.enact(alloc);
    dp.setOfferedRate(model::FlowId{0}, 8.0);  // enacted is 4.0
    dp.runUntil(50.0);

    const dataplane::DataplaneStats stats = dp.collectStats();
    const dataplane::FlowStats& f0 = stats.flows[0];
    EXPECT_GT(f0.shaped, 0u);
    // Emission rate is pinned at the enacted rate (plus the initial
    // burst allowance), not the offered rate.
    EXPECT_NEAR(static_cast<double>(f0.emitted) / 50.0, 4.0, 0.4);
    // Everything that did get in is delivered (no overload downstream).
    EXPECT_EQ(stats.dropped_link, 0u);
    EXPECT_EQ(stats.dropped_node, 0u);
}

TEST(Dataplane, OverloadedNodeDropsAndUtilityFallsShort) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::Dataplane dp(spec);
    model::Allocation alloc = smallAllocation();
    alloc.rates = {10.0, 8.0};
    alloc.populations = {3, 2, 4};
    dp.notePlanned(alloc);
    dp.enact(alloc);
    // A capacity fault shrinks S1 far below the allocation's needs.
    dp.setNodeCapacity(model::NodeId{1}, 5.0);
    dp.runUntil(40.0);

    const dataplane::DataplaneStats stats = dp.collectStats();
    EXPECT_GT(stats.dropped_node, 0u);
    EXPECT_GT(stats.drop_rate, 0.0);
    EXPECT_LT(stats.utility.achieved_cumulative, stats.utility.planned * 0.95);
    // The overloaded server sits at full utilization with a deep queue.
    const dataplane::EntityStats& s1 = stats.nodes[1];
    EXPECT_GT(s1.dropped, 0u);
    EXPECT_GT(s1.utilization, 0.9);
    EXPECT_EQ(s1.peak_queue, 64u);
}

TEST(Dataplane, MidRunEnactmentShiftsEmissionRate) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::Dataplane dp(spec);
    model::Allocation alloc = smallAllocation();
    dp.enact(alloc);
    dp.runUntil(30.0);
    alloc.rates = {8.0, 4.0};
    dp.enact(alloc);
    dp.runUntil(60.0);

    const dataplane::DataplaneStats stats = dp.collectStats();
    EXPECT_EQ(stats.enactments, 2u);
    EXPECT_NEAR(static_cast<double>(stats.flows[0].emitted), 4.0 * 30 + 8.0 * 30, 8.0);
    EXPECT_NEAR(static_cast<double>(stats.flows[1].emitted), 2.0 * 30 + 4.0 * 30, 8.0);
    EXPECT_EQ(stats.dropped_link, 0u);
    EXPECT_EQ(stats.dropped_node, 0u);
}

TEST(Dataplane, FlowChurnStopsEmissionAndDipsAchievedUtility) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::Dataplane dp(spec);
    dp.enact(smallAllocation());
    dp.runUntil(30.0);
    const double steady = dp.achievedUtilityTrace().trailingMean(10);
    const std::uint64_t emitted_at_churn = dp.collectStats().flows[0].emitted;

    dp.setFlowActive(model::FlowId{0}, false);
    dp.runUntil(60.0);

    const dataplane::DataplaneStats stats = dp.collectStats();
    // The source stopped: at most one already-scheduled emission later.
    EXPECT_LE(stats.flows[0].emitted, emitted_at_churn + 1);
    EXPECT_FALSE(stats.flows[0].active);
    // f1 keeps delivering, so utility dips but does not vanish.
    const double after = dp.achievedUtilityTrace().trailingMean(10);
    EXPECT_LT(after, 0.75 * steady);
    EXPECT_GT(after, 0.0);
}

TEST(Dataplane, SameSeedRunsAreBitwiseIdenticalWithAndWithoutObs) {
    const model::ProblemSpec spec = makeSmallSpec();
    const auto drive = [&spec](obs::Registry* registry) {
        dataplane::DataplaneOptions options;
        options.arrivals = dataplane::ArrivalProcess::kPoisson;
        options.seed = 42;
        dataplane::Dataplane dp(spec, options);
        if (registry != nullptr) dp.attachObservability(registry);
        model::Allocation alloc = smallAllocation();
        dp.notePlanned(alloc);
        dp.enact(alloc);
        dp.runUntil(20.0);
        alloc.rates = {6.0, 3.0};
        dp.enact(alloc);
        dp.setFlowActive(model::FlowId{1}, false);
        dp.runUntil(40.0);
        return dp.statsJson(true);
    };
    const std::string first = drive(nullptr);
    const std::string second = drive(nullptr);
    EXPECT_EQ(first, second);
    obs::Registry registry;
    const std::string with_obs = drive(&registry);
    EXPECT_EQ(first, with_obs);
}

TEST(Dataplane, PoissonArrivalsAverageTheEnactedRate) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::DataplaneOptions options;
    options.arrivals = dataplane::ArrivalProcess::kPoisson;
    options.seed = 7;
    options.token_bucket_depth = 64.0;  // generous: police only the mean
    dataplane::Dataplane dp(spec, options);
    dp.enact(smallAllocation());
    dp.runUntil(200.0);

    const dataplane::DataplaneStats stats = dp.collectStats();
    // 800 expected emissions: the sample mean sits within ~4 sigma.
    EXPECT_NEAR(static_cast<double>(stats.flows[0].emitted), 800.0, 120.0);
    EXPECT_NEAR(static_cast<double>(stats.flows[1].emitted), 400.0, 90.0);
}

TEST(Dataplane, EnactRejectsMisSizedAllocation) {
    const model::ProblemSpec spec = makeSmallSpec();
    dataplane::Dataplane dp(spec);
    model::Allocation alloc = smallAllocation();
    alloc.rates.push_back(1.0);
    EXPECT_THROW(dp.enact(alloc), std::invalid_argument);
    EXPECT_THROW(dp.notePlanned(alloc), std::invalid_argument);
}

TEST(Dataplane, BrokerOverlayAndDataplaneAgreeOnEnactedState) {
    const model::ProblemSpec spec = makeSmallSpec();
    broker::BrokerOverlay overlay(spec);
    for (std::size_t j = 0; j < spec.classCount(); ++j) {
        const model::ClassId cls{static_cast<std::uint32_t>(j)};
        for (int c = 0; c < spec.consumerClass(cls).max_consumers; ++c) {
            overlay.addConsumer(cls);
        }
    }
    dataplane::Dataplane dp(spec);
    const model::Allocation alloc = smallAllocation();
    overlay.enact(alloc);
    dp.enact(alloc);
    dp.runUntil(20.0);

    const std::vector<int> admitted = overlay.admittedPopulations();
    const dataplane::DataplaneStats stats = dp.collectStats();
    ASSERT_EQ(admitted.size(), stats.classes.size());
    for (std::size_t j = 0; j < admitted.size(); ++j) {
        EXPECT_EQ(admitted[j], stats.classes[j].population) << "class " << j;
        if (admitted[j] > 0) {
            EXPECT_GT(stats.classes[j].delivered, 0u) << "class " << j;
        }
    }
    for (std::size_t i = 0; i < spec.flowCount(); ++i) {
        EXPECT_EQ(overlay.flowRate(model::FlowId{static_cast<std::uint32_t>(i)}),
                  stats.flows[i].enacted_rate);
    }
}

TEST(ClosedLoop, OptimizerDrivenDataplaneConvergesToPlannedUtility) {
    const model::ProblemSpec spec = makeSmallSpec();
    core::LrgpOptimizer optimizer{model::ProblemSpec(spec)};
    dataplane::Dataplane dp(spec);
    core::EnactmentOptions options;
    options.rate_deadband = 0.05;
    options.population_deadband = 0;
    options.min_interval = 5.0;
    core::EnactmentController enactor(
        options, [&dp](const model::Allocation& allocation) { dp.enact(allocation); });
    const scenario::ReplayPlant plant{dp, enactor};
    // 30 s of dataplane time, one optimizer iteration per 50 ms.
    scenario::replay(optimizer, {}, 0.05, 600, &plant);

    EXPECT_GT(optimizer.iterationsRun(), 100);
    EXPECT_GE(enactor.enactments(), 1u);
    EXPECT_LE(enactor.enactments(), enactor.offers());
    const dataplane::DataplaneStats stats = dp.collectStats();
    ASSERT_GT(stats.utility.planned, 0.0);
    // Windows are coarse (0.5 s) so compare smoothed achieved utility
    // against the optimizer's plan; the loop should close the gap to a
    // few percent once rates settle.
    const double achieved = dp.achievedUtilityTrace().trailingMean(20);
    const double planned = dp.plannedUtilityTrace().trailingMean(20);
    EXPECT_GT(achieved, 0.85 * planned);
    EXPECT_LT(achieved, 1.10 * planned);
    EXPECT_EQ(stats.dropped_node, 0u);
}

/// One run of the hardened asynchronous protocol enacted into a Poisson
/// dataplane, on the Table 1 shape scaled so the enacted optimum leaves
/// queueing headroom.  Today's values: the planned-vs-achieved gap
/// (planned - achieved) / planned, truncated to four decimals, and the
/// virtual-time p99 latency, truncated to 10 us.
struct MatrixRow {
    const char* condition;  ///< steady_state | flow_churn | partition
    std::uint32_t seed;
    double utility_gap;
    double latency_p99;
};

constexpr MatrixRow kMatrix[] = {
    {"steady_state", 1, 0.0163, 0.00600}, {"steady_state", 2, -0.0047, 0.00606},
    {"steady_state", 3, -0.0025, 0.00602}, {"flow_churn", 1, 0.0150, 0.00597},
    {"flow_churn", 2, 0.0158, 0.00606},    {"flow_churn", 3, -0.0003, 0.00599},
    {"partition", 1, 0.0260, 0.00605},     {"partition", 2, 0.0091, 0.00606},
    {"partition", 3, 0.0094, 0.00607},
};

TEST(ClosedLoop, DistMatrixTracksPlanAndRecoversConsistently) {
    constexpr double kFaultStart = 10.0;
    constexpr double kHorizon = 24.0;
    constexpr double kDistSamplePeriod = 0.05;
    constexpr double kDataplaneSamplePeriod = 0.5;
    workload::WorkloadOptions wopts;
    wopts.rate_max = 60.0;
    wopts.node_capacity = 3.0e7;
    const model::ProblemSpec spec = workload::make_scaled_workload(wopts);

    for (const MatrixRow& row : kMatrix) {
        const std::string condition = row.condition;
        SCOPED_TRACE(condition + " seed " + std::to_string(row.seed));
        const bool churn = condition == "flow_churn";
        const bool partition = condition == "partition";

        dist::DistOptions dopts;
        dopts.synchronous = false;
        dopts.sample_period = kDistSamplePeriod;
        dopts.seed = row.seed;
        dopts.hardened = true;
        if (partition) {
            // Cut every node off from every source for [10 s, 12 s]:
            // hardened sources degrade to r_min, so the enacted rates
            // collapse and the wire must show it.
            faults::PartitionWindow cut;
            cut.window = {kFaultStart, kFaultStart + 2.0};
            for (std::uint32_t n = 0; n < spec.nodeCount(); ++n)
                cut.island.push_back({faults::AgentKind::kNode, n});
            dopts.fault_plan.partitions.push_back(cut);
        }
        dist::DistLrgp engine{model::ProblemSpec(spec), dopts};

        dataplane::DataplaneOptions popts;
        popts.arrivals = dataplane::ArrivalProcess::kPoisson;
        popts.seed = 1000 + row.seed;
        popts.token_bucket_depth = 64.0;  // police the mean, tolerate Poisson bursts
        popts.sample_period = kDataplaneSamplePeriod;
        dataplane::Dataplane dp(spec, popts);

        core::EnactmentOptions eopts;
        eopts.rate_deadband = 0.02;
        eopts.population_deadband = 0;
        eopts.min_interval = 1.0;
        dataplane::DistCoupling coupling(engine, dp, eopts);
        if (churn)
            engine.removeFlowAt(
                model::FlowId{static_cast<std::uint32_t>(spec.flowCount() - 1)}, kFaultStart);
        engine.runFor(kHorizon);
        dp.runUntil(kHorizon);
        EXPECT_GE(coupling.enactments(), 2u);

        // Planned vs achieved over the last 5 s of dataplane samples.
        const double planned = dp.plannedUtilityTrace().trailingMean(10);
        const double achieved = dp.achievedUtilityTrace().trailingMean(10);
        ASSERT_GT(planned, 0.0);
        EXPECT_LE(std::abs(planned - achieved) / planned, std::abs(row.utility_gap) + 0.01);
        const dataplane::DataplaneStats stats = dp.collectStats();
        EXPECT_LE(stats.drop_rate, 0.01);  // 0 today
        EXPECT_LE(stats.latency.p99, 1.25 * row.latency_p99);

        // Allocation-level recovery (the protocol's own utility trace) and
        // measured recovery (what consumers experienced).  A departure is
        // permanent, so churn runs measure against the final steady state.
        const auto target = churn ? metrics::RecoveryTarget::kFinalSteadyState
                                  : metrics::RecoveryTarget::kPreFaultBaseline;
        metrics::RecoveryOptions alloc_opts;
        alloc_opts.epsilon = 0.02;
        alloc_opts.target = target;
        const metrics::RecoveryReport alloc = metrics::analyze_recovery(
            engine.utilityTrace(), static_cast<std::size_t>(kFaultStart / kDistSamplePeriod) - 1,
            kDistSamplePeriod, alloc_opts);
        metrics::RecoveryOptions measured_opts;
        measured_opts.epsilon = 0.05;
        measured_opts.baseline_window = 10;
        measured_opts.settle_window = 5;
        measured_opts.target = target;
        const metrics::RecoveryReport measured = metrics::analyze_recovery(
            dp.achievedUtilityTrace(),
            static_cast<std::size_t>(kFaultStart / kDataplaneSamplePeriod) - 1,
            kDataplaneSamplePeriod, measured_opts);

        // Both traces tell the same story: a dip in one is a dip in the
        // other, and both recover.  The measured threshold is higher
        // because Poisson arrivals put 5-10% of sampling noise on each
        // 0.5 s window even at steady state; a real fault dip is deeper.
        EXPECT_GT(measured.baseline_utility, 0.0);
        const bool alloc_dipped = alloc.max_dip > 0.05 * alloc.baseline_utility;
        const bool measured_dipped = measured.max_dip > 0.15 * measured.baseline_utility;
        EXPECT_EQ(alloc_dipped, measured_dipped);
        EXPECT_EQ(alloc_dipped, partition);
        EXPECT_EQ(alloc.reconverged, measured.reconverged);
        EXPECT_TRUE(measured.reconverged);
    }
}

}  // namespace
