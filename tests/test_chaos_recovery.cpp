// Chaos integration tests: deterministic fault replay, hardened-protocol
// reconvergence for every shipped scenario, crash/restart semantics, and
// the recovery-metrics analyzer.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/dist_lrgp.hpp"
#include "faults/scenarios.hpp"
#include "metrics/recovery.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using dist::DistLrgp;
using dist::DistOptions;

constexpr sim::SimTime kFaultStart = 10.0;
constexpr sim::SimTime kFaultDuration = 2.0;
constexpr sim::SimTime kSamplePeriod = 0.05;
constexpr sim::SimTime kHorizon = 24.0;

DistOptions hardened_options(faults::FaultPlan plan) {
    DistOptions options;
    options.synchronous = false;
    options.sample_period = kSamplePeriod;
    options.hardened = true;
    options.fault_plan = std::move(plan);
    return options;
}

std::vector<faults::ChaosScenario> base_scenarios(const model::ProblemSpec& spec) {
    return faults::standard_scenarios(spec.flowCount(), spec.nodeCount(), spec.linkCount(),
                                      kFaultStart, kFaultDuration);
}

std::size_t fault_sample_index() {
    // Samples land at k*kSamplePeriod (k = 1, 2, ...); index the last one
    // strictly before the fault opens so the baseline window stays clean.
    return static_cast<std::size_t>(kFaultStart / kSamplePeriod) - 1;
}

TEST(ChaosDeterminism, SameFaultPlanAndSeedGiveBitwiseIdenticalTraces) {
    // The determinism contract: chaos runs are regression tests, not
    // flaky ones.  Two lockstep runs of every shipped scenario must
    // produce bitwise-identical utility traces.
    const auto spec = workload::make_base_workload();
    for (const faults::ChaosScenario& scenario : base_scenarios(spec)) {
        DistLrgp a(spec, hardened_options(scenario.plan));
        DistLrgp b(spec, hardened_options(scenario.plan));
        a.runFor(kHorizon);
        b.runFor(kHorizon);
        const auto& ta = a.utilityTrace();
        const auto& tb = b.utilityTrace();
        ASSERT_EQ(ta.size(), tb.size()) << scenario.name;
        for (std::size_t i = 0; i < ta.size(); ++i)
            ASSERT_EQ(ta[i], tb[i]) << scenario.name << " sample " << i;
        EXPECT_EQ(a.messagesSent(), b.messagesSent()) << scenario.name;
        EXPECT_EQ(a.messagesLost(), b.messagesLost()) << scenario.name;
        EXPECT_EQ(a.faultStats().messages_dropped, b.faultStats().messages_dropped)
            << scenario.name;
    }
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
    const auto spec = workload::make_base_workload();
    faults::FaultPlan plan;
    plan.losses.push_back(
        faults::LossBurst{{kFaultStart, kFaultStart + kFaultDuration}, 0.4, std::nullopt,
                          std::nullopt});
    DistOptions oa = hardened_options(plan);
    DistOptions ob = hardened_options(plan);
    ob.seed = oa.seed + 1;
    DistLrgp a(spec, oa);
    DistLrgp b(spec, ob);
    a.runFor(14.0);
    b.runFor(14.0);
    EXPECT_NE(a.faultStats().messages_dropped, b.faultStats().messages_dropped);
}

TEST(ChaosRecovery, EveryShippedScenarioReconvergesWithinOnePercent) {
    // The headline robustness guarantee: under every shipped fault
    // scenario, the hardened protocol returns to within 1% of its
    // pre-fault steady-state utility.
    const auto spec = workload::make_base_workload();
    for (const faults::ChaosScenario& scenario : base_scenarios(spec)) {
        DistLrgp d(spec, hardened_options(scenario.plan));
        d.runFor(kHorizon);
        const metrics::RecoveryReport report = metrics::analyze_recovery(
            d.utilityTrace(), fault_sample_index(), kSamplePeriod);  // epsilon = 1%
        EXPECT_TRUE(report.reconverged) << scenario.name << ": " << scenario.description;
        EXPECT_LT(report.time_to_reconverge, kHorizon) << scenario.name;
        EXPECT_GE(report.dip_integral, 0.0) << scenario.name;
    }
}

TEST(ChaosRecovery, NodeCrashRestartSemantics) {
    const auto spec = workload::make_base_workload();
    const auto victim_index = static_cast<std::uint32_t>(spec.nodeCount() - 1);
    const faults::AgentRef victim{faults::AgentKind::kNode, victim_index};
    faults::FaultPlan plan;
    plan.crashes.push_back(
        faults::CrashEvent{victim, kFaultStart, kFaultStart + kFaultDuration});

    DistLrgp d(spec, hardened_options(plan));
    EXPECT_FALSE(d.agentDown(victim));
    d.runFor(kFaultStart + 1.0);  // inside the outage
    EXPECT_TRUE(d.agentDown(victim));
    EXPECT_EQ(d.faultStats().crashes, 1u);
    EXPECT_EQ(d.faultStats().restarts, 0u);
    d.runFor(kHorizon - (kFaultStart + 1.0));
    EXPECT_FALSE(d.agentDown(victim));
    EXPECT_EQ(d.faultStats().restarts, 1u);
    // The outage was noticed: sources suspected the silent node.
    EXPECT_GT(d.suspicionEvents(), 0u);
}

TEST(ChaosRecovery, TotalPartitionDegradesSourcesToRateFloor) {
    // Cut every node off from every source for a long window: with a
    // majority of priced resources suspected, hardened sources must
    // degrade to their conservative r_min rather than trust stale prices.
    const auto spec = workload::make_base_workload();
    faults::FaultPlan plan;
    faults::PartitionWindow partition;
    partition.window = {kFaultStart, kFaultStart + 4.0};
    for (std::uint32_t n = 0; n < spec.nodeCount(); ++n)
        partition.island.push_back({faults::AgentKind::kNode, n});
    plan.partitions.push_back(partition);

    DistLrgp d(spec, hardened_options(plan));
    d.runFor(kFaultStart + 2.0);  // well past the heartbeat timeout
    const model::Allocation during = d.snapshot();
    for (const model::FlowSpec& f : spec.flows()) {
        if (!f.active) continue;
        EXPECT_DOUBLE_EQ(during.rates[f.id.index()], f.rate_min) << "flow " << f.id.index();
    }
    // Backoff re-announcement kicked in instead of every-tick flooding.
    EXPECT_GT(d.reannouncementsSent(), 0u);
    // After the partition heals, the system recovers.
    d.runFor(kHorizon - (kFaultStart + 2.0));
    const metrics::RecoveryReport report =
        metrics::analyze_recovery(d.utilityTrace(), fault_sample_index(), kSamplePeriod);
    EXPECT_TRUE(report.reconverged);
}

TEST(ChaosRecovery, UnhardenedRunsAcceptPlansToo) {
    // Fault plans work without hardening: the baseline protocol (price
    // averaging only) runs under chaos too.
    const auto spec = workload::make_base_workload();
    faults::FaultPlan plan;
    plan.losses.push_back(
        faults::LossBurst{{2.0, 3.0}, 0.4, std::nullopt, std::nullopt});
    DistOptions options;
    options.synchronous = false;
    options.fault_plan = plan;
    DistLrgp d(spec, options);
    d.runFor(5.0);
    EXPECT_GT(d.faultStats().messages_dropped, 0u);
    EXPECT_EQ(d.suspicionEvents(), 0u);  // no detector without hardening
}

TEST(ChaosValidation, FaultPlanAgentRefsMustExist) {
    const auto spec = workload::make_base_workload();
    DistOptions options;
    options.synchronous = false;
    options.fault_plan.crashes.push_back(faults::CrashEvent{
        {faults::AgentKind::kNode, static_cast<std::uint32_t>(spec.nodeCount())}, 1.0, 2.0});
    EXPECT_THROW((DistLrgp{spec, options}), std::invalid_argument);

    DistOptions options2;
    options2.synchronous = false;
    options2.fault_plan.partitions.push_back(faults::PartitionWindow{
        {1.0, 2.0}, {{faults::AgentKind::kLink, 0}}});  // base workload has no links
    EXPECT_THROW((DistLrgp{spec, options2}), std::invalid_argument);
}

TEST(ChaosValidation, SynchronousModeRejectsChaos) {
    const auto spec = workload::make_base_workload();
    DistOptions with_plan;  // synchronous by default
    with_plan.fault_plan.reorders.push_back(faults::ReorderWindow{{0.0, 1.0}, 0.5, 0.1});
    EXPECT_THROW((DistLrgp{spec, with_plan}), std::invalid_argument);

    DistOptions hardened;
    hardened.hardened = true;
    EXPECT_THROW((DistLrgp{spec, hardened}), std::invalid_argument);
}

// ----------------------------------------------------- recovery metrics

metrics::TimeSeries synthetic(std::initializer_list<std::pair<int, double>> runs) {
    metrics::TimeSeries t;
    for (const auto& [count, value] : runs)
        for (int i = 0; i < count; ++i) t.append(value);
    return t;
}

TEST(RecoveryMetrics, FlatTraceReconvergesImmediately) {
    const auto trace = synthetic({{100, 500.0}});
    const auto report = metrics::analyze_recovery(trace, 50, 0.1);
    EXPECT_TRUE(report.reconverged);
    EXPECT_DOUBLE_EQ(report.time_to_reconverge, 0.0);
    EXPECT_DOUBLE_EQ(report.dip_integral, 0.0);
    EXPECT_DOUBLE_EQ(report.baseline_utility, 500.0);
}

TEST(RecoveryMetrics, DipAndRecoveryMeasured) {
    // 40 samples at 100, 10 samples at 50, 70 samples back at 100.
    const auto trace = synthetic({{40, 100.0}, {10, 50.0}, {70, 100.0}});
    const auto report = metrics::analyze_recovery(trace, 40, 0.1);
    ASSERT_TRUE(report.reconverged);
    // The trailing 20-window first clears the dip entirely at sample 50.
    EXPECT_DOUBLE_EQ(report.time_to_reconverge, 1.0);
    EXPECT_DOUBLE_EQ(report.min_utility, 50.0);
    EXPECT_DOUBLE_EQ(report.max_dip, 50.0);
    // 10 samples, 50 below target, 0.1s each.
    EXPECT_NEAR(report.dip_integral, 50.0, 1e-9);
}

TEST(RecoveryMetrics, PermanentDropNeverReconvergesToBaseline) {
    const auto trace = synthetic({{40, 100.0}, {80, 50.0}});
    const auto report = metrics::analyze_recovery(trace, 40, 0.1);
    EXPECT_FALSE(report.reconverged);
    EXPECT_TRUE(std::isinf(report.time_to_reconverge));
    EXPECT_GT(report.dip_integral, 0.0);
}

TEST(RecoveryMetrics, FinalSteadyStateTargetHandlesPermanentChange) {
    const auto trace = synthetic({{40, 100.0}, {10, 30.0}, {70, 80.0}});
    metrics::RecoveryOptions options;
    options.target = metrics::RecoveryTarget::kFinalSteadyState;
    const auto report = metrics::analyze_recovery(trace, 40, 0.1, options);
    EXPECT_TRUE(report.reconverged);
    EXPECT_DOUBLE_EQ(report.target_utility, 80.0);
    EXPECT_DOUBLE_EQ(report.baseline_utility, 100.0);
    EXPECT_DOUBLE_EQ(report.min_utility, 30.0);
}

TEST(RecoveryMetrics, RejectsTracesTooShortForWindows) {
    const auto trace = synthetic({{60, 100.0}});
    auto call = [&](std::size_t fault_index, double period, metrics::RecoveryOptions options) {
        (void)metrics::analyze_recovery(trace, fault_index, period, options);
    };
    EXPECT_THROW(call(20, 0.1, {}), std::invalid_argument);  // baseline window too long
    EXPECT_THROW(call(55, 0.1, {}), std::invalid_argument);  // settle window too long
    EXPECT_THROW(call(40, 0.0, {}), std::invalid_argument);  // bad sample period
    metrics::RecoveryOptions bad;
    bad.epsilon = 0.0;
    EXPECT_THROW(call(40, 0.1, bad), std::invalid_argument);
}

}  // namespace
