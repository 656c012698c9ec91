// Live asynchronous shard-agent runtime suite (runtime/runtime.hpp):
// option and horizon validation, a pool thread that fails to start,
// deterministic virtual-time replay, live-fault reconvergence for every
// shipped scenario, crash recovery from engine snapshots, and
// suspicion/degradation/backpressure bookkeeping.  Runs under the
// `async` ctest label in Release and under TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "faults/scenarios.hpp"
#include "metrics/recovery.hpp"
#include "runtime/runtime.hpp"
#include "shard/sharded_engine.hpp"
#include "shard/subproblems.hpp"
#include "thread_start_failure.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using runtime::AsyncShardRuntime;
using runtime::RuntimeOptions;

constexpr int kAgents = 4;
constexpr double kFaultStart = 10.0;
constexpr double kFaultDuration = 2.0;
constexpr double kHorizon = 24.0;
const double kSamplePeriod = AsyncShardRuntime::samplePeriod();

RuntimeOptions base_runtime(faults::FaultPlan plan = {}) {
    RuntimeOptions options;
    options.agents = kAgents;
    options.fault_plan = std::move(plan);
    return options;
}

/// The catalog against runtime agents: agent i is {kNode, i} for message
/// faults and matches crash events by index.
std::vector<faults::ChaosScenario> runtime_scenarios() {
    return faults::standard_scenarios(kAgents, kAgents, 0, kFaultStart, kFaultDuration);
}

std::size_t fault_sample_index() {
    // Samples land at k*kSamplePeriod (k = 1, 2, ...); index the last one
    // strictly before the fault opens so the baseline window stays clean.
    return static_cast<std::size_t>(kFaultStart / kSamplePeriod) - 1;
}

void expect_throws_mentioning(RuntimeOptions options, const std::string& needle) {
    const auto spec = workload::make_base_workload();
    try {
        AsyncShardRuntime runtime(spec, {}, std::move(options));
        FAIL() << "expected std::invalid_argument mentioning \"" << needle << "\"";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

TEST(AsyncRuntimeOptions, RejectsNonPositiveAgentCount) {
    RuntimeOptions options = base_runtime();
    options.agents = 0;
    expect_throws_mentioning(options, "agents");
}

TEST(AsyncRuntimeOptions, RejectsFaultPlanReferencingUnknownAgent) {
    RuntimeOptions options = base_runtime();
    options.fault_plan.crashes.push_back(
        faults::CrashEvent{{faults::AgentKind::kNode, 7}, 1.0, 2.0});
    expect_throws_mentioning(options, "fault plan");

    RuntimeOptions island = base_runtime();
    island.fault_plan.partitions.push_back(faults::PartitionWindow{
        {1.0, 2.0}, {{faults::AgentKind::kNode, static_cast<std::uint32_t>(kAgents)}}});
    expect_throws_mentioning(island, "island");
}

TEST(AsyncRuntimeOptions, RejectsMalformedFaultPlan) {
    RuntimeOptions options = base_runtime();
    options.fault_plan.losses.push_back(
        faults::LossBurst{{5.0, 2.0}, 0.5, std::nullopt, std::nullopt});  // inverted window
    const auto spec = workload::make_base_workload();
    EXPECT_THROW((AsyncShardRuntime{spec, {}, options}), std::invalid_argument);
}

TEST(AsyncRuntime, RunForRejectsNonPositiveDuration) {
    // Also a horizon that cannot finish: 1e300 s overflows the tick
    // count, and 2^53 ticks (of 0.005 s) or more cannot be counted
    // exactly.  Each is rejected before any agent ticks.
    const auto spec = workload::make_base_workload();
    AsyncShardRuntime runtime(spec, {}, base_runtime());
    for (const double seconds : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), 1e300,
                                 std::numeric_limits<double>::infinity(), 0x1p53 * 0.005}) {
        EXPECT_THROW(runtime.runFor(seconds), std::invalid_argument) << seconds;
        EXPECT_EQ(runtime.now(), 0.0) << seconds;
        EXPECT_EQ(runtime.stats().totals.engine_iterations, 0u) << seconds;
        EXPECT_EQ(runtime.utilityTrace().size(), 0u) << seconds;
    }
}

TEST(AsyncRuntime, AgentPoolStartFailureThrows) {
    // The pool of a 4-agent runtime starts min(4, hardware_concurrency) - 1
    // workers; the runtime must pass on the failure of the second.
    if (std::thread::hardware_concurrency() < 3)
        GTEST_SKIP() << "the agent pool starts fewer than two workers on this host";
    const auto spec = workload::make_base_workload();
    test::expect_second_thread_start_throws([&] {
        AsyncShardRuntime runtime(spec, {}, base_runtime());
        runtime.runFor(1.0);
    });
}

TEST(AsyncRuntime, PartitionsTheProblemAcrossAgents) {
    const auto spec = workload::make_base_workload();
    AsyncShardRuntime runtime(spec, {}, base_runtime());
    ASSERT_EQ(runtime.agentCount(), kAgents);
    std::size_t flows = 0;
    for (const auto& summary : runtime.summaries()) {
        flows += summary.flows;
        EXPECT_FALSE(summary.down);
        EXPECT_EQ(summary.epoch, 0u);
    }
    EXPECT_EQ(flows, spec.flowCount());
}

TEST(AsyncRuntime, BoundaryCapacityNeverOversubscribedAfterFaults) {
    // Shrink-before-grow safety: after a run through partition +
    // degradation + recovery, the slices the agents actually enacted in
    // their engines must still sum to at most each boundary resource's
    // global capacity.  (Mid-shrink the sum may be below capacity;
    // above is a protocol violation.)
    const auto spec = workload::make_base_workload();
    RuntimeOptions options = base_runtime();
    for (const auto& scenario : runtime_scenarios()) {
        if (scenario.name != "partition") continue;
        options.fault_plan = scenario.plan;
    }
    AsyncShardRuntime runtime(spec, {}, options);
    runtime.runFor(kHorizon);

    const shard::SubproblemSet sub = shard::build_subproblems(spec, {.shards = options.agents});

    for (const auto& budget : sub.node_budgets) {
        double enacted = 0.0;
        for (int s : budget.shards) {
            const auto* engine = runtime.agentEngine(s);
            ASSERT_NE(engine, nullptr) << "shard " << s;
            const std::uint32_t local = sub.members[static_cast<std::size_t>(s)]
                                            .node_local[budget.id];
            ASSERT_NE(local, shard::kAbsent);
            enacted += engine->problem().nodes()[local].capacity;
        }
        EXPECT_LE(enacted, budget.capacity * (1.0 + 1e-9)) << "node " << budget.id;
    }
}

TEST(AsyncRuntime, FaultFreeRunTracksShardedEngineUtility) {
    // The asynchronous agents, exchanging digests over a lossless (but
    // latency-ful) transport, must settle near the same utility as the
    // lockstep sharded engine over the same K-way partition.
    const auto spec = workload::make_base_workload();
    AsyncShardRuntime runtime(spec, {}, base_runtime());
    runtime.runFor(12.0);

    shard::ShardedConfig config;
    config.shards = kAgents;
    config.threads = 1;
    shard::ShardedLrgpEngine sharded(spec, {}, config);
    sharded.runUntilConverged(3000);

    EXPECT_GT(runtime.currentUtility(), 0.0);
    EXPECT_NEAR(runtime.currentUtility(), sharded.currentUtility(),
                0.05 * sharded.currentUtility());
}

TEST(AsyncRuntime, DeterministicRunsAreByteIdentical) {
    // The headline determinism guarantee: same configuration, two full
    // virtual-time runs under a flapping partition — utility traces,
    // per-agent digest logs and every counter must match byte for byte
    // even though the pool threads race freely inside each tick.
    const auto spec = workload::make_base_workload();
    faults::FaultPlan plan;
    for (const faults::ChaosScenario& s : runtime_scenarios())
        if (s.name == "flapping_link") plan = s.plan;
    ASSERT_FALSE(plan.empty());

    RuntimeOptions options = base_runtime(plan);
    options.keep_digest_log = true;

    AsyncShardRuntime a(spec, {}, options);
    AsyncShardRuntime b(spec, {}, options);
    a.runFor(kHorizon);
    b.runFor(kHorizon);

    const auto& ta = a.utilityTrace();
    const auto& tb = b.utilityTrace();
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) ASSERT_EQ(ta[i], tb[i]) << "sample " << i;

    for (int agent = 0; agent < kAgents; ++agent) {
        EXPECT_FALSE(a.digestLog(agent).empty()) << "agent " << agent;
        ASSERT_EQ(a.digestLog(agent), b.digestLog(agent)) << "agent " << agent;
    }

    const runtime::RuntimeStats sa = a.stats();
    const runtime::RuntimeStats sb = b.stats();
    EXPECT_EQ(sa.messages_sent, sb.messages_sent);
    EXPECT_EQ(sa.dropped_fault, sb.dropped_fault);
    EXPECT_EQ(sa.totals.digests_sent, sb.totals.digests_sent);
    EXPECT_EQ(sa.totals.digests_received, sb.totals.digests_received);
    EXPECT_EQ(sa.totals.digests_rejected_stale, sb.totals.digests_rejected_stale);
    EXPECT_EQ(sa.totals.suspicions, sb.totals.suspicions);
    EXPECT_EQ(sa.totals.recoveries, sb.totals.recoveries);
    EXPECT_EQ(sa.totals.budget_updates, sb.totals.budget_updates);
}

TEST(AsyncChaos, EveryShippedScenarioReconvergesWithinOnePercent) {
    // The acceptance criterion of the runtime: under every shipped fault
    // scenario, injected live against the running agents, the
    // overlay returns to within 1% of its fault-free utility in bounded
    // time.  Completing each run also proves the shrink-before-grow
    // budget handshake never deadlocks the agents.
    //
    // Each scenario's time to reconverge, in virtual seconds: a run may
    // take at most 25% longer, plus half a sample period of slack.
    const std::map<std::string, double> ttr_seconds{
        {"loss_burst", 0.0},  {"delay_spike", 0.60},   {"reorder_storm", 0.0},
        {"partition", 2.95},  {"flapping_link", 0.0},  {"asymmetric_partition", 2.15},
        {"node_crash", 2.05}, {"source_crash", 2.05},  {"price_corruption", 2.20}};
    const auto spec = workload::make_base_workload();
    const auto scenarios = runtime_scenarios();
    EXPECT_EQ(scenarios.size(), ttr_seconds.size());
    for (const faults::ChaosScenario& scenario : scenarios) {
        AsyncShardRuntime runtime(spec, {}, base_runtime(scenario.plan));
        runtime.runFor(kHorizon);
        const metrics::RecoveryReport report = metrics::analyze_recovery(
            runtime.utilityTrace(), fault_sample_index(), kSamplePeriod);  // epsilon = 1%
        EXPECT_TRUE(report.reconverged) << scenario.name << ": " << scenario.description;
        ASSERT_EQ(ttr_seconds.count(scenario.name), 1u) << scenario.name << " has no TTR bound";
        EXPECT_LE(report.time_to_reconverge,
                  1.25 * ttr_seconds.at(scenario.name) + 0.5 * kSamplePeriod)
            << scenario.name;
        EXPECT_GE(report.dip_integral, 0.0) << scenario.name;
    }
}

TEST(AsyncRuntime, CrashRestartRecoversFromSnapshot) {
    const auto spec = workload::make_base_workload();
    faults::FaultPlan plan;
    plan.crashes.push_back(faults::CrashEvent{{faults::AgentKind::kNode, kAgents - 1},
                                              kFaultStart, kFaultStart + kFaultDuration});
    AsyncShardRuntime runtime(spec, {}, base_runtime(plan));

    runtime.runFor(kFaultStart + 1.0);  // inside the outage
    EXPECT_TRUE(runtime.agentDown(kAgents - 1));
    runtime.runFor(kHorizon - (kFaultStart + 1.0));
    EXPECT_FALSE(runtime.agentDown(kAgents - 1));

    const auto summaries = runtime.summaries();
    const auto& victim = summaries[static_cast<std::size_t>(kAgents - 1)];
    EXPECT_EQ(victim.counters.crashes, 1u);
    EXPECT_EQ(victim.counters.restarts, 1u);
    // The crash hit at t=10 with a 0.5s snapshot period: the restart
    // must have restored a warm snapshot, not cold-started.
    EXPECT_EQ(victim.counters.snapshot_restores, 1u);
    EXPECT_GE(victim.counters.snapshots, 2u);
    EXPECT_EQ(victim.epoch, 1u);  // membership epoch bumped on restart

    const metrics::RecoveryReport report = metrics::analyze_recovery(
        runtime.utilityTrace(), fault_sample_index(), kSamplePeriod);
    EXPECT_TRUE(report.reconverged);
}

TEST(AsyncRuntime, PartitionTriggersSuspicionDegradationRecovery) {
    const auto spec = workload::make_base_workload();
    faults::FaultPlan plan;
    for (const faults::ChaosScenario& s : runtime_scenarios())
        if (s.name == "partition") plan = s.plan;
    ASSERT_FALSE(plan.empty());

    AsyncShardRuntime runtime(spec, {}, base_runtime(plan));
    runtime.runFor(kHorizon);

    const runtime::RuntimeStats stats = runtime.stats();
    // The partitioned agent went silent past the heartbeat timeout ...
    EXPECT_GT(stats.totals.suspicions, 0u);
    // ... its peers clamped the shared boundary slices to their floors ...
    EXPECT_GT(stats.totals.degradations, 0u);
    // ... and everyone recovered once the partition healed.
    EXPECT_EQ(stats.totals.recoveries, stats.totals.suspicions);
    EXPECT_GT(stats.dropped_fault, 0u);
    EXPECT_EQ(stats.totals.crashes, 0u);
}

TEST(AsyncRuntime, BackpressureIsVisibleToSenders) {
    // Eight agents split each 64-message inbox into in-flight windows of
    // 64 / 7 = 9 messages per channel.  A +0.1 s delay on every message
    // over [0.5, 1.5] s keeps about ten digest periods in flight, so
    // some sends must see kQueueFull — and unlike fault drops, the
    // senders observe it.  The delay stays under the heartbeat timeout,
    // so no peer is suspected.
    const auto spec = workload::make_base_workload();
    RuntimeOptions options = base_runtime();
    options.agents = 8;
    options.fault_plan.delay_spikes.push_back(
        faults::DelaySpike{{0.5, 1.5}, 0.1, 0.1, std::nullopt, std::nullopt});
    AsyncShardRuntime runtime(spec, {}, options);
    runtime.runFor(3.0);
    const runtime::RuntimeStats stats = runtime.stats();
    EXPECT_GT(stats.totals.send_failures, 0u);
    EXPECT_EQ(stats.totals.send_failures, stats.dropped_backpressure);
    EXPECT_EQ(stats.totals.suspicions, 0u);
}

TEST(AsyncRuntime, ClockAndTraceAccumulateAcrossRuns) {
    const auto spec = workload::make_base_workload();
    AsyncShardRuntime runtime(spec, {}, base_runtime());
    runtime.runFor(0.5);
    const std::size_t after_first = runtime.utilityTrace().size();
    runtime.runFor(0.5);
    EXPECT_NEAR(runtime.now(), 1.0, 1e-9);
    EXPECT_EQ(runtime.utilityTrace().size(), 2 * after_first);
    EXPECT_EQ(runtime.utilityTrace().size(),
              static_cast<std::size_t>(std::lround(1.0 / kSamplePeriod)));
}

}  // namespace
