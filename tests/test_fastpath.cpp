// Batched fastpath dataplane: gate-graph lowering, the weighted
// traffic scheduler, steady-state fidelity against the paper's cost
// model, worker-count determinism, and the differential oracle — the
// event-driven dataplane and the fastpath running the same workloads
// must agree on achieved utility and drop rates.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "dataplane/cost_model.hpp"
#include "dataplane/dataplane.hpp"
#include "fastpath/batch.hpp"
#include "fastpath/fastpath.hpp"
#include "fastpath/plan.hpp"
#include "fastpath/scheduler.hpp"
#include "lrgp/parallel_engine.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "utility/utility_function.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

/// Same small overlay as test_dataplane.cpp: two consumer-hosting
/// nodes, one link, two flows (one chainless), three classes.
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

// ------------------------------------------------------- gate lowering

TEST(CompiledPlan, LowersRoutesIntoPerEntityGateGraph) {
    const model::ProblemSpec spec = makeSmallSpec();
    const auto plan = fastpath::CompiledPlan::lower(spec);

    ASSERT_EQ(plan.flow_count, 2u);
    EXPECT_EQ(plan.chainLength(0), 1u);  // f0 crosses l0
    EXPECT_EQ(plan.chainLength(1), 0u);  // f1 is chainless
    EXPECT_EQ(plan.linkSlotCount(), 1u);
    EXPECT_EQ(plan.nodeSlotCount(), 3u);  // f0 -> {S0, S1}, f1 -> {S1}
    EXPECT_EQ(plan.link_slot_next[plan.flow_link_slots[0]], fastpath::CompiledPlan::kChainEnd);

    // One gate per entity: l0, then S0, then S1 (S1 serves f0 and f1
    // through one budget).  Each gate is one contiguous slot-id range.
    ASSERT_EQ(plan.groups.size(), 3u);
    EXPECT_FALSE(plan.groups[0].is_node);
    EXPECT_EQ(plan.groups[0].entity, 0u);
    EXPECT_EQ(plan.groups[0].slots_begin, 0u);
    EXPECT_EQ(plan.groups[0].slots_end, 1u);
    EXPECT_TRUE(plan.groups[1].is_node);
    EXPECT_EQ(plan.groups[1].entity, 0u);
    EXPECT_EQ(plan.groups[1].slots_begin, 0u);
    EXPECT_EQ(plan.groups[1].slots_end, 1u);
    EXPECT_TRUE(plan.groups[2].is_node);
    EXPECT_EQ(plan.groups[2].entity, 1u);
    EXPECT_EQ(plan.groups[2].slots_begin, 1u);
    EXPECT_EQ(plan.groups[2].slots_end - plan.groups[2].slots_begin, 2u);
    // S1's range is in flow order: f0's slot, then f1's.
    EXPECT_EQ(plan.nodes.slot_flow[1], 0u);
    EXPECT_EQ(plan.nodes.slot_flow[2], 1u);

    // Class mapping: f0@S0 -> c0, f0@S1 -> c1, f1@S1 -> c2.
    EXPECT_EQ(plan.nodes.classes.size(), 3u);
    const std::uint32_t f0_s1_slot = plan.nodes.flow_slots[plan.nodes.flow_begin[0] + 1];
    EXPECT_EQ(plan.nodes.slot_node[f0_s1_slot], 1u);
    ASSERT_EQ(plan.nodes.class_begin[f0_s1_slot + 1] - plan.nodes.class_begin[f0_s1_slot], 1u);
    EXPECT_EQ(plan.nodes.classes[plan.nodes.class_begin[f0_s1_slot]], 1u);
    EXPECT_EQ(plan.nodes.consumer_cost[plan.nodes.class_begin[f0_s1_slot]], 1.0);
}

TEST(CompiledPlan, EverySlotBelongsToExactlyOneGate) {
    const model::ProblemSpec scaled =
        workload::make_scaled_workload({workload::UtilityShape::kLog, 2, 2});
    const model::ProblemSpec fat_tree =
        scenario::build_scenario(scenario::find_scenario("fat_tree_heavy_tail_shifted_log"))
            .problem;
    for (const model::ProblemSpec* spec : {&scaled, &fat_tree}) {
        const auto plan = fastpath::CompiledPlan::lower(*spec);
        std::vector<int> link_owner(plan.linkSlotCount(), 0);
        std::vector<int> node_owner(plan.nodeSlotCount(), 0);
        for (const fastpath::GateGroup& group : plan.groups) {
            ASSERT_LT(group.slots_begin, group.slots_end);
            for (std::uint32_t slot = group.slots_begin; slot < group.slots_end; ++slot) {
                const std::vector<std::uint32_t>& slot_flow =
                    group.is_node ? plan.nodes.slot_flow : plan.link_slot_flow;
                if (group.is_node) {
                    EXPECT_EQ(plan.nodes.slot_node[slot], group.entity);
                    ++node_owner[slot];
                } else {
                    EXPECT_EQ(plan.link_slot_link[slot], group.entity);
                    ++link_owner[slot];
                }
                // Slots ascend by flow within a gate: fixed serve order.
                if (slot > group.slots_begin) {
                    EXPECT_LT(slot_flow[slot - 1], slot_flow[slot]);
                }
            }
        }
        for (const int owners : link_owner) EXPECT_EQ(owners, 1);
        for (const int owners : node_owner) EXPECT_EQ(owners, 1);

        // Each flow's chain follows its route through link_slot_next, and
        // its fan-out list reaches each of its node slots exactly once.
        std::vector<int> fanned(plan.nodeSlotCount(), 0);
        for (std::size_t i = 0; i < plan.flow_count; ++i) {
            const model::FlowSpec& flow = spec->flows()[i];
            ASSERT_EQ(plan.chainLength(i), flow.links.size());
            for (std::size_t h = 0; h < flow.links.size(); ++h) {
                const std::uint32_t slot = plan.flow_link_slots[plan.flow_link_begin[i] + h];
                EXPECT_EQ(plan.link_slot_link[slot], flow.links[h].link.index());
                EXPECT_EQ(plan.link_slot_flow[slot], i);
                EXPECT_EQ(plan.link_slot_cost[slot], flow.links[h].link_cost);
                const std::uint32_t next = h + 1 < flow.links.size()
                                               ? plan.flow_link_slots[plan.flow_link_begin[i] + h + 1]
                                               : fastpath::CompiledPlan::kChainEnd;
                EXPECT_EQ(plan.link_slot_next[slot], next);
            }
            ASSERT_EQ(plan.nodes.flow_begin[i + 1] - plan.nodes.flow_begin[i], flow.nodes.size());
            for (std::size_t h = 0; h < flow.nodes.size(); ++h) {
                const std::uint32_t slot = plan.nodes.flow_slots[plan.nodes.flow_begin[i] + h];
                EXPECT_EQ(plan.nodes.slot_node[slot], flow.nodes[h].node.index());
                EXPECT_EQ(plan.nodes.slot_flow[slot], i);
                ++fanned[slot];
            }
        }
        for (const int reached : fanned) EXPECT_EQ(reached, 1);
    }
}

TEST(NodeCostTable, CostsEqualBruteForceBitwise) {
    const model::ProblemSpec scaled =
        workload::make_scaled_workload({workload::UtilityShape::kLog, 2, 2});
    const model::ProblemSpec fat_tree =
        scenario::build_scenario(scenario::find_scenario("fat_tree_heavy_tail_shifted_log"))
            .problem;
    // Both workloads above price with integer-valued F and G or keep one
    // class per slot, so any summation order gives the same bits.  This
    // spec has several classes per slot at costs that round, so only the
    // classesAtNode order matches.
    model::ProblemBuilder b;
    const model::NodeId s0 = b.addNode("S0", 100.0);
    const model::NodeId s1 = b.addNode("S1", 100.0);
    const model::FlowId f0 = b.addFlow("f0", s0, 1.0, 10.0);
    const model::FlowId f1 = b.addFlow("f1", s0, 1.0, 10.0);
    b.routeThroughNode(f0, s0, 0.3);
    b.routeThroughNode(f0, s1, 0.7);
    b.routeThroughNode(f1, s1, 0.1);
    const double g[] = {0.1, 0.7, 1e-3, 3.3, 0.25};
    for (int k = 0; k < 5; ++k) {
        const auto u = std::make_shared<utility::LogUtility>(10.0);
        b.addClass("a" + std::to_string(k), f0, s1, 40, g[k], u);
        b.addClass("b" + std::to_string(k), f1, s1, 40, g[4 - k] * 1.1, u);
        b.addClass("c" + std::to_string(k), f0, s0, 40, g[k] * 0.3, u);
    }
    const model::ProblemSpec rounding = b.build();
    std::mt19937_64 rng(20061);
    for (const model::ProblemSpec* spec : {&scaled, &fat_tree, &rounding}) {
        const auto table = dataplane::NodeCostTable::lower(*spec);
        ASSERT_EQ(table.slotCount(), spec->totalFlowNodeHops());
        std::vector<int> populations(spec->classCount(), 0);
        for (int trial = 0; trial < 50; ++trial) {
            for (std::size_t j = 0; j < populations.size(); ++j) {
                const int n_max = spec->classes()[j].max_consumers;
                populations[j] = std::uniform_int_distribution<int>(0, n_max)(rng);
            }
            for (std::uint32_t s = 0; s < table.slotCount(); ++s) {
                // F_{b,i} + sum over flow i's classes at b of G_{b,j} n_j,
                // from the spec, in the order the spec lists them.
                const model::NodeId node{table.slot_node[s]};
                const model::FlowId flow{table.slot_flow[s]};
                double expected = 0.0;
                for (const model::FlowNodeHop& hop : spec->flows()[flow.index()].nodes) {
                    if (hop.node == node) expected = hop.flow_node_cost;
                }
                for (const model::ClassId j : spec->classesAtNode(node)) {
                    const model::ClassSpec& cls = spec->consumerClass(j);
                    if (cls.flow != flow) continue;
                    expected += cls.consumer_cost * static_cast<double>(populations[j.index()]);
                }
                const double actual = dataplane::node_message_cost(table, s, populations);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(actual),
                          std::bit_cast<std::uint64_t>(expected))
                    << "slot " << s << " trial " << trial;
            }
        }
    }
}

// --------------------------------------------------- traffic scheduler

TEST(TrafficScheduler, CreditsRefillAtEnactedRateAndCapCarryAtDepth) {
    fastpath::TrafficScheduler sched(1);
    sched.setRate(0, 10.0);
    sched.refill(0, 0.5);  // 5 credits
    int admitted = 0;
    while (sched.tryAdmit(0)) ++admitted;
    EXPECT_EQ(admitted, 5);
    // The quantum's own accrual is fully spendable even past the
    // depth: a continuous policer passes rate*dt messages during dt,
    // so quantum batching must not clamp sustained throughput.
    sched.refill(0, 10.0);  // 100 credits, all admissible
    admitted = 0;
    while (sched.tryAdmit(0)) ++admitted;
    EXPECT_EQ(admitted, 100);
    // But unspent credits carry over capped at the depth: an idle flow
    // may burst at most depth + rate*dt in one quantum.
    sched.refill(0, 10.0);  // 100 credits, left unspent
    sched.refill(0, 0.1);   // carry capped at 8, plus 1 accrued
    admitted = 0;
    while (sched.tryAdmit(0)) ++admitted;
    EXPECT_EQ(admitted, 9);
}

TEST(TrafficScheduler, DeterministicArrivalsAtRefillRateNeverShaped) {
    fastpath::TrafficScheduler sched(1);
    sched.setRate(0, 20.0);
    // 1 credit per quantum, 1 arrival per quantum: rounding noise must
    // never shape (the TokenBucket 1 - 1e-9 slack, batched).
    for (int q = 0; q < 1000; ++q) {
        sched.refill(0, 0.05);
        EXPECT_TRUE(sched.tryAdmit(0)) << "quantum " << q;
    }
}

// ------------------------------------------------- steady-state plant

TEST(Fastpath, SteadyStateMatchesPlannedUtilityWithinTwoPercent) {
    const model::ProblemSpec spec = makeSmallSpec();
    fastpath::Fastpath fp(spec);
    const model::Allocation alloc = smallAllocation();
    ASSERT_TRUE(model::check_feasibility(spec, alloc).feasible());
    fp.notePlanned(alloc);
    fp.enact(alloc);
    fp.runUntil(60.0);

    const dataplane::DataplaneStats stats = fp.collectStats();
    EXPECT_EQ(stats.dropped_link, 0u);
    EXPECT_EQ(stats.dropped_node, 0u);
    EXPECT_EQ(stats.drop_rate, 0.0);
    EXPECT_EQ(stats.total_shaped, 0u);
    ASSERT_GT(stats.utility.planned, 0.0);
    const double gap = std::abs(stats.utility.achieved_cumulative - stats.utility.planned) /
                       stats.utility.planned;
    EXPECT_LE(gap, 0.02) << "achieved " << stats.utility.achieved_cumulative << " vs planned "
                         << stats.utility.planned;
    EXPECT_GT(stats.latency.count, 0u);
    EXPECT_LT(stats.latency.p99, 1.0);
    EXPECT_EQ(stats.events_scheduled, fp.quantaProcessed());
    EXPECT_GT(fp.batchesProcessed(), 0u);
}

TEST(Fastpath, SchedulerShapesOverdrivenProducer) {
    const model::ProblemSpec spec = makeSmallSpec();
    fastpath::Fastpath fp(spec);
    fp.enact(smallAllocation());
    fp.setOfferedRate(model::FlowId{0}, 8.0);  // enacted is 4.0
    fp.runUntil(50.0);

    const dataplane::DataplaneStats stats = fp.collectStats();
    const dataplane::FlowStats& f0 = stats.flows[0];
    EXPECT_GT(f0.shaped, 0u);
    EXPECT_NEAR(static_cast<double>(f0.emitted) / 50.0, 4.0, 0.4);
    EXPECT_EQ(stats.dropped_link, 0u);
    EXPECT_EQ(stats.dropped_node, 0u);
}

TEST(Fastpath, OverloadedNodeDropsLikeTheEventDataplane) {
    // Shrink S1 so the enacted plan overdrives it; both plants must
    // shed a comparable fraction of traffic.
    const model::ProblemSpec spec = makeSmallSpec();
    const model::Allocation alloc = smallAllocation();
    const double scaled_capacity = 10.0;  // S1 wants ~ 26 units/s

    dataplane::Dataplane dp(spec);
    dp.setNodeCapacity(model::NodeId{1}, scaled_capacity);
    dp.enact(alloc);
    dp.runUntil(60.0);
    const auto sim = dp.collectStats();

    fastpath::Fastpath fp(spec);
    fp.setNodeCapacity(model::NodeId{1}, scaled_capacity);
    fp.enact(alloc);
    fp.runUntil(60.0);
    const auto fast = fp.collectStats();

    EXPECT_GT(sim.dropped_node, 0u);
    EXPECT_GT(fast.dropped_node, 0u);
    EXPECT_NEAR(fast.drop_rate, sim.drop_rate, 0.05)
        << "fastpath " << fast.drop_rate << " vs sim " << sim.drop_rate;
}

TEST(Fastpath, ContendedGateServesEveryWholeMessageTheBudgetBuys) {
    // Ten chainless flows share one node; each brings one message per
    // quantum at cost 1.5 against a 14-unit budget.  Every slot's
    // proportional share is under one message, so only a
    // work-conserving hand-out serves floor(14 / 1.5) = 9 of them.
    constexpr int kFlows = 10;
    constexpr double kCost = 1.5;
    constexpr double kCapacity = 280.0;
    model::ProblemBuilder b;
    const model::NodeId node = b.addNode("S0", kCapacity);
    for (int i = 0; i < kFlows; ++i) {
        const model::FlowId flow = b.addFlow("f" + std::to_string(i), node, 1.0, 50.0);
        b.routeThroughNode(flow, node, kCost);
    }
    const model::ProblemSpec spec = b.build();
    fastpath::FastpathOptions options;
    fastpath::Fastpath fp(spec, options);
    model::Allocation alloc = model::Allocation::minimal(spec);
    for (double& rate : alloc.rates) rate = 25.0;  // first arrival at t = 0.04
    fp.enact(alloc);
    fp.runUntil(options.quantum);

    const double budget = kCapacity * options.quantum;
    ASSERT_GT(kFlows * kCost, budget);
    const dataplane::DataplaneStats stats = fp.collectStats();
    const dataplane::EntityStats& gate = stats.nodes[0];
    EXPECT_EQ(gate.arrivals, static_cast<std::uint64_t>(kFlows));
    EXPECT_EQ(gate.served, static_cast<std::uint64_t>(std::floor(budget / kCost)));
    EXPECT_EQ(gate.queue_depth, gate.arrivals - gate.served);
    EXPECT_EQ(gate.dropped, 0u);
}

TEST(Fastpath, FanoutCellRunsSeventyFiveSecondsWithoutDrops) {
    // The closed-loop benchmark's fanout cell (k = 8 fat tree, 400 flows,
    // 2e4 classes) at ~61% utilisation, enacted once and left alone.
    // Deterministic arrivals line up on a few nodes now and then (node 21
    // sees ~148 messages at t = 71.25 s against ~90 usually), slightly
    // over budget; a gate that strands its leftover budget drops there.
    scenario::ScenarioOptions cell;
    cell.topology = "fat_tree";
    cell.fat_tree_k = 8;
    cell.flows = 400;
    cell.classes_per_flow = 50;
    cell.traffic = "heavy_tail";
    cell.utility = "shifted_log";
    cell.seed = 1;
    const scenario::ScenarioSpec spec = scenario::build_scenario(cell);
    core::ParallelLrgpEngine engine(spec.problem, core::LrgpOptions{},
                                    core::EngineConfig{.threads = 1});
    engine.runUntilConverged(4000);

    fastpath::Fastpath fp(spec.problem);
    fp.notePlanned(engine.allocation());
    fp.enact(engine.allocation());
    fp.runUntil(75.0);
    const dataplane::DataplaneStats stats = fp.collectStats();
    EXPECT_GT(stats.total_delivered, 0u);
    EXPECT_EQ(stats.dropped_link, 0u);
    EXPECT_EQ(stats.dropped_node, 0u);
}

TEST(Fastpath, ValidatesOptionsAndAllocations) {
    const model::ProblemSpec spec = makeSmallSpec();
    fastpath::FastpathOptions bad;
    bad.sample_period = 0.07;  // not a multiple of quantum 0.05
    EXPECT_THROW(fastpath::Fastpath(spec, bad), std::invalid_argument);

    fastpath::Fastpath fp(spec);
    model::Allocation wrong;
    wrong.rates = {1.0};
    wrong.populations = {0, 0, 0};
    EXPECT_THROW(fp.enact(wrong), std::invalid_argument);
    EXPECT_THROW(fp.notePlanned(wrong), std::invalid_argument);
}

TEST(Fastpath, BatchAccountingMatchesEmittedMessages) {
    const model::ProblemSpec spec = makeSmallSpec();
    fastpath::Fastpath fp(spec);
    fp.enact(smallAllocation());
    fp.runUntil(20.0);
    const auto stats = fp.collectStats();
    // Every emitted message rides in exactly one batch of <= kBatchSize;
    // per-quantum tails mean at least ceil(total/batch) batches overall.
    EXPECT_GE(fp.batchesProcessed(), fastpath::batch_count(stats.total_emitted));
    EXPECT_LE(fp.batchesProcessed(), stats.total_emitted);
}

// ---------------------------------------------------- worker determinism

TEST(Fastpath, StatsJsonByteIdenticalAcrossWorkerCounts) {
    const model::ProblemSpec spec =
        workload::make_scaled_workload({workload::UtilityShape::kLog, 2, 1});
    model::Allocation alloc = model::Allocation::minimal(spec);
    for (double& r : alloc.rates) r = 40.0;
    for (std::size_t j = 0; j < alloc.populations.size(); ++j) {
        alloc.populations[j] = spec.classes()[j].max_consumers > 0 ? 1 : 0;
    }

    std::string reference;
    bool attach = false;
    for (const int workers : {1, 2, 4, 8}) {
        fastpath::FastpathOptions options;
        options.workers = workers;
        options.arrivals = dataplane::ArrivalProcess::kPoisson;
        // Every other run carries a registry: attaching observability
        // must not perturb the traffic.
        obs::Registry registry;
        fastpath::Fastpath fp(spec, options);
        if (attach) fp.attachObservability(&registry);
        fp.notePlanned(alloc);
        fp.enact(alloc);
        fp.setOfferedRate(model::FlowId{0}, 90.0);  // shaped traffic too
        fp.runUntil(30.0);
        const std::string json = fp.statsJson();
        if (reference.empty()) {
            reference = json;
        } else {
            EXPECT_EQ(json, reference) << "workers=" << workers << " diverged";
        }
        if (attach) EXPECT_GT(registry.counterValue("lrgp_fastpath_quanta_total"), 0u);
        attach = !attach;
        // The per-worker split covers all emission + gate work.
        EXPECT_EQ(static_cast<std::size_t>(fp.workerCount()), fp.workerMessages().size());
    }
    ASSERT_FALSE(reference.empty());
}

TEST(Fastpath, RerunIsByteIdentical) {
    const model::ProblemSpec spec = makeSmallSpec();
    const auto run = [&spec] {
        fastpath::FastpathOptions options;
        options.workers = 2;
        fastpath::Fastpath fp(spec, options);
        fp.enact(smallAllocation());
        fp.runUntil(25.0);
        return fp.statsJson();
    };
    EXPECT_EQ(run(), run());
}

// ------------------------------------------- differential oracle (PR 8)

struct PlantResult {
    double achieved = 0.0;
    double planned = 0.0;
    double drop_rate = 0.0;
};

/// Enacts `alloc` into one plant over `spec`'s physically-scaled
/// overlay and reports the long-run achieved utility + drop rate.
/// Achieved is the *cumulative* measure (utility of the mean delivered
/// rates): the window-sampled trace differs between the plants by the
/// Jensen gap — the event engine's bursty FIFO makes window rates
/// noisier, and concave utilities penalize that variance — while the
/// rates actually delivered must agree.
template <class Plant, class Options>
PlantResult runPlant(const scenario::ScenarioSpec& spec, const model::Allocation& alloc,
                     Options options, double horizon) {
    Plant plant(spec.problem, options);
    if (spec.physical_capacity_scale < 1.0) {
        for (std::size_t b = 0; b < spec.problem.nodeCount(); ++b) {
            const model::NodeId node{static_cast<std::uint32_t>(b)};
            plant.setNodeCapacity(node,
                                  spec.problem.node(node).capacity *
                                      spec.physical_capacity_scale);
        }
    }
    plant.notePlanned(alloc);
    plant.enact(alloc);
    plant.runUntil(horizon);
    const auto stats = plant.collectStats();
    PlantResult result;
    result.achieved = stats.utility.achieved_cumulative;
    result.planned = stats.utility.planned;
    result.drop_rate = stats.drop_rate;
    return result;
}

TEST(FastpathDifferential, HeadroomCellAgreesWithSimOracle) {
    const scenario::ScenarioSpec spec =
        scenario::build_scenario(scenario::find_scenario("fat_tree_heavy_tail_shifted_log"));
    scenario::RunnerOptions ropts;
    ropts.engine = "incremental";
    const auto report = scenario::run_scenario(spec, ropts);
    ASSERT_FALSE(report.final_allocation.rates.empty());

    const double horizon = 40.0;
    const auto sim = runPlant<dataplane::Dataplane>(spec, report.final_allocation,
                                                    dataplane::DataplaneOptions{}, horizon);
    fastpath::FastpathOptions fopts;
    fopts.workers = 4;
    const auto fast =
        runPlant<fastpath::Fastpath>(spec, report.final_allocation, fopts, horizon);

    // Headroom: both plants deliver the plan, and they agree.
    ASSERT_GT(sim.planned, 0.0);
    EXPECT_LE(sim.drop_rate, 0.02);
    EXPECT_LE(fast.drop_rate, 0.02);
    EXPECT_GE(sim.achieved / sim.planned, 0.98);
    EXPECT_GE(fast.achieved / fast.planned, 0.98);
    EXPECT_NEAR(fast.achieved / sim.achieved, 1.0, 0.02)
        << "fastpath " << fast.achieved << " vs sim " << sim.achieved;
}

TEST(FastpathDifferential, OverdriveCellAgreesWithSimOracle) {
    const scenario::ScenarioSpec spec = scenario::build_scenario(
        scenario::find_scenario("fat_tree_heavy_tail_shifted_log_overdrive"));
    ASSERT_LT(spec.physical_capacity_scale, 1.0);
    scenario::RunnerOptions ropts;
    ropts.engine = "incremental";
    const auto report = scenario::run_scenario(spec, ropts);
    ASSERT_FALSE(report.final_allocation.rates.empty());

    const double horizon = 40.0;
    const auto sim = runPlant<dataplane::Dataplane>(spec, report.final_allocation,
                                                    dataplane::DataplaneOptions{}, horizon);
    fastpath::FastpathOptions fopts;
    fopts.workers = 4;
    const auto fast =
        runPlant<fastpath::Fastpath>(spec, report.final_allocation, fopts, horizon);

    // Overdrive: both plants shed >= 20% and agree on how much.
    EXPECT_GE(sim.drop_rate, 0.20);
    EXPECT_GE(fast.drop_rate, 0.20);
    EXPECT_NEAR(fast.drop_rate, sim.drop_rate, 0.05);
    ASSERT_GT(sim.achieved, 0.0);
    EXPECT_NEAR(fast.achieved / sim.achieved, 1.0, 0.02)
        << "fastpath " << fast.achieved << " vs sim " << sim.achieved;
}

}  // namespace
