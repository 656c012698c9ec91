// Sharded control-plane suite (ctest label `shard`).
//
// Covers the three contracts of shard::ShardedLrgpEngine:
//   1. K=1 is bitwise-identical to the monolithic incremental engine —
//      records, prices, convergence return, and dynamic ops in lockstep;
//   2. K>1 keeps every allocation invariant (boxes, integer populations,
//      node capacity globally — per-shard budgets sum to the capacity)
//      and lands within 1% utility of the monolithic solver after
//      boundary-price reconciliation, deterministically for a given
//      (seed, K);
//   3. the partitioner and budget-splitting primitives behave: disjoint
//      regions never straddle shards, balance caps hold, floors are
//      respected and budgets always re-sum to the capacity.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "lrgp/parallel_engine.hpp"
#include "model/analysis.hpp"
#include "shard/budget.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "utility/utility_function.hpp"
#include "workload/federated.hpp"
#include "workload/workloads.hpp"

namespace lrgp {
namespace {

workload::FederatedWorkloadOptions small_options(std::uint32_t seed = 1) {
    workload::FederatedWorkloadOptions opt;
    opt.groups = 8;
    opt.flows_per_group = 4;
    opt.cnodes_per_group = 10;
    opt.tight_groups = 2;
    opt.seed = seed;
    return opt;
}

workload::FederatedWorkloadOptions coupled_options(std::uint32_t seed = 1) {
    workload::FederatedWorkloadOptions opt = small_options(seed);
    opt.coupling_cost = 2.0;
    opt.coupling_capacity_factor = 0.5;
    return opt;
}

shard::ShardedConfig config_for(int shards) {
    shard::ShardedConfig config;
    config.shards = shards;
    config.threads = 2;  // determinism must not depend on worker count
    return config;
}

/// Box, integrality and capacity invariants on a (spec, allocation)
/// pair.  `capacity_tol` is relative: boundary budgets re-sum to the
/// capacity only up to FP, so the global check gets a small slack.
void check_box_and_capacity(const model::ProblemSpec& spec, const model::Allocation& alloc,
                            double capacity_tol) {
    for (const model::FlowSpec& f : spec.flows()) {
        const double r = alloc.rates.at(f.id.index());
        if (!f.active) {
            EXPECT_EQ(r, 0.0) << "inactive flow " << f.name;
            continue;
        }
        EXPECT_GE(r, f.rate_min) << "flow " << f.name;
        EXPECT_LE(r, f.rate_max) << "flow " << f.name;
    }
    for (const model::ClassSpec& c : spec.classes()) {
        const int n = alloc.populations.at(c.id.index());
        EXPECT_GE(n, 0) << "class " << c.name;
        EXPECT_LE(n, c.max_consumers) << "class " << c.name;
    }
    for (const model::NodeSpec& b : spec.nodes()) {
        const double usage = model::node_usage(spec, alloc, b.id);
        EXPECT_LE(usage, b.capacity * (1.0 + capacity_tol) + 1e-9) << "node " << b.name;
    }
    for (const model::LinkSpec& l : spec.links()) {
        const double usage = model::link_usage(spec, alloc, l.id);
        EXPECT_LE(usage, l.capacity * (1.0 + capacity_tol) + 1e-9) << "link " << l.name;
    }
}

/// |value - reference| relative to the reference: the 1% gap contract.
double relative_gap(double reference, double value) {
    return std::fabs(reference - value) / std::fabs(reference);
}

/// Re-converges `engine` and expects only shard `owner`'s member engine
/// to have advanced: every other shard stays gated.
void expect_only_owner_advances(shard::ShardedLrgpEngine& engine, int owner) {
    const std::vector<shard::ShardSummary> before = engine.summaries();
    ASSERT_TRUE(engine.runUntilConverged(400).has_value());
    const std::vector<shard::ShardSummary> after = engine.summaries();
    for (std::size_t s = 0; s < before.size(); ++s) {
        if (static_cast<int>(s) == owner)
            EXPECT_GT(after[s].iterations, before[s].iterations) << "owner " << owner;
        else
            EXPECT_EQ(after[s].iterations, before[s].iterations)
                << "shard " << s << " woke, owner " << owner;
    }
}

void expect_same_record(const core::IterationRecord& a, const core::IterationRecord& b) {
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.utility, b.utility);
    ASSERT_EQ(a.allocation.rates.size(), b.allocation.rates.size());
    for (std::size_t i = 0; i < a.allocation.rates.size(); ++i)
        EXPECT_EQ(a.allocation.rates[i], b.allocation.rates[i]) << "rate " << i;
    ASSERT_EQ(a.allocation.populations.size(), b.allocation.populations.size());
    for (std::size_t i = 0; i < a.allocation.populations.size(); ++i)
        EXPECT_EQ(a.allocation.populations[i], b.allocation.populations[i]) << "pop " << i;
    ASSERT_EQ(a.prices.node.size(), b.prices.node.size());
    for (std::size_t i = 0; i < a.prices.node.size(); ++i)
        EXPECT_EQ(a.prices.node[i], b.prices.node[i]) << "node price " << i;
    ASSERT_EQ(a.prices.link.size(), b.prices.link.size());
    for (std::size_t i = 0; i < a.prices.link.size(); ++i)
        EXPECT_EQ(a.prices.link[i], b.prices.link[i]) << "link price " << i;
}

// ---------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------

TEST(ShardPartitioner, SingleShardHoldsEverythingWithNoBoundary) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    const shard::Partition part = shard::make_partition(spec, {.shards = 1});
    EXPECT_EQ(part.shards, 1);
    EXPECT_EQ(part.flows_of_shard[0].size(), spec.flowCount());
    EXPECT_EQ(part.boundary_nodes, 0u);
    EXPECT_EQ(part.boundary_links, 0u);
    for (int s : part.shard_of_flow) EXPECT_EQ(s, 0);
}

TEST(ShardPartitioner, DisjointGroupsNeverStraddleShards) {
    const auto opt = small_options();
    const model::ProblemSpec spec = workload::make_federated_workload(opt);
    for (int k : {2, 4, 8}) {
        const shard::Partition part = shard::make_partition(spec, {.shards = k});
        SCOPED_TRACE("K=" + std::to_string(k));
        EXPECT_EQ(part.boundary_nodes, 0u);
        EXPECT_EQ(part.boundary_links, 0u);
        // Flows of one group share all its c-nodes, so they must share a
        // shard once the boundary is empty.
        for (int g = 0; g < opt.groups; ++g) {
            const int first = part.shard_of_flow[static_cast<std::size_t>(
                g * opt.flows_per_group)];
            for (int f = 1; f < opt.flows_per_group; ++f)
                EXPECT_EQ(part.shard_of_flow[static_cast<std::size_t>(
                              g * opt.flows_per_group + f)],
                          first)
                    << "group " << g << " flow " << f;
        }
    }
}

TEST(ShardPartitioner, BalanceCapHolds) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    for (int k : {2, 4, 8}) {
        const shard::PartitionOptions opt{.shards = k, .refine_passes = 3,
                                          .balance_slack = 0.25};
        const shard::Partition part = shard::make_partition(spec, opt);
        const double cap =
            std::ceil(static_cast<double>(spec.classCount()) / k * (1.0 + opt.balance_slack));
        for (int s = 0; s < k; ++s)
            EXPECT_LE(static_cast<double>(part.classes_of_shard[s]), cap)
                << "K=" << k << " shard " << s;
    }
}

TEST(ShardPartitioner, CoupledComponentSplitsAcrossAllShards) {
    // The hub joins every group into one component, which exceeds the
    // balance cap and must be split with the hub as the only boundary
    // node shared by all shards that carry a hub flow.
    const model::ProblemSpec spec = workload::make_federated_workload(coupled_options());
    const shard::Partition part = shard::make_partition(spec, {.shards = 4});
    for (int s = 0; s < 4; ++s)
        EXPECT_FALSE(part.flows_of_shard[s].empty()) << "shard " << s;
    EXPECT_GE(part.boundary_nodes, 1u);
    EXPECT_TRUE(part.isBoundaryNode(model::NodeId{0}));  // hub is node 0
}

TEST(ShardPartitioner, DeterministicForGivenInputs) {
    const model::ProblemSpec spec = workload::make_federated_workload(coupled_options());
    const shard::Partition a = shard::make_partition(spec, {.shards = 4});
    const shard::Partition b = shard::make_partition(spec, {.shards = 4});
    EXPECT_EQ(a.shard_of_flow, b.shard_of_flow);
    EXPECT_EQ(a.boundary_nodes, b.boundary_nodes);
}

TEST(ShardPartitioner, RejectsBadOptions) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    EXPECT_THROW(shard::make_partition(spec, {.shards = 0}), std::invalid_argument);
    EXPECT_THROW(shard::make_partition(spec, {.shards = 2, .balance_slack = -0.1}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Budget primitives
// ---------------------------------------------------------------------

TEST(ShardBudget, SplitWithFloorsSumsToCapacityAndRespectsFloors) {
    const std::vector<double> floors = {10.0, 20.0, 5.0};
    const std::vector<double> weights = {1.0, 3.0, 0.0};
    const std::vector<double> out = shard::split_with_floors(100.0, floors, weights);
    double sum = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GE(out[i], floors[i]);
        sum += out[i];
    }
    EXPECT_NEAR(sum, 100.0, 1e-9);
    EXPECT_GT(out[1], out[0]);  // weight-proportional surplus
}

TEST(ShardBudget, SplitWithFloorsScalesWhenOversubscribed) {
    const std::vector<double> out =
        shard::split_with_floors(30.0, {40.0, 20.0}, {1.0, 1.0});
    EXPECT_NEAR(out[0] + out[1], 30.0, 1e-9);
    EXPECT_NEAR(out[0] / out[1], 2.0, 1e-9);  // floors scaled proportionally
}

TEST(ShardBudget, SplitWithFloorsValidates) {
    EXPECT_THROW(shard::split_with_floors(10.0, {1.0}, {1.0, 2.0}), std::invalid_argument);
    EXPECT_THROW(shard::split_with_floors(0.0, {1.0}, {1.0}), std::invalid_argument);
    EXPECT_TRUE(shard::split_with_floors(10.0, {}, {}).empty());
}

TEST(ShardBudget, RebalanceMovesBudgetTowardHigherPrices) {
    const std::vector<double> budget = {50.0, 50.0};
    const shard::RebalanceResult result =
        shard::rebalance_budgets(100.0, budget, {1.0, 1.0}, {0.0, 10.0}, 0.5);
    EXPECT_GT(result.moved, 0.0);
    EXPECT_LT(result.budget[0], 50.0);
    EXPECT_GT(result.budget[1], 50.0);
    EXPECT_NEAR(result.budget[0] + result.budget[1], 100.0, 1e-9);
    EXPECT_GE(result.budget[0], 1.0);
}

TEST(ShardBudget, RebalanceIsAFixpointOnEqualOrZeroPrices) {
    const std::vector<double> budget = {30.0, 70.0};
    EXPECT_EQ(shard::rebalance_budgets(100.0, budget, {1.0, 1.0}, {0.0, 0.0}, 0.5).moved, 0.0);
    EXPECT_NEAR(shard::rebalance_budgets(100.0, budget, {1.0, 1.0}, {5.0, 5.0}, 0.5).moved,
                0.0, 1e-12);
    EXPECT_EQ(shard::rebalance_budgets(100.0, budget, {1.0, 1.0}, {1.0, 9.0}, 0.0).moved, 0.0);
}

TEST(ShardBudget, RebalanceValidates) {
    EXPECT_THROW(shard::rebalance_budgets(10.0, {5.0, 5.0}, {1.0}, {0.0, 0.0}, 0.5),
                 std::invalid_argument);
    EXPECT_THROW(shard::rebalance_budgets(10.0, {5.0, 5.0}, {1.0, 1.0}, {0.0, 0.0}, 1.5),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// K=1 bitwise parity with the monolithic incremental engine
// ---------------------------------------------------------------------

TEST(ShardedEngineParity, StepLockstepIsBitwiseIdentical) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    core::ParallelLrgpEngine mono(spec, {}, {.threads = 1});
    shard::ShardedLrgpEngine sharded(spec, {}, config_for(1));
    for (int i = 0; i < 30; ++i) {
        const core::IterationRecord& a = mono.step();
        const core::IterationRecord& b = sharded.step();
        SCOPED_TRACE("iteration " + std::to_string(i + 1));
        expect_same_record(a, b);
    }
}

TEST(ShardedEngineParity, RunUntilConvergedMatchesReturnAndState) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options(7));
    core::ParallelLrgpEngine mono(spec, {}, {.threads = 1});
    shard::ShardedLrgpEngine sharded(spec, {}, config_for(1));
    const std::optional<int> a = mono.runUntilConverged(400);
    const std::optional<int> b = sharded.runUntilConverged(400);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a, b);
    EXPECT_EQ(mono.currentUtility(), sharded.currentUtility());
    EXPECT_EQ(mono.iterationsRun(), sharded.iterationsRun());
}

TEST(ShardedEngineParity, DynamicOpsStayInLockstep) {
    const auto opt = small_options(3);
    const model::ProblemSpec spec = workload::make_federated_workload(opt);
    core::ParallelLrgpEngine mono(spec, {}, {.threads = 1});
    shard::ShardedLrgpEngine sharded(spec, {}, config_for(1));
    mono.run(10);
    sharded.run(10);

    const model::FlowId victim{3};
    mono.removeFlow(victim);
    sharded.removeFlow(victim);
    mono.run(5);
    sharded.run(5);
    expect_same_record(mono.run(1), sharded.run(1));

    mono.restoreFlow(victim);
    sharded.restoreFlow(victim);
    const model::NodeId node{5};
    const double squeezed = spec.node(node).capacity * 0.6;
    mono.setNodeCapacity(node, squeezed);
    sharded.setNodeCapacity(node, squeezed);
    const model::ClassId cls{11};
    mono.setClassMaxConsumers(cls, spec.consumerClass(cls).max_consumers / 2);
    sharded.setClassMaxConsumers(cls, spec.consumerClass(cls).max_consumers / 2);
    for (int i = 0; i < 12; ++i) expect_same_record(mono.step(), sharded.step());
}

// ---------------------------------------------------------------------
// Multi-shard: gap, invariants, determinism, dynamics
// ---------------------------------------------------------------------

TEST(ShardedEngine, SeededSweepGapWithinOnePercent) {
    for (std::uint32_t seed : {1u, 2u, 3u}) {
        for (bool coupled : {false, true}) {
            const model::ProblemSpec spec = workload::make_federated_workload(
                coupled ? coupled_options(seed) : small_options(seed));
            core::ParallelLrgpEngine mono(spec, {}, {.threads = 1});
            mono.runUntilConverged(400);
            const double reference = mono.currentUtility();
            for (int k : {2, 4, 8}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + " K=" + std::to_string(k) +
                             (coupled ? " coupled" : ""));
                shard::ShardedLrgpEngine engine(spec, {}, config_for(k));
                engine.runUntilConverged(400);
                EXPECT_LE(relative_gap(reference, engine.currentUtility()), 0.01);
            }
        }
    }
}

TEST(ShardedEngine, InvariantsHoldPerShardAndGlobally) {
    for (int k : {1, 2, 4, 8}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        const model::ProblemSpec spec = workload::make_federated_workload(coupled_options(5));
        shard::ShardedLrgpEngine engine(spec, {}, config_for(k));
        engine.run(25);
        const core::IterationRecord& record = engine.run(1);

        // Global: budgets re-sum to capacities only up to FP, so the
        // boundary-capacity check carries a small relative slack.
        check_box_and_capacity(spec, record.allocation, 1e-6);

        // Per shard: each member engine maintains the exact invariants
        // against its own sub-problem (budgeted capacities included).
        for (int s = 0; s < engine.shardCount(); ++s) {
            if (engine.summaries()[static_cast<std::size_t>(s)].flows == 0) continue;
            const core::Engine& member = engine.shardEngine(s);
            check_box_and_capacity(member.problem(), member.allocation(), 1e-9);
        }

        // Published utility: bitwise Eq. 1 for K=1; for K>1 the record
        // utility is the shard-sum, which reassociates the reduction.
        const double recomputed = model::total_utility(spec, record.allocation);
        if (k == 1)
            EXPECT_EQ(record.utility, recomputed);
        else
            EXPECT_NEAR(record.utility, recomputed, 1e-9 * std::fabs(recomputed));
    }
}

TEST(ShardedEngine, SameSeedAndShardCountIsByteIdentical) {
    const model::ProblemSpec spec = workload::make_federated_workload(coupled_options(9));
    for (int k : {2, 8}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        shard::ShardedConfig a_cfg = config_for(k);
        shard::ShardedConfig b_cfg = config_for(k);
        b_cfg.threads = 1;  // worker count must not leak into results
        shard::ShardedLrgpEngine a(spec, {}, a_cfg);
        shard::ShardedLrgpEngine b(spec, {}, b_cfg);
        a.run(40);
        b.run(40);
        expect_same_record(a.run(1), b.run(1));
    }
}

TEST(ShardedEngine, DynamicOpLandsInOwningShardOnly) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    shard::ShardedLrgpEngine engine(spec, {}, config_for(4));
    ASSERT_TRUE(engine.runUntilConverged(400).has_value());

    const model::FlowId victim{0};
    const int owner = engine.shardOfFlow(victim);
    engine.removeFlow(victim);
    EXPECT_EQ(engine.allocation().rates[victim.index()], 0.0);
    for (int s = 0; s < engine.shardCount(); ++s) {
        if (engine.summaries()[static_cast<std::size_t>(s)].flows == 0) continue;
        EXPECT_EQ(engine.shardEngine(s).convergence().converged(), s != owner)
            << "shard " << s << " owner " << owner;
    }
    expect_only_owner_advances(engine, owner);

    engine.restoreFlow(victim);
    ASSERT_TRUE(engine.runUntilConverged(400).has_value());
    EXPECT_GE(engine.allocation().rates[victim.index()], spec.flow(victim).rate_min);

    // The steady control-loop op: squeeze each c-node of tight group 0
    // (whose flows, the victim among them, share one shard) to 0.55x,
    // then restore it.  Each re-convergence wakes that shard alone and
    // lands within 1% of the monolithic engine driven the same way.
    for (int k : {4, 8}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        shard::ShardedLrgpEngine steady(spec, {}, config_for(k));
        core::ParallelLrgpEngine mono(spec, {}, {.threads = 1});
        ASSERT_TRUE(steady.runUntilConverged(400).has_value());
        ASSERT_TRUE(mono.runUntilConverged(400).has_value());
        const int group_owner = steady.shardOfFlow(victim);
        for (int c = 0; c < small_options().cnodes_per_group; ++c) {
            const model::NodeId node = workload::find_node(spec, "g0_S" + std::to_string(c));
            for (double scale : {0.55, 1.0}) {
                SCOPED_TRACE((scale < 1.0 ? "squeeze g0_S" : "restore g0_S") + std::to_string(c));
                steady.setNodeCapacity(node, spec.node(node).capacity * scale);
                mono.setNodeCapacity(node, spec.node(node).capacity * scale);
                expect_only_owner_advances(steady, group_owner);
                ASSERT_TRUE(mono.runUntilConverged(400).has_value());
                EXPECT_LE(relative_gap(mono.currentUtility(), steady.currentUtility()), 0.01);
            }
        }
    }
}

TEST(ShardedEngine, BoundaryCapacityChangeResplitsAndReconverges) {
    const model::ProblemSpec spec = workload::make_federated_workload(coupled_options());
    const model::NodeId hub{0};
    const double squeezed = spec.node(hub).capacity * 0.4;

    // Two references for the squeezed optimum: the monolithic
    // incremental engine driven through the same squeeze, and an engine
    // built fresh at the squeezed capacity (same K).
    core::ParallelLrgpEngine mono(spec, {}, {.threads = 1});
    ASSERT_TRUE(mono.runUntilConverged(600).has_value());
    mono.setNodeCapacity(hub, squeezed);
    ASSERT_TRUE(mono.runUntilConverged(600).has_value());
    model::ProblemSpec squeezed_spec = workload::make_federated_workload(coupled_options());
    squeezed_spec.setNodeCapacity(hub, squeezed);

    for (int k : {2, 4, 8}) {
        SCOPED_TRACE("K=" + std::to_string(k));
        shard::ShardedLrgpEngine engine(spec, {}, config_for(k));
        ASSERT_TRUE(engine.runUntilConverged(600).has_value());
        engine.setNodeCapacity(hub, squeezed);
        ASSERT_TRUE(engine.runUntilConverged(600).has_value());
        // The hub carries only flow costs (no classes), and the F * r
        // component is price-mediated, not hard-clipped: the monolithic
        // engine converges with the same sub-percent overshoot on this
        // squeeze, so the capacity check gets the convergence tolerance.
        check_box_and_capacity(engine.problem(), engine.allocation(), 1e-2);

        // The re-split keeps the boundary allocation near-optimal, not
        // just feasible: within 1% of both references.
        shard::ShardedLrgpEngine fresh(squeezed_spec, {}, config_for(k));
        fresh.runUntilConverged(600);
        EXPECT_LE(relative_gap(fresh.currentUtility(), engine.currentUtility()), 0.01);
        EXPECT_LE(relative_gap(mono.currentUtility(), engine.currentUtility()), 0.01);
    }
}

TEST(ShardedEngine, MoreShardsThanFlowsLeavesEmptyShards) {
    workload::FederatedWorkloadOptions opt = small_options();
    opt.groups = 2;
    opt.flows_per_group = 2;  // 4 flows total
    // Loose capacity everywhere: single-flow shards of a capacity-starved
    // group oscillate below their own small utility forever (the
    // shard-local amplitude criterion divides by the shard's utility);
    // this test is about shard-count > flow-count handling, not that.
    opt.tight_groups = 0;
    const model::ProblemSpec spec = workload::make_federated_workload(opt);
    shard::ShardedLrgpEngine engine(spec, {}, config_for(8));
    ASSERT_TRUE(engine.runUntilConverged(400).has_value());
    int populated = 0;
    for (const shard::ShardSummary& s : engine.summaries())
        if (s.flows > 0) ++populated;
    EXPECT_LE(populated, 4);
    EXPECT_GE(populated, 1);
    check_box_and_capacity(spec, engine.allocation(), 1e-6);
    EXPECT_THROW(engine.shardEngine(engine.shardCount()), std::out_of_range);
}

TEST(ShardedEngine, WarmStartSeedsPricesAcrossShards) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    shard::ShardedLrgpEngine donor(spec, {}, config_for(4));
    donor.runUntilConverged(400);

    shard::ShardedLrgpEngine engine(spec, {}, config_for(4));
    engine.warmStart(donor.prices());
    const std::optional<int> warm = engine.runUntilConverged(400);
    ASSERT_TRUE(warm.has_value());

    shard::ShardedLrgpEngine cold(spec, {}, config_for(4));
    const std::optional<int> cold_conv = cold.runUntilConverged(400);
    ASSERT_TRUE(cold_conv.has_value());
    EXPECT_LE(*warm, *cold_conv);

    core::PriceVector bad;
    bad.node.resize(spec.nodeCount() + 1);
    bad.link.resize(spec.linkCount());
    EXPECT_THROW(engine.warmStart(bad), std::invalid_argument);
}

TEST(ShardedEngine, RunsAProblemAtItsRateMinFloor) {
    // A ring of four nodes, each carrying four flows at F * rate_min = 3
    // and sized to exactly that floor of 12, plus two flows that reach n0
    // and n1 at F = 0.  ProblemBuilder accepts it, and so does the K=4
    // split, although the zero-F shards' slices leave the others just
    // under their floors.  The only feasible point (ring flows at r_min,
    // no consumer admitted) fills every ring node to 100%.
    model::ProblemBuilder b;
    const model::NodeId source = b.addNode("src", 1e6);
    std::vector<model::NodeId> ring;
    for (const char* name : {"n0", "n1", "n2", "n3"}) ring.push_back(b.addNode(name, 12.0));
    const auto add_class = [&](const std::string& name, model::FlowId f, model::NodeId n) {
        b.addClass(name, f, n, 5, 1.0, std::make_shared<utility::LogUtility>(10.0));
    };
    for (std::size_t k = 0; k < 8; ++k) {
        const model::FlowId f = b.addFlow("f" + std::to_string(k), source, 2.0, 10.0);
        for (const model::NodeId n : {ring[k % 4], ring[(k + 1) % 4]}) {
            b.routeThroughNode(f, n, 1.5);
            add_class("c" + std::to_string(k) + "_" + std::to_string(n.value), f, n);
        }
    }
    for (std::size_t k = 0; k < 2; ++k) {
        const model::FlowId f = b.addFlow("z" + std::to_string(k), source, 2.0, 10.0);
        b.routeThroughNode(f, ring[k], 0.0);
        add_class("z" + std::to_string(k), f, ring[k]);
    }
    const model::ProblemSpec spec = b.build();

    auto engine = shard::make_engine("sharded", spec, {}, 1, 4);
    engine->run(50);
    const model::Allocation& alloc = engine->allocation();
    EXPECT_TRUE(model::check_feasibility(spec, alloc).feasible());
    for (const model::NodeId n : ring) EXPECT_EQ(model::node_usage(spec, alloc, n), 12.0);
    for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(alloc.rates[k], 2.0) << "f" << k;
    for (const int n : alloc.populations) EXPECT_EQ(n, 0);
}

TEST(ShardedEngine, ValidatesConfigAndArguments) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    EXPECT_THROW(shard::ShardedLrgpEngine(spec, {}, config_for(0)), std::invalid_argument);
    shard::ShardedLrgpEngine engine(spec, {}, config_for(2));
    EXPECT_THROW(engine.run(0), std::invalid_argument);
    EXPECT_THROW(engine.runUntilConverged(0), std::invalid_argument);
    EXPECT_EQ(std::string(engine.name()), "sharded");
}

// ---------------------------------------------------------------------
// shard::make_engine, the one name -> engine factory
// ---------------------------------------------------------------------

TEST(EngineFactory, BuildsEveryAcceptedName) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    for (const char* name : {"serial", "incremental"}) {
        const std::unique_ptr<core::Engine> engine = shard::make_engine(name, spec);
        EXPECT_EQ(std::string(engine->name()), name);
    }
    for (const int shards : {1, 4}) {
        const std::unique_ptr<core::Engine> engine =
            shard::make_engine("sharded", spec, {}, 2, shards);
        EXPECT_EQ(std::string(engine->name()), "sharded");
        EXPECT_EQ(dynamic_cast<const shard::ShardedLrgpEngine&>(*engine).shardCount(), shards);
    }
}

TEST(EngineFactory, UnknownNamesListTheAcceptedOnes) {
    const model::ProblemSpec spec = workload::make_federated_workload(small_options());
    // The retired vector and compiled engines' names and the empty name.
    for (const std::string& name : {std::string("vector"), std::string("vector") + "_exact",
                                    std::string("compiled"), std::string()}) {
        try {
            (void)shard::make_engine(name, spec);
            FAIL() << "built an engine for '" << name << "'";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("'" + name + "'"), std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("serial, incremental, sharded"),
                      std::string::npos)
                << e.what();
        }
    }
}

}  // namespace
}  // namespace lrgp
