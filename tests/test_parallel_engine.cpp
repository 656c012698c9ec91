// Bitwise-equivalence suite for ParallelLrgpEngine vs LrgpOptimizer.
//
// The engine's contract is not "close": it must reproduce the serial
// optimizer's utility, rate, population and price trajectories *exactly*
// (operator== on doubles), for any thread count, across random
// workloads, every utility family, and mid-run dynamic changes.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "lrgp/compiled_problem.hpp"
#include "lrgp/greedy_allocator.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "lrgp/task_pool.hpp"
#include "model/problem.hpp"
#include "utility/utility_function.hpp"
#include "workload/federated.hpp"
#include "workload/random_workload.hpp"
#include "workload/workloads.hpp"

namespace lrgp {
namespace {

void expect_identical(const core::IterationRecord& serial, const core::IterationRecord& engine) {
    ASSERT_EQ(serial.iteration, engine.iteration);
    EXPECT_EQ(serial.utility, engine.utility);
    EXPECT_EQ(serial.allocation.rates, engine.allocation.rates);
    EXPECT_EQ(serial.allocation.populations, engine.allocation.populations);
    EXPECT_EQ(serial.prices.node, engine.prices.node);
    EXPECT_EQ(serial.prices.link, engine.prices.link);
}

/// Steps the serial optimizer and every engine `iterations` times,
/// comparing every engine record against the serial one.
template <class Mutator>
void run_lockstep(core::LrgpOptimizer& serial,
                  std::initializer_list<core::ParallelLrgpEngine*> engines, int iterations,
                  Mutator&& mutate_all) {
    for (int it = 1; it <= iterations; ++it) {
        SCOPED_TRACE(testing::Message() << "iteration " << it);
        mutate_all(it);
        const auto& s = serial.step();
        for (core::ParallelLrgpEngine* engine : engines) {
            SCOPED_TRACE(testing::Message() << "engine at " << engine->threadCount() << " threads");
            expect_identical(s, engine->step());
            if (testing::Test::HasFatalFailure()) return;
        }
    }
}

template <class Mutator>
void run_lockstep(core::LrgpOptimizer& serial, core::ParallelLrgpEngine& engine, int iterations,
                  Mutator&& mutate_both) {
    run_lockstep(serial, {&engine}, iterations, std::forward<Mutator>(mutate_both));
}

void run_lockstep(core::LrgpOptimizer& serial, core::ParallelLrgpEngine& engine, int iterations) {
    run_lockstep(serial, {&engine}, iterations, [](int) {});
}

TEST(ParallelEngine, RandomWorkloadsBitwiseIdenticalWithPerturbations) {
    constexpr int kSeeds = 50;
    constexpr int kIterations = 200;
    constexpr int kThreadCycle[] = {1, 2, 4};
    constexpr workload::UtilityShape kShapes[] = {
        workload::UtilityShape::kLog, workload::UtilityShape::kPow025,
        workload::UtilityShape::kPow05, workload::UtilityShape::kPow075};

    for (int seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        workload::RandomWorkloadOptions options;
        options.seed = static_cast<std::uint32_t>(seed);
        options.shape = kShapes[seed % 4];
        options.link_bottleneck_probability = (seed % 3 == 0) ? 1.0 : 0.0;
        const model::ProblemSpec spec = workload::make_random_workload(options);

        core::LrgpOptimizer serial(spec);
        core::ParallelLrgpEngine engine(spec, {}, {.threads = kThreadCycle[seed % 3]});
        core::ParallelLrgpEngine twin(spec, {}, {.threads = kThreadCycle[(seed + 1) % 3]});

        const model::FlowId victim{0};
        const model::NodeId squeezed{static_cast<std::uint32_t>(spec.nodeCount() - 1)};
        const model::ClassId shrunk{static_cast<std::uint32_t>(spec.classCount() - 1)};
        const double new_capacity = spec.node(squeezed).capacity * 0.8;
        const int new_max = spec.consumerClass(shrunk).max_consumers / 2;

        run_lockstep(serial, {&engine, &twin}, kIterations, [&](int it) {
            switch (it) {
                case 60:
                    serial.removeFlow(victim);
                    engine.removeFlow(victim);
                    twin.removeFlow(victim);
                    break;
                case 90:
                    serial.restoreFlow(victim);
                    engine.restoreFlow(victim);
                    twin.restoreFlow(victim);
                    break;
                case 120:
                    serial.setNodeCapacity(squeezed, new_capacity);
                    engine.setNodeCapacity(squeezed, new_capacity);
                    twin.setNodeCapacity(squeezed, new_capacity);
                    break;
                case 140:
                    serial.setClassMaxConsumers(shrunk, new_max);
                    engine.setClassMaxConsumers(shrunk, new_max);
                    twin.setClassMaxConsumers(shrunk, new_max);
                    break;
                case 160: {
                    // Same synthetic warm start applied to all sides.
                    core::PriceVector warm = serial.prices();
                    for (double& p : warm.node) p *= 0.5;
                    for (double& p : warm.link) p *= 0.5;
                    std::vector<int> pops(spec.classCount(), 1);
                    serial.warmStart(warm, &pops);
                    engine.warmStart(warm, &pops);
                    twin.warmStart(warm, &pops);
                    break;
                }
                default: break;
            }
        });
        if (testing::Test::HasFatalFailure()) return;
    }
}

TEST(ParallelEngine, BaseWorkloadAllShapesMatchSerialTrace) {
    // Frozen prices (zero stepsizes from a positive start) leave a
    // population move as the only input that dirties a flow.
    core::LrgpOptions frozen;
    frozen.gamma = core::FixedGamma{0.0, 0.0};
    frozen.initial_node_price = 1e-3;
    for (workload::UtilityShape shape :
         {workload::UtilityShape::kLog, workload::UtilityShape::kPow025,
          workload::UtilityShape::kPow05, workload::UtilityShape::kPow075}) {
        for (const bool freeze : {false, true}) {
            SCOPED_TRACE(testing::Message() << workload::shape_name(shape)
                                            << (freeze ? ", frozen prices" : ""));
            const core::LrgpOptions options = freeze ? frozen : core::LrgpOptions{};
            const model::ProblemSpec spec = workload::make_base_workload(shape);
            core::LrgpOptimizer serial(spec, options);
            core::ParallelLrgpEngine engine(spec, options, {.threads = 4});
            run_lockstep(serial, engine, 300);
            EXPECT_EQ(serial.utilityTrace().samples(), engine.utilityTrace().samples());
        }
    }
}

TEST(ParallelEngine, RunUntilConvergedParity) {
    const model::ProblemSpec spec = workload::make_base_workload();
    core::LrgpOptimizer serial(spec);
    core::ParallelLrgpEngine engine(spec, {}, {.threads = 2});
    const auto s = serial.runUntilConverged(2000);
    const auto e = engine.runUntilConverged(2000);
    EXPECT_EQ(s, e);
    EXPECT_EQ(serial.iterationsRun(), engine.iterationsRun());
    EXPECT_EQ(serial.currentUtility(), engine.currentUtility());
}

TEST(ParallelEngine, IncrementalChaosReplayMatchesSerial) {
    // Fault-replay style schedule: a seeded RNG drives random dynamic ops
    // (flow churn, capacity changes, class ceiling changes, warm starts)
    // at random iterations.  The same schedule is applied to the serial
    // optimizer and the engine; the dirty sets must widen conservatively
    // enough to keep every trajectory bitwise identical.
    constexpr int kSeeds = 12;
    constexpr int kIterations = 150;
    for (int seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "chaos seed " << seed);
        workload::RandomWorkloadOptions options;
        options.seed = static_cast<std::uint32_t>(1000 + seed);
        options.link_bottleneck_probability = (seed % 2 == 0) ? 1.0 : 0.0;
        const model::ProblemSpec spec = workload::make_random_workload(options);

        core::LrgpOptimizer serial(spec);
        core::ParallelLrgpEngine engine(spec, {}, {.threads = 1 + seed % 4});

        std::mt19937 rng(static_cast<std::uint32_t>(seed) * 7919u);
        std::vector<bool> active(spec.flowCount(), true);
        run_lockstep(serial, engine, kIterations, [&](int) {
            if (rng() % 10 != 0) return;  // ~15 ops over the run
            switch (rng() % 5) {
                case 0: {  // crash a random active flow
                    const std::size_t f = rng() % spec.flowCount();
                    if (!active[f]) break;
                    serial.removeFlow(model::FlowId{static_cast<std::uint32_t>(f)});
                    engine.removeFlow(model::FlowId{static_cast<std::uint32_t>(f)});
                    active[f] = false;
                    break;
                }
                case 1: {  // recover a random crashed flow
                    const std::size_t f = rng() % spec.flowCount();
                    if (active[f]) break;
                    serial.restoreFlow(model::FlowId{static_cast<std::uint32_t>(f)});
                    engine.restoreFlow(model::FlowId{static_cast<std::uint32_t>(f)});
                    active[f] = true;
                    break;
                }
                case 2: {  // squeeze or relax a random node
                    const std::size_t b = rng() % spec.nodeCount();
                    const double scale = 0.7 + 0.6 * static_cast<double>(rng() % 100) / 100.0;
                    const model::NodeId node{static_cast<std::uint32_t>(b)};
                    const double capacity = serial.problem().node(node).capacity * scale;
                    serial.setNodeCapacity(node, capacity);
                    engine.setNodeCapacity(node, capacity);
                    break;
                }
                case 3: {  // shrink or restore a random class ceiling
                    const std::size_t j = rng() % spec.classCount();
                    const model::ClassId cls{static_cast<std::uint32_t>(j)};
                    const int original = spec.consumerClass(cls).max_consumers;
                    const int ceiling = static_cast<int>(rng() % (original + 1));
                    serial.setClassMaxConsumers(cls, ceiling);
                    engine.setClassMaxConsumers(cls, ceiling);
                    break;
                }
                default: {  // warm start both from perturbed prices
                    core::PriceVector warm = serial.prices();
                    for (double& p : warm.node) p *= 0.75;
                    for (double& p : warm.link) p *= 0.75;
                    serial.warmStart(warm);
                    engine.warmStart(warm);
                    break;
                }
            }
        });
        if (testing::Test::HasFatalFailure()) return;
    }
}

TEST(ParallelEngine, IncrementalSteadyWorkloadEngagesCaches) {
    // A headroom workload (large node capacity, low rate cap) reaches a
    // floating-point fixpoint quickly; once there, the engine must
    // actually skip — rate solves, node admissions and the utility
    // reduction — while staying bitwise identical to the serial optimizer.
    workload::WorkloadOptions options;
    options.flow_replicas = 2;
    options.cnode_replicas = 2;
    options.node_capacity = 3.0e7;
    options.rate_max = 60.0;
    const model::ProblemSpec spec = workload::make_scaled_workload(options);

    core::LrgpOptimizer serial(spec);
    core::ParallelLrgpEngine engine(spec, {}, {.threads = 2});
    run_lockstep(serial, engine, 300);

    const core::IncrementalStats stats = engine.incrementalStats();
    EXPECT_GT(stats.skipped_solves, 0u) << "no rate solve was ever skipped";
    EXPECT_GT(stats.node_cache_hits, 0u) << "no node admission was ever skipped";
    EXPECT_GT(stats.utility_cache_hits, 0u) << "the Eq. 1 sum was never reused";
    EXPECT_GT(stats.dirty_flows, 0u) << "the transient must do real work";
    EXPECT_GT(stats.dirty_nodes, 0u);
    // In the converged tail skips dominate: far more cache hits than work.
    EXPECT_GT(stats.node_cache_hits, stats.dirty_nodes);
    EXPECT_GT(stats.skipped_solves, stats.dirty_flows);

    // Past the fixpoint every iteration is pure reuse, counted exactly:
    // no rate solve, no admission, no link sum, and the cached Eq. 1 sum.
    constexpr std::uint64_t kTail = 100;
    run_lockstep(serial, engine, static_cast<int>(kTail));
    const core::IncrementalStats tail = engine.incrementalStats();
    EXPECT_EQ(tail.dirty_flows - stats.dirty_flows, 0u);
    EXPECT_EQ(tail.skipped_solves - stats.skipped_solves, kTail * spec.flowCount());
    EXPECT_EQ(tail.dirty_nodes - stats.dirty_nodes, 0u);
    EXPECT_EQ(tail.node_cache_hits - stats.node_cache_hits, kTail * spec.nodeCount());
    EXPECT_EQ(tail.dirty_links - stats.dirty_links, 0u);
    EXPECT_EQ(tail.utility_cache_hits - stats.utility_cache_hits, kTail);
}

/// Counts, over consecutive records, the situations the pin rule
/// decides for a flow's next solve.  The solve in record `now` reads the
/// prices and populations of `old`; a move is the change from `older`
/// to `old`.
struct PinCases {
    int lo_under_rise = 0;    ///< at r_min, route prices only rose, populations fixed
    int hi_under_fall = 0;    ///< at r_max, route prices only fell, populations fixed
    int hi_under_rise = 0;    ///< at r_max, a route price rose, populations fixed
    int hi_left_by_rise = 0;  ///< ... and the solve left r_max
    /// At a bound, populations moved, no price moved the way that could
    /// move the flow off it, and the solve left the bound.
    int bound_left_by_populations = 0;
};

void tally_pin_cases(const model::ProblemSpec& spec, const core::IterationRecord& older,
                     const core::IterationRecord& old, const core::IterationRecord& now,
                     PinCases& cases) {
    for (const model::FlowSpec& f : spec.flows()) {
        bool rose = false, fell = false;
        for (const model::FlowNodeHop& hop : f.nodes) {
            const std::size_t b = hop.node.index();
            rose = rose || old.prices.node[b] > older.prices.node[b];
            fell = fell || old.prices.node[b] < older.prices.node[b];
        }
        for (const model::FlowLinkHop& hop : f.links) {
            const std::size_t l = hop.link.index();
            rose = rose || old.prices.link[l] > older.prices.link[l];
            fell = fell || old.prices.link[l] < older.prices.link[l];
        }
        bool pops_fixed = true;
        for (model::ClassId j : spec.classesOfFlow(f.id))
            pops_fixed = pops_fixed && old.allocation.populations[j.index()] ==
                                           older.allocation.populations[j.index()];
        const double rate = old.allocation.rates[f.id.index()];
        const double next = now.allocation.rates[f.id.index()];
        if (!pops_fixed) {
            if (((rate == f.rate_max && !rose) || (rate == f.rate_min && !fell)) && next != rate)
                ++cases.bound_left_by_populations;
            continue;
        }
        if (rate == f.rate_min && rose && !fell) ++cases.lo_under_rise;
        if (rate == f.rate_max && fell && !rose) ++cases.hi_under_fall;
        if (rate == f.rate_max && rose) {
            ++cases.hi_under_rise;
            if (next < f.rate_max) ++cases.hi_left_by_rise;
        }
    }
}

/// The counts a change of the dirty rules moves, as deltas from `a` to `b`.
std::vector<std::uint64_t> stats_delta(const core::IncrementalStats& a,
                                       const core::IncrementalStats& b) {
    return {b.dirty_flows - a.dirty_flows, b.skipped_solves - a.skipped_solves,
            b.dirty_nodes - a.dirty_nodes, b.node_cache_hits - a.node_cache_hits,
            b.dirty_links - a.dirty_links, b.utility_cache_hits - a.utility_cache_hits};
}

TEST(ParallelEngine, PinnedFlowsSkipExactlyThroughSqueezeAndRestore) {
    // Three federated groups, one tight.  After a cold solve the loose
    // groups' flows sit at r_max and their c-node prices at 0.  Then a
    // loose c-node is squeezed to a fifth and one flow through it loses
    // every consumer: the squeezed price rises, so flows pinned at r_max
    // re-solve and some leave it, and the emptied flow drops to r_min
    // and stays pinned there while that price keeps rising.  Restoring
    // both lets the price decay toward 0 for thousands of iterations,
    // which re-solves no flow back at r_max.  Every record is compared
    // bitwise with the serial optimizer at 1, 2 and 4 threads, and the
    // skipped solves are counted exactly.
    workload::FederatedWorkloadOptions options;
    options.groups = 3;
    options.flows_per_group = 3;
    options.cnodes_per_group = 4;
    options.tight_groups = 1;
    const model::ProblemSpec spec = workload::make_federated_workload(options);
    const model::NodeId squeezed = workload::find_node(spec, "g1_S0");
    const double capacity = spec.node(squeezed).capacity;
    const model::FlowId emptied = workload::find_flow(spec, "g1_f0");

    core::LrgpOptimizer serial(spec);
    core::ParallelLrgpEngine e1(spec, {}, {.threads = 1});
    core::ParallelLrgpEngine e2(spec, {}, {.threads = 2});
    core::ParallelLrgpEngine e4(spec, {}, {.threads = 4});
    const auto apply = [&](auto&& op) {
        op(static_cast<core::Engine&>(serial));
        for (core::Engine* engine : {&e1, &e2, &e4}) op(*engine);
    };
    std::vector<core::IterationRecord> records;
    PinCases cases;
    const auto run = [&](int iterations) {
        for (int it = 0; it < iterations; ++it) {
            SCOPED_TRACE(testing::Message() << "iteration " << serial.iterationsRun() + 1);
            const core::IterationRecord& s = serial.step();
            for (core::ParallelLrgpEngine* engine : {&e1, &e2, &e4}) {
                SCOPED_TRACE(testing::Message() << engine->threadCount() << " threads");
                expect_identical(s, engine->step());
                if (testing::Test::HasFatalFailure()) return;
            }
            records.push_back(s);
            const std::size_t n = records.size();
            if (n >= 3) tally_pin_cases(spec, records[n - 3], records[n - 2], s, cases);
        }
        // The per-flow population flags are set from several workers;
        // the dirty sets they seed must not depend on the thread count.
        EXPECT_EQ(stats_delta({}, e2.incrementalStats()), stats_delta({}, e1.incrementalStats()));
        EXPECT_EQ(stats_delta({}, e4.incrementalStats()), stats_delta({}, e1.incrementalStats()));
    };

    run(200);
    ASSERT_FALSE(testing::Test::HasFailure());
    const core::IncrementalStats cold = e1.incrementalStats();
    apply([&](core::Engine& e) {
        e.setNodeCapacity(squeezed, 0.2 * capacity);
        for (model::ClassId j : spec.classesOfFlow(emptied)) e.setClassMaxConsumers(j, 0);
    });
    run(200);
    ASSERT_FALSE(testing::Test::HasFailure());
    const core::IncrementalStats squeeze = e1.incrementalStats();
    apply([&](core::Engine& e) {
        e.setNodeCapacity(squeezed, capacity);
        for (model::ClassId j : spec.classesOfFlow(emptied))
            e.setClassMaxConsumers(j, spec.consumerClass(j).max_consumers);
    });
    run(300);
    ASSERT_FALSE(testing::Test::HasFailure());
    const core::IncrementalStats restore = e1.incrementalStats();

    // The scenario reaches every case the pin rule decides.
    EXPECT_GE(cases.lo_under_rise, 1);
    EXPECT_GE(cases.hi_under_fall, 1);
    EXPECT_GE(cases.hi_under_rise, 1);
    EXPECT_GE(cases.hi_left_by_rise, 1);
    EXPECT_GE(cases.bound_left_by_populations, 1);

    // Exact counts: dirty flows, skipped solves, dirty nodes, node cache
    // hits, dirty links (the workload has none) and Eq. 1 sum reuses.
    // Without the pin rule the restore phase re-solves the squeezed
    // group's flows on every iteration.
    using Counts = std::vector<std::uint64_t>;
    EXPECT_EQ(stats_delta({}, cold), (Counts{612, 1188, 811, 2189, 0, 0}));
    EXPECT_EQ(stats_delta(cold, squeeze), (Counts{1009, 791, 1588, 1412, 0, 0}));
    EXPECT_EQ(stats_delta(squeeze, restore), (Counts{931, 1769, 1312, 3188, 0, 0}));
}

TEST(ParallelEngine, CapacityOnlyChangeReadmitsOneNode) {
    // A capacity change touches no rate, price or ceiling, so the next
    // iteration re-admits the squeezed node alone: no rate solve, no link
    // sum, and every other node reuses its cached admission.  The
    // headroom workload quiesces first, so no rate move widens the sets.
    workload::WorkloadOptions options;
    options.node_capacity = 3.0e7;
    options.rate_max = 60.0;
    const model::ProblemSpec spec = workload::make_scaled_workload(options);
    core::LrgpOptimizer serial(spec);
    core::ParallelLrgpEngine engine(spec, {}, {.threads = 2});
    run_lockstep(serial, engine, 120);
    const core::IncrementalStats before = engine.incrementalStats();

    const model::NodeId squeezed = workload::find_node(spec, "r0_S1");
    const double capacity = spec.node(squeezed).capacity * 0.9;
    serial.setNodeCapacity(squeezed, capacity);
    engine.setNodeCapacity(squeezed, capacity);
    run_lockstep(serial, engine, 1);
    const core::IncrementalStats after = engine.incrementalStats();
    EXPECT_EQ(after.dirty_flows - before.dirty_flows, 0u);
    EXPECT_EQ(after.dirty_nodes - before.dirty_nodes, 1u);
    EXPECT_EQ(after.dirty_links - before.dirty_links, 0u);
    EXPECT_EQ(after.node_cache_hits - before.node_cache_hits, spec.nodeCount() - 1);

    run_lockstep(serial, engine, 40);
}

TEST(ParallelEngine, RankingFlipsAndTiesMatchSerial) {
    // Node S0 ranks classes of two flows whose benefit-cost order swaps
    // as the rates move, plus two identical classes t1 < t2 whose equal
    // ratios leave the order to the class-id tie-break.  The schedule
    // makes the engine sort S0 while t1 is out of the ranking (the slow
    // flow returns at rate_min, and its class b jumps ahead of a), so
    // t1's slot is stored last; when t1's ceiling comes back, the walk
    // meets t2 before t1 and only the tie-break can restore the order.
    model::ProblemBuilder b;
    const model::NodeId source = b.addNode("P", 1e9);
    const model::NodeId s0 = b.addNode("S0", 2e5);
    const model::NodeId s1 = b.addNode("S1", 4e5);
    const model::NodeId s2 = b.addNode("S2", 4e5);
    const model::FlowId fast = b.addFlow("fast", source, 10.0, 1000.0);
    const model::FlowId slow = b.addFlow("slow", source, 10.0, 60.0);
    b.routeThroughNode(fast, s0, 3.0);
    b.routeThroughNode(fast, s1, 3.0);
    b.routeThroughNode(slow, s0, 3.0);
    b.routeThroughNode(slow, s2, 3.0);
    const auto log_utility = [](double w) { return std::make_shared<utility::LogUtility>(w); };
    // Added first, so S0's classes sit at node-class slots unequal to
    // their ids.
    b.addClass("c", fast, s1, 400, 19.0, log_utility(8.0));
    const model::ClassId a = b.addClass("a", fast, s0, 200, 19.0, log_utility(20.0));
    const model::ClassId bc = b.addClass("b", slow, s0, 200, 19.0, log_utility(16.0));
    const model::ClassId t1 = b.addClass("t1", fast, s0, 300, 19.0, log_utility(5.0));
    const model::ClassId t2 = b.addClass("t2", fast, s0, 300, 19.0, log_utility(5.0));
    b.addClass("d", slow, s2, 400, 19.0, log_utility(8.0));
    const model::ProblemSpec spec = b.build();

    core::LrgpOptimizer serial(spec);
    core::ParallelLrgpEngine one(spec, {}, {.threads = 1});
    core::ParallelLrgpEngine three(spec, {}, {.threads = 3});

    // Serial-side witnesses that the ranking at S0 really flips and that
    // the tie-break really decides an admission.
    int flips = 0, tie_splits = 0;
    std::optional<bool> a_first;
    run_lockstep(serial, {&one, &three}, 240, [&](int it) {
        const core::GreedyConsumerAllocator greedy(serial.problem());
        const std::vector<core::BenefitCost> ranked =
            greedy.benefitCosts(s0, serial.allocation().rates);
        const auto rank_of = [&](model::ClassId cls) {
            return std::find_if(ranked.begin(), ranked.end(),
                                [&](const core::BenefitCost& c) { return c.cls == cls; });
        };
        if (rank_of(a) != ranked.end() && rank_of(bc) != ranked.end()) {
            const bool now = rank_of(a) < rank_of(bc);
            if (a_first && *a_first != now) ++flips;
            a_first = now;
        }
        const std::vector<int>& pops = serial.allocation().populations;
        if (rank_of(t1) != ranked.end() && rank_of(t2) != ranked.end() &&
            pops[t1.index()] != pops[t2.index()])
            ++tie_splits;

        switch (it) {
            case 60:
                serial.removeFlow(slow);
                for (auto* e : {&one, &three}) e->removeFlow(slow);
                break;
            case 80:
                serial.setClassMaxConsumers(t1, 0);
                for (auto* e : {&one, &three}) e->setClassMaxConsumers(t1, 0);
                break;
            case 90:
                serial.restoreFlow(slow);
                for (auto* e : {&one, &three}) e->restoreFlow(slow);
                break;
            case 120:
                serial.setClassMaxConsumers(t1, 300);
                for (auto* e : {&one, &three}) e->setClassMaxConsumers(t1, 300);
                break;
            case 150: {
                core::PriceVector warm = serial.prices();
                for (double& p : warm.node) p *= 0.5;
                const std::vector<int> pops_one(spec.classCount(), 1);
                serial.warmStart(warm, &pops_one);
                for (auto* e : {&one, &three}) e->warmStart(warm, &pops_one);
                break;
            }
            case 190:
                for (auto* e : {&one, &three}) e->restore(e->snapshot());
                break;
            default: break;
        }
    });
    EXPECT_GT(flips, 0) << "the benefit-cost order at S0 never swapped";
    EXPECT_GT(tie_splits, 0) << "the tied classes were always admitted alike";
}

TEST(ParallelEngine, ShiftedLogUsesFastPathAndMatches) {
    model::ProblemBuilder b;
    const model::NodeId source = b.addNode("P", 1e9);
    const model::NodeId s0 = b.addNode("S0", 5e4);
    const model::NodeId s1 = b.addNode("S1", 8e4);
    const model::FlowId f0 = b.addFlow("f0", source, 5.0, 600.0);
    const model::FlowId f1 = b.addFlow("f1", source, 5.0, 600.0);
    b.routeThroughNode(f0, s0, 3.0);
    b.routeThroughNode(f0, s1, 3.0);
    b.routeThroughNode(f1, s1, 2.0);
    b.addClass("a", f0, s0, 300, 12.0, std::make_shared<utility::ShiftedLogUtility>(25.0, 4.0));
    b.addClass("b", f0, s1, 900, 12.0, std::make_shared<utility::ShiftedLogUtility>(6.0, 4.0));
    b.addClass("c", f1, s1, 500, 15.0, std::make_shared<utility::ShiftedLogUtility>(40.0, 9.0));
    const model::ProblemSpec spec = b.build();

    core::ParallelLrgpEngine engine(spec, {}, {.threads = 2});
    EXPECT_EQ(engine.compiled().flow_family[0], core::SolveFamily::kShiftedLog);
    EXPECT_EQ(engine.compiled().flow_family_param[0], 4.0);
    EXPECT_EQ(engine.compiled().flow_family[1], core::SolveFamily::kShiftedLog);

    core::LrgpOptimizer serial(spec);
    run_lockstep(serial, engine, 250);
}

TEST(ParallelEngine, MixedAndScaledFamiliesFallBackToReferenceSolver) {
    model::ProblemBuilder b;
    const model::NodeId source = b.addNode("P", 1e9);
    const model::NodeId s0 = b.addNode("S0", 6e4);
    const model::FlowId mixed = b.addFlow("mixed", source, 10.0, 800.0);
    const model::FlowId scaled = b.addFlow("scaled", source, 10.0, 800.0);
    b.routeThroughNode(mixed, s0, 3.0);
    b.routeThroughNode(scaled, s0, 3.0);
    // Mixed families within one flow; ScaledUtility chain on the other.
    b.addClass("m_log", mixed, s0, 400, 19.0, std::make_shared<utility::LogUtility>(10.0));
    b.addClass("m_pow", mixed, s0, 400, 19.0, std::make_shared<utility::PowerUtility>(2.0, 0.5));
    b.addClass("s_scaled", scaled, s0, 600, 19.0,
               std::make_shared<utility::ScaledUtility>(
                   3.0, std::make_shared<utility::LogUtility>(7.0)));
    const model::ProblemSpec spec = b.build();

    core::ParallelLrgpEngine engine(spec, {}, {.threads = 2});
    EXPECT_EQ(engine.compiled().flow_family[mixed.index()], core::SolveFamily::kGeneric);
    EXPECT_EQ(engine.compiled().flow_family[scaled.index()], core::SolveFamily::kGeneric);

    core::LrgpOptimizer serial(spec);
    run_lockstep(serial, engine, 250);
}

/// The compile's bucketed spans against the direct scans they replace:
/// for every node hop of every flow, the flow's classes at that node in
/// classesOfFlow order; for every node and link, its flows with the
/// spec's cost lookup.
void expect_hop_spans_match_naive_scan(const model::ProblemSpec& spec) {
    std::vector<std::size_t> begin{0};
    std::vector<std::uint32_t> classes;
    std::vector<double> gcost;
    for (const model::FlowSpec& f : spec.flows()) {
        for (const model::FlowNodeHop& hop : f.nodes) {
            for (model::ClassId j : spec.classesOfFlow(f.id)) {
                if (spec.consumerClass(j).node != hop.node) continue;
                classes.push_back(j.value);
                gcost.push_back(spec.consumerClass(j).consumer_cost);
            }
            begin.push_back(classes.size());
        }
    }
    const core::CompiledProblem cp(spec);
    EXPECT_EQ(cp.hop_class_begin, begin);
    EXPECT_EQ(cp.hop_class_class, classes);
    EXPECT_EQ(cp.hop_class_gcost, gcost);

    std::vector<std::uint32_t> flows;
    std::vector<double> costs;
    for (const model::NodeSpec& b : spec.nodes()) {
        for (model::FlowId i : spec.flowsAtNode(b.id)) {
            flows.push_back(i.value);
            costs.push_back(spec.flowNodeCost(b.id, i));
        }
        EXPECT_EQ(cp.node_flow_begin[b.id.index() + 1], flows.size());
    }
    EXPECT_EQ(cp.node_flow_flow, flows);
    EXPECT_EQ(cp.node_flow_fcost, costs);
    flows.clear();
    costs.clear();
    for (const model::LinkSpec& l : spec.links()) {
        for (model::FlowId i : spec.flowsOnLink(l.id)) {
            flows.push_back(i.value);
            costs.push_back(spec.linkCost(l.id, i));
        }
        EXPECT_EQ(cp.link_flow_begin[l.id.index() + 1], flows.size());
    }
    EXPECT_EQ(cp.link_flow_flow, flows);
    EXPECT_EQ(cp.link_flow_cost, costs);
}

TEST(CompiledProblem, HopSpansMatchNaiveScan) {
    constexpr workload::UtilityShape kShapes[] = {
        workload::UtilityShape::kLog, workload::UtilityShape::kPow025,
        workload::UtilityShape::kPow05, workload::UtilityShape::kPow075};
    for (int seed = 1; seed <= 50; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        workload::RandomWorkloadOptions options;
        options.seed = static_cast<std::uint32_t>(seed);
        options.shape = kShapes[seed % 4];
        options.link_bottleneck_probability = (seed % 3 == 0) ? 1.0 : 0.0;
        expect_hop_spans_match_naive_scan(workload::make_random_workload(options));
    }
    SCOPED_TRACE("paper_churn shape, 10^5 classes");
    workload::WorkloadOptions churn;
    churn.flow_replicas = 50;
    churn.cnode_replicas = 100;
    expect_hop_spans_match_naive_scan(workload::make_scaled_workload(churn));
}

TEST(CompiledProblem, NodeSlotsMirrorTheSpec) {
    workload::WorkloadOptions options;
    options.flow_replicas = 2;
    options.cnode_replicas = 3;
    const model::ProblemSpec spec = workload::make_scaled_workload(options);
    core::CompiledProblem cp(spec);
    for (const model::NodeSpec& node : spec.nodes()) {
        const std::vector<model::ClassId>& at_node = spec.classesAtNode(node.id);
        const std::size_t begin = cp.node_class_begin[node.id.index()];
        ASSERT_EQ(cp.node_class_begin[node.id.index() + 1] - begin, at_node.size());
        for (std::size_t i = 0; i < at_node.size(); ++i) {
            const model::ClassSpec& c = spec.consumerClass(at_node[i]);
            EXPECT_EQ(cp.class_slot[c.id.index()], begin + i);
            EXPECT_EQ(cp.node_class_class[begin + i], c.id.value);
            EXPECT_EQ(cp.node_class_flow[begin + i], c.flow.value);
            EXPECT_EQ(cp.node_class_gcost[begin + i], c.consumer_cost);
            EXPECT_EQ(cp.node_class_max_consumers[begin + i], c.max_consumers);
        }
    }
    // The setter writes the class's slot, not the entry at its id.
    std::uint32_t moved = 0;
    while (moved < spec.classCount() && cp.class_slot[moved] == moved) ++moved;
    ASSERT_LT(moved, spec.classCount()) << "every class sits at the slot equal to its id";
    cp.setClassMaxConsumers(model::ClassId{moved}, 7);
    EXPECT_EQ(cp.node_class_max_consumers[cp.class_slot[moved]], 7);
}

TEST(ParallelEngine, PhaseTimesAccumulateWhenEnabled) {
    const model::ProblemSpec spec = workload::make_base_workload();
    core::ParallelLrgpEngine engine(spec, {},
                                    {.threads = 1, .collect_phase_times = true});
    engine.run(10);
    const core::PhaseTimes& t = engine.phaseTimes();
    EXPECT_EQ(t.iterations, 10u);
    EXPECT_GT(t.dirty_ns + t.rate_ns + t.node_ns + t.link_ns + t.reduce_ns, 0u);
}

TEST(ParallelEngine, DynamicOpContractsMatchSerial) {
    const model::ProblemSpec spec = workload::make_base_workload();
    core::ParallelLrgpEngine engine(spec, {}, {.threads = 2});
    engine.removeFlow(model::FlowId{0});
    EXPECT_THROW(engine.removeFlow(model::FlowId{0}), std::logic_error);
    engine.restoreFlow(model::FlowId{0});
    EXPECT_THROW(engine.restoreFlow(model::FlowId{0}), std::logic_error);
    core::PriceVector wrong = core::PriceVector::zeros(1, 0);
    EXPECT_THROW(engine.warmStart(wrong), std::invalid_argument);
    EXPECT_THROW(engine.run(0), std::invalid_argument);
    EXPECT_THROW(engine.runUntilConverged(0), std::invalid_argument);
}

TEST(TaskPool, CoversRangeExactlyOncePerIndex) {
    core::TaskPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);
    std::vector<int> hits(1000, 0);
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(hits.size(), [&](std::size_t b, std::size_t e, int) {
            for (std::size_t i = b; i < e; ++i) ++hits[i];
        });
    for (int h : hits) EXPECT_EQ(h, 50);
}

TEST(TaskPool, PropagatesWorkerExceptions) {
    core::TaskPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t b, std::size_t, int) {
                                      if (b >= 25) throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must survive a failed job and run subsequent ones.
    std::vector<int> hits(10, 0);
    pool.parallelFor(hits.size(), [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TaskPool, HandlesEmptyAndSingleThread) {
    core::TaskPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t, std::size_t, int) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(7, [&](std::size_t b, std::size_t e, int w) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 7u);
        EXPECT_EQ(w, 0);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace lrgp
