// Property-based correctness harness: LRGP invariants checked over a
// large family of seeded random workloads, plus a differential oracle
// that runs the same problems through all three engines (serial,
// parallel, synchronous distributed) and requires agreement.
//
// These tests are registered under the ctest label `property` so CI can
// run them separately (including under sanitizers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_lrgp.hpp"
#include "lrgp/greedy_allocator.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "model/allocation.hpp"
#include "model/analysis.hpp"
#include "shard/sharded_engine.hpp"
#include "workload/random_workload.hpp"
#include "workload/workloads.hpp"

namespace lrgp {
namespace {

constexpr int kPropertySeeds = 200;     ///< random problems per property
constexpr int kDifferentialSeeds = 25;  ///< problems for the 3-engine oracle
constexpr int kIterations = 40;         ///< LRGP iterations per problem

/// Varies every generator knob with the seed so the 200 problems cover
/// utility shapes, sizes, and (every fourth seed) a shared bottleneck
/// link that exercises link pricing.
workload::RandomWorkloadOptions options_for_seed(std::uint32_t seed) {
    workload::RandomWorkloadOptions opt;
    opt.seed = seed;
    switch (seed % 4) {
        case 0: opt.shape = workload::UtilityShape::kLog; break;
        case 1: opt.shape = workload::UtilityShape::kPow025; break;
        case 2: opt.shape = workload::UtilityShape::kPow05; break;
        default: opt.shape = workload::UtilityShape::kPow075; break;
    }
    opt.max_flows = 3 + static_cast<int>(seed % 6);
    opt.max_cnodes = 2 + static_cast<int>(seed % 5);
    opt.link_bottleneck_probability = (seed % 4 == 0) ? 1.0 : 0.0;
    return opt;
}

/// All the per-allocation invariants that must hold after ANY number of
/// iterations (they are maintained by construction, not by convergence).
void check_allocation_invariants(const model::ProblemSpec& spec,
                                 const core::IterationRecord& record,
                                 std::uint32_t seed) {
    const model::Allocation& alloc = record.allocation;
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Rates respect their boxes (Eq. 2); inactive flows are pinned to 0.
    for (const model::FlowSpec& f : spec.flows()) {
        const double r = alloc.rates.at(f.id.index());
        if (!f.active) {
            EXPECT_EQ(r, 0.0) << "inactive flow " << f.name;
            continue;
        }
        EXPECT_GE(r, f.rate_min) << "flow " << f.name;
        EXPECT_LE(r, f.rate_max) << "flow " << f.name;
    }

    // Populations are integers in [0, n_max] (Eq. 3).
    for (const model::ClassSpec& c : spec.classes()) {
        const int n = alloc.populations.at(c.id.index());
        EXPECT_GE(n, 0) << "class " << c.name;
        EXPECT_LE(n, c.max_consumers) << "class " << c.name;
    }

    // Node capacity (Eq. 5) holds on every iteration: the greedy
    // allocator only admits consumers into the remaining capacity.
    // The epsilon covers accumulated rounding in the usage recompute.
    for (const model::NodeSpec& b : spec.nodes()) {
        const double usage = model::node_usage(spec, alloc, b.id);
        EXPECT_LE(usage, b.capacity * (1.0 + 1e-9) + 1e-9) << "node " << b.name;
    }

    // The reported utility is exactly the model's Eq. 1 recomputation —
    // bitwise, not approximately: every engine promises this.
    EXPECT_EQ(record.utility, model::total_utility(spec, alloc));
}

/// Greedy post-conditions at the final rates: the published populations
/// must be exactly what a fresh allocation run produces, admission must
/// follow the benefit-cost ranking, and no unmet class may still fit.
void check_greedy_invariants(const model::ProblemSpec& spec,
                             const core::IterationRecord& record,
                             std::uint32_t seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::GreedyConsumerAllocator greedy(spec);
    for (const model::NodeSpec& b : spec.nodes()) {
        if (spec.classesAtNode(b.id).empty()) continue;
        const core::NodeAllocationResult fresh =
            greedy.allocate(b.id, record.allocation.rates);

        // Oracle equality: the engine's populations at this node are the
        // greedy allocation of its final rates, exactly.
        for (const auto& [cls, n] : fresh.populations)
            EXPECT_EQ(record.allocation.populations.at(cls.index()), n)
                << "node " << b.name << " class " << spec.consumerClass(cls).name;

        const std::vector<core::BenefitCost> ranked =
            greedy.benefitCosts(b.id, record.allocation.rates);
        const double remaining = b.capacity - fresh.used;

        // Ranked-prefix admission: every class ranked before the first
        // unmet class is fully admitted.
        bool met_prefix = true;
        for (const core::BenefitCost& bc : ranked) {
            const model::ClassSpec& c = spec.consumerClass(bc.cls);
            const int n = record.allocation.populations.at(bc.cls.index());
            if (n < c.max_consumers) {
                if (met_prefix && fresh.best_unmet_bc) {
                    EXPECT_EQ(*fresh.best_unmet_bc, bc.ratio)
                        << "first unmet class must define BC(b,t) at node " << b.name;
                }
                met_prefix = false;
                // Greedy maximality: an unmet class must no longer fit.
                EXPECT_LT(remaining, bc.unit_cost * (1.0 + 1e-9) + 1e-9)
                    << "unmet class " << c.name << " still fits at node " << b.name;
            }
        }
    }
}

TEST(PropertyInvariants, RandomWorkloadsSatisfyAllInvariants) {
    for (std::uint32_t seed = 1; seed <= kPropertySeeds; ++seed) {
        const model::ProblemSpec spec =
            workload::make_random_workload(options_for_seed(seed));
        core::LrgpOptimizer optimizer(spec);
        for (int i = 0; i < kIterations; ++i) {
            const core::IterationRecord& record = optimizer.step();
            // Checking every iteration would be O(iters * spec); the
            // transient first steps and the settled tail catch the
            // interesting violations.
            if (i < 3 || i == kIterations - 1)
                check_allocation_invariants(spec, record, seed);
        }
        check_greedy_invariants(spec, optimizer.step(), seed);
    }
}

TEST(PropertyInvariants, DynamicChangesPreserveInvariants) {
    // Flow removal / restore and capacity changes must never produce an
    // infeasible intermediate allocation.
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
        const model::ProblemSpec spec =
            workload::make_random_workload(options_for_seed(seed));
        core::LrgpOptimizer optimizer(spec);
        optimizer.run(10);
        const model::FlowId victim = spec.flows().front().id;
        // The optimizer mutates its own copy of the problem, so the
        // invariants must be checked against optimizer.problem().
        optimizer.removeFlow(victim);
        check_allocation_invariants(optimizer.problem(), optimizer.step(), seed);
        optimizer.restoreFlow(victim);
        check_allocation_invariants(optimizer.problem(), optimizer.step(), seed);
        const model::NodeSpec& node = spec.nodes().back();
        optimizer.setNodeCapacity(node.id, node.capacity * 0.5);
        optimizer.step();
        check_allocation_invariants(optimizer.problem(), optimizer.step(), seed);
    }
}

TEST(PropertyInvariants, ParallelEngineInvariantsAndBitwiseParity) {
    // The compiled parallel engine — in both full and incremental mode —
    // satisfies the same invariants and is bitwise identical to the
    // serial optimizer on every trajectory.
    for (std::uint32_t seed = 1; seed <= 60; ++seed) {
        const model::ProblemSpec spec =
            workload::make_random_workload(options_for_seed(seed));
        core::LrgpOptimizer serial(spec);
        core::EngineConfig config;
        config.threads = (seed % 3) + 1;
        core::ParallelLrgpEngine engine(spec, {}, config);
        config.threads = ((seed + 1) % 3) + 1;
        config.incremental = true;
        core::ParallelLrgpEngine incremental(spec, {}, config);
        for (int i = 0; i < kIterations; ++i) {
            const core::IterationRecord& s = serial.step();
            const core::IterationRecord& p = engine.step();
            const core::IterationRecord& q = incremental.step();
            ASSERT_EQ(s.utility, p.utility) << "seed " << seed << " iter " << i;
            ASSERT_EQ(s.allocation.rates, p.allocation.rates) << "seed " << seed;
            ASSERT_EQ(s.allocation.populations, p.allocation.populations) << "seed " << seed;
            ASSERT_EQ(s.prices.node, p.prices.node) << "seed " << seed;
            ASSERT_EQ(s.prices.link, p.prices.link) << "seed " << seed;
            ASSERT_EQ(s.utility, q.utility) << "inc seed " << seed << " iter " << i;
            ASSERT_EQ(s.allocation.rates, q.allocation.rates) << "inc seed " << seed;
            ASSERT_EQ(s.allocation.populations, q.allocation.populations) << "inc seed " << seed;
            ASSERT_EQ(s.prices.node, q.prices.node) << "inc seed " << seed;
            ASSERT_EQ(s.prices.link, q.prices.link) << "inc seed " << seed;
        }
        check_allocation_invariants(spec, engine.step(), seed);
        check_allocation_invariants(spec, incremental.step(), seed);
    }
}

/// Finite rates, finite non-negative prices and populations in
/// [0, n^max] in the engine's published state; node and link feasibility
/// too when `feasible` is set.
void check_published_state(const core::Engine& engine, bool feasible) {
    const model::ProblemSpec& spec = engine.problem();
    const model::Allocation& alloc = engine.allocation();
    for (const double r : alloc.rates) EXPECT_TRUE(std::isfinite(r)) << "rate " << r;
    for (const auto* prices : {&engine.prices().node, &engine.prices().link})
        for (const double p : *prices)
            EXPECT_TRUE(p >= 0.0 && std::isfinite(p)) << "price " << p;
    for (const model::ClassSpec& c : spec.classes()) {
        const int n = alloc.populations.at(c.id.index());
        EXPECT_GE(n, 0) << "class " << c.name;
        EXPECT_LE(n, c.max_consumers) << "class " << c.name;
    }
    if (feasible) {
        const model::FeasibilityReport report = model::check_feasibility(spec, alloc);
        EXPECT_TRUE(report.feasible())
            << (report.violations.empty() ? "" : report.violations.front().detail);
    }
}

TEST(PropertyAdversarialOps, EveryEngineStaysFiniteInRangeAndFeasible) {
    // Hostile op sequences through core::Engine on every configuration
    // shard::make_engine builds: remove every flow, then restore them all;
    // squeeze every node to the floor sum of F * r_min its flows impose,
    // then restore it; warm start at prices of 1e300.  The state checks
    // run after every iteration.  Feasibility is checked from the second
    // iteration after each capacity op: the first one still computes its
    // rates from the prices of before the op.
    const std::pair<std::string, int> engines[] = {
        {"serial", 1}, {"compiled", 1}, {"incremental", 1}, {"sharded", 1}, {"sharded", 4}};
    constexpr int kPhase = 30;  ///< iterations after each op

    const model::ProblemSpec spec = workload::make_base_workload();
    for (const auto& [name, shards] : engines) {
        SCOPED_TRACE(name + " x" + std::to_string(shards));
        auto engine = shard::make_engine(name, spec, {}, 1, shards);
        // Runs a phase; feasibility is checked from iteration `feasible_from`.
        const auto phase = [&](int feasible_from) {
            for (int i = 0; i < kPhase; ++i) {
                engine->step();
                check_published_state(*engine, i >= feasible_from);
            }
        };
        phase(kPhase);

        for (const model::FlowSpec& f : spec.flows()) engine->removeFlow(f.id);
        phase(kPhase);
        for (const model::FlowSpec& f : spec.flows()) engine->restoreFlow(f.id);
        phase(kPhase);

        for (const model::NodeSpec& b : spec.nodes()) {
            double floor = 0.0;
            for (const model::FlowId i : spec.flowsAtNode(b.id))
                floor += spec.flowNodeCost(b.id, i) * spec.flow(i).rate_min;
            if (floor > 0.0) engine->setNodeCapacity(b.id, floor);
        }
        phase(1);
        for (const model::NodeSpec& b : spec.nodes()) engine->setNodeCapacity(b.id, b.capacity);
        phase(1);

        core::PriceVector huge = core::PriceVector::zeros(spec.nodeCount(), spec.linkCount());
        std::fill(huge.node.begin(), huge.node.end(), 1e300);
        std::fill(huge.link.begin(), huge.link.end(), 1e300);
        engine->warmStart(huge);
        check_published_state(*engine, false);
        phase(kPhase);
    }
}

TEST(PropertyDifferential, ThreeEnginesAgreeOnSeededWorkloads) {
    // Differential oracle: the serial optimizer, the parallel engine
    // (full and incremental) and the lossless synchronous distributed
    // protocol implement the same iteration; their utility trajectories
    // must coincide.  Serial vs parallel is a bitwise contract; the
    // distributed protocol computes the same arithmetic from
    // message-carried state, so its per-round utilities match to
    // double-equality.
    for (std::uint32_t seed = 1; seed <= kDifferentialSeeds; ++seed) {
        workload::RandomWorkloadOptions opt = options_for_seed(seed);
        // Sync rounds cost sim events proportional to hops; keep the
        // differential instances moderate so 25 of them stay fast.
        opt.max_flows = std::min(opt.max_flows, 5);
        const model::ProblemSpec spec = workload::make_random_workload(opt);

        core::LrgpOptimizer serial(spec);
        serial.run(20);

        core::EngineConfig config;
        config.threads = 2;
        core::ParallelLrgpEngine parallel(spec, {}, config);
        parallel.run(20);

        config.incremental = true;
        core::ParallelLrgpEngine incremental(spec, {}, config);
        incremental.run(20);

        dist::DistLrgp distributed(spec, dist::DistOptions{});
        distributed.runRounds(20);

        const auto& st = serial.utilityTrace();
        const auto& pt = parallel.utilityTrace();
        const auto& it = incremental.utilityTrace();
        const auto& dt = distributed.utilityTrace();
        ASSERT_GE(dt.size(), 20u) << "seed " << seed;
        for (std::size_t i = 0; i < 20; ++i) {
            EXPECT_EQ(st[i], pt[i]) << "seed " << seed << " iter " << i;
            EXPECT_EQ(st[i], it[i]) << "seed " << seed << " iter " << i;
            EXPECT_DOUBLE_EQ(st[i], dt[i]) << "seed " << seed << " round " << i + 1;
        }
    }
}

}  // namespace
}  // namespace lrgp
