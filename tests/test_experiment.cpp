#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/experiment.hpp"
#include "lrgp/optimizer.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using exp::run_experiment_string;

TEST(Experiment, BaseLrgpRunMatchesDirectOptimizer) {
    const auto result = run_experiment_string(R"({
        "name": "basic",
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 100}
    })");
    core::LrgpOptimizer direct(workload::make_base_workload());
    direct.run(100);
    EXPECT_EQ(result.name, "basic");
    EXPECT_DOUBLE_EQ(result.final_utility, direct.currentUtility());
    EXPECT_EQ(result.utility_trace.size(), 100u);
    EXPECT_EQ(result.converged_at, direct.convergence().convergedAt());
}

TEST(Experiment, FixedGammaHonored) {
    const auto adaptive = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "gamma": "adaptive", "iterations": 120}
    })");
    const auto fixed = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "gamma": 1.0, "iterations": 120}
    })");
    // Undamped gamma must leave a visibly noisier trace.
    EXPECT_GT(fixed.utility_trace.trailingRelativeAmplitude(40),
              10.0 * adaptive.utility_trace.trailingRelativeAmplitude(40));
}

TEST(Experiment, RemoveFlowEventReproducesFigureThree) {
    const auto result = run_experiment_string(R"({
        "name": "recovery",
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 250},
        "events": [{"at": 150, "action": "remove_flow", "flow": "f0_5"}]
    })");
    // Utility right before the event is high; right after, depressed.
    EXPECT_GT(result.utility_trace[148], 1.2e6);
    EXPECT_LT(result.utility_trace[160], 0.6e6);
    EXPECT_LT(result.final_utility, 0.6e6);
}

TEST(Experiment, EventScheduleMatchesHandDrivenOptimizer) {
    // All four actions, listed out of time order.  The two capacity
    // events share an `at`, so file order decides the capacity S0 ends
    // with; the event at 250 lies past the last iteration.
    const auto result = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 200},
        "events": [
            {"at": 120, "action": "set_class_max", "class": "r0_c4", "max": 3000},
            {"at": 80,  "action": "set_node_capacity", "node": "r0_S0", "capacity": 1800000},
            {"at": 60,  "action": "remove_flow", "flow": "f0_5"},
            {"at": 250, "action": "remove_flow", "flow": "f0_0"},
            {"at": 80,  "action": "set_node_capacity", "node": "r0_S0", "capacity": 450000},
            {"at": 110, "action": "restore_flow", "flow": "f0_5"}
        ]
    })");

    core::LrgpOptimizer direct(workload::make_base_workload());
    const model::ProblemSpec& problem = direct.problem();
    const model::FlowId f0_5 = workload::find_flow(problem, "f0_5");
    const model::NodeId s0 = workload::find_node(problem, "r0_S0");
    model::ClassId r0_c4{0};
    for (const model::ClassSpec& c : problem.classes())
        if (c.name == "r0_c4") r0_c4 = c.id;
    for (int t = 1; t <= 200; ++t) {
        if (t == 60) direct.removeFlow(f0_5);
        if (t == 80) {
            direct.setNodeCapacity(s0, 1800000.0);
            direct.setNodeCapacity(s0, 450000.0);
        }
        if (t == 110) direct.restoreFlow(f0_5);
        if (t == 120) direct.setClassMaxConsumers(r0_c4, 3000);
        direct.step();
    }

    EXPECT_EQ(result.utility_trace.samples(), direct.utilityTrace().samples());
    EXPECT_EQ(result.final_utility, direct.currentUtility());
    EXPECT_EQ(result.converged_at, direct.convergence().convergedAt());
    const model::AllocationSummary expected = model::summarize(problem, direct.allocation());
    EXPECT_EQ(result.summary.total_utility, expected.total_utility);
    EXPECT_EQ(result.summary.node_utilization, expected.node_utilization);
    EXPECT_EQ(result.summary.link_utilization, expected.link_utilization);
    EXPECT_EQ(result.summary.jain_fairness, expected.jain_fairness);
    ASSERT_EQ(result.summary.classes.size(), expected.classes.size());
    for (std::size_t j = 0; j < expected.classes.size(); ++j) {
        EXPECT_EQ(result.summary.classes[j].admitted, expected.classes[j].admitted) << j;
        EXPECT_EQ(result.summary.classes[j].max_consumers, expected.classes[j].max_consumers)
            << j;
        EXPECT_EQ(result.summary.classes[j].per_consumer_utility,
                  expected.classes[j].per_consumer_utility)
            << j;
    }
}

TEST(Experiment, CapacityAndClassEvents) {
    const auto result = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 200},
        "events": [
            {"at": 80,  "action": "set_node_capacity", "node": "r0_S0", "capacity": 1800000},
            {"at": 120, "action": "set_class_max", "class": "r0_c4", "max": 3000}
        ]
    })");
    // Doubling S0 and growing a class ceiling must raise utility over the
    // unperturbed run.
    core::LrgpOptimizer baseline_run(workload::make_base_workload());
    baseline_run.run(200);
    EXPECT_GT(result.final_utility, baseline_run.currentUtility());
}

TEST(Experiment, ScaledAndRandomWorkloads) {
    const auto scaled = run_experiment_string(R"({
        "workload": {"kind": "scaled", "flow_replicas": 2},
        "optimizer": {"kind": "lrgp", "iterations": 80}
    })");
    EXPECT_GT(scaled.final_utility, 2.5e6);
    const auto random_run = run_experiment_string(R"({
        "workload": {"kind": "random", "seed": 7},
        "optimizer": {"kind": "lrgp", "iterations": 80}
    })");
    EXPECT_GT(random_run.final_utility, 0.0);
}

TEST(Experiment, SaAndRatesOnlyKinds) {
    const auto sa = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "sa", "steps": 5000, "temperatures": [10.0]}
    })");
    EXPECT_GT(sa.final_utility, 0.0);
    const auto rates_only = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "rates_only", "policy": "proportional", "iterations": 200}
    })");
    EXPECT_GT(rates_only.final_utility, 0.0);
    EXPECT_LT(rates_only.final_utility, sa.final_utility * 2.0);
}

TEST(Experiment, MultirateKind) {
    const auto result = run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "multirate", "iterations": 150}
    })");
    EXPECT_GT(result.final_utility, 1.3e6);
}

TEST(Experiment, InlineWorkload) {
    const auto result = run_experiment_string(R"({
        "workload": {"kind": "inline", "problem": {
            "nodes": [{"name": "P", "capacity": 1e9}, {"name": "S", "capacity": 1000}],
            "flows": [{"name": "f", "source": "P", "rate_min": 1, "rate_max": 50,
                       "nodes": [{"node": "S", "cost": 2}]}],
            "classes": [{"name": "c", "flow": "f", "node": "S", "max_consumers": 8,
                         "consumer_cost": 5,
                         "utility": {"type": "log", "weight": 30}}]
        }},
        "optimizer": {"kind": "lrgp", "iterations": 100}
    })");
    EXPECT_GT(result.final_utility, 0.0);
}

TEST(Experiment, ResultJsonSerialization) {
    const auto result = run_experiment_string(R"({
        "name": "ser",
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 30}
    })");
    const auto json = exp::result_to_json(result);
    EXPECT_EQ(json.at("name").asString(), "ser");
    EXPECT_DOUBLE_EQ(json.at("final_utility").asNumber(), result.final_utility);
    EXPECT_EQ(json.at("utility_trace").asArray().size(), 30u);
    const auto no_trace = exp::result_to_json(result, false);
    EXPECT_FALSE(no_trace.has("utility_trace"));
}

TEST(Experiment, SchemaErrors) {
    EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "nope"},
        "optimizer": {"kind": "lrgp"}})"),
                 std::runtime_error);
    EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "base"},
        "optimizer": {"kind": "nope"}})"),
                 std::runtime_error);
    EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp"},
        "events": [{"at": 0, "action": "remove_flow", "flow": "f0_0"}]})"),
                 std::runtime_error);
    EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "base"},
        "optimizer": {"kind": "sa"},
        "events": [{"at": 5, "action": "remove_flow", "flow": "f0_0"}]})"),
                 std::runtime_error);
    // Non-positive counts: -5 steps would otherwise wrap to ~1.8e19, and
    // -3 iterations would report the untouched start as a result.
    for (const char* count : {"0", "-5"}) {
        const std::string c(count);
        EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "base"},
            "optimizer": {"kind": "sa", "steps": )" + c + "}}"),
                     std::runtime_error)
            << count;
    }
    for (const char* count : {"0", "-3"}) {
        const std::string c(count);
        EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "base"},
            "optimizer": {"kind": "lrgp", "iterations": )" + c + "}}"),
                     std::runtime_error)
            << count;
    }
    // A negative seed would wrap to 4294967293.
    EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "random", "seed": -3},
        "optimizer": {"kind": "lrgp", "iterations": 5}})"),
                 std::runtime_error);
    // The base workload has no links, so no LinkPriceController would
    // ever check a negative link_gamma.
    EXPECT_THROW((void)run_experiment_string(R"({"workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 5, "link_gamma": -1}})"),
                 std::runtime_error);
}

TEST(Experiment, RejectsNonIntegralIntegerFields) {
    // Iteration counts, event times and class maxima are checked, never
    // cast: 2.5 must not truncate, 1e300 must not wrap.
    for (const char* bad : {"2.5", "1e300"}) {
        const std::string b(bad);
        EXPECT_THROW((void)run_experiment_string(
                         R"({"workload": {"kind": "base"},
                             "optimizer": {"kind": "lrgp", "iterations": )" + b + "}}"),
                     std::runtime_error)
            << bad;
        EXPECT_THROW((void)run_experiment_string(
                         R"({"workload": {"kind": "base"},
                             "optimizer": {"kind": "lrgp", "iterations": 20},
                             "events": [{"at": )" + b +
                         R"(, "action": "remove_flow", "flow": "f0_0"}]})"),
                     std::runtime_error)
            << bad;
        EXPECT_THROW((void)run_experiment_string(
                         R"({"workload": {"kind": "base"},
                             "optimizer": {"kind": "lrgp", "iterations": 20},
                             "events": [{"at": 5, "action": "set_class_max",
                                         "class": "r0_c4", "max": )" + b + "}]}"),
                     std::runtime_error)
            << bad;
    }
}

TEST(Experiment, CapacityEventBelowFloorThrows) {
    const std::string head = R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 60},
        "events": [{"at": 20, "action": "set_node_capacity", "node": "r0_S0", "capacity": )";
    try {
        (void)run_experiment_string(head + "1e-9}]}");
        FAIL() << "a capacity below the floor was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("'r0_S0'"), std::string::npos) << e.what();
    }
    // ProblemBuilder::build() accepts a node exactly at its floor, and so
    // does the event.
    const model::ProblemSpec spec = workload::make_base_workload();
    const double floor = spec.floors().node[workload::find_node(spec, "r0_S0").index()];
    ASSERT_GT(floor, 0.0);
    char capacity[32];
    std::snprintf(capacity, sizeof capacity, "%.17g", floor);
    const auto result = run_experiment_string(head + capacity + "}]}");
    EXPECT_EQ(result.utility_trace.size(), 60u);
}

TEST(Experiment, UnknownEventTargetThrows) {
    EXPECT_THROW((void)run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 50},
        "events": [{"at": 10, "action": "remove_flow", "flow": "ghost"}]})"),
                 std::invalid_argument);
    // Names resolve when the document loads, so an event past the last
    // iteration is checked too.
    EXPECT_THROW((void)run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 50},
        "events": [{"at": 500, "action": "remove_flow", "flow": "ghost"}]})"),
                 std::invalid_argument);
}

}  // namespace
