#include <gtest/gtest.h>

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

TEST(Experiment, UnknownEventTargetThrows) {
    EXPECT_THROW((void)run_experiment_string(R"({
        "workload": {"kind": "base"},
        "optimizer": {"kind": "lrgp", "iterations": 50},
        "events": [{"at": 10, "action": "remove_flow", "flow": "ghost"}]})"),
                 std::invalid_argument);
}

}  // namespace
