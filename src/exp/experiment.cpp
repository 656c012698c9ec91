#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "baseline/annealing.hpp"
#include "baseline/rates_only.hpp"
#include "io/problem_json.hpp"
#include "lrgp/optimizer.hpp"
#include "multirate/multirate.hpp"
#include "scenario/runner.hpp"
#include "workload/random_workload.hpp"
#include "workload/workloads.hpp"

namespace lrgp::exp {

namespace {

workload::UtilityShape shapeFromString(const std::string& s) {
    if (s == "log") return workload::UtilityShape::kLog;
    if (s == "p025") return workload::UtilityShape::kPow025;
    if (s == "p05") return workload::UtilityShape::kPow05;
    if (s == "p075") return workload::UtilityShape::kPow075;
    throw std::runtime_error("experiment: unknown utility shape '" + s + "'");
}

int intAt(const io::JsonValue& obj, const std::string& key, int fallback) {
    return obj.has(key) ? obj.at(key).asInt() : fallback;
}

/// Id of the entity called `name` among `entities` (flows, nodes or
/// classes); throws std::invalid_argument when none is.
template <typename Entities>
std::uint32_t idByName(const Entities& entities, const std::string& name, const char* what) {
    for (const auto& entity : entities)
        if (entity.name == name) return entity.id.value;
    throw std::invalid_argument(std::string("experiment: no ") + what + " named '" + name + "'");
}

/// Reads `events` into a schedule sorted by `at` (equal times keep file
/// order), each name resolved against the built workload `spec`.  A node
/// capacity below the node's floor throws std::invalid_argument.
std::vector<scenario::DynamicOp> scheduleFromConfig(const io::JsonValue& config,
                                                    const model::ProblemSpec& spec) {
    using enum scenario::OpKind;
    std::vector<scenario::DynamicOp> schedule;
    if (!config.has("events")) return schedule;
    const model::ProblemSpec::Floors floors = spec.floors();
    for (const io::JsonValue& e : config.at("events").asArray()) {
        scenario::DynamicOp op;
        const int at = e.at("at").asInt();
        if (at < 1) throw std::runtime_error("experiment: event 'at' must be >= 1");
        op.time = at;
        const std::string& action = e.at("action").asString();
        if (action == "remove_flow" || action == "restore_flow") {
            op.kind = action == "remove_flow" ? kRemoveFlow : kRestoreFlow;
            op.target = idByName(spec.flows(), e.at("flow").asString(), "flow");
        } else if (action == "set_node_capacity") {
            op.kind = kSetNodeCapacity;
            op.value = e.at("capacity").asNumber();
            op.target = idByName(spec.nodes(), e.at("node").asString(), "node");
            if (op.value < floors.node[op.target])
                throw std::invalid_argument("experiment: capacity of node '" +
                                            e.at("node").asString() +
                                            "' is below its floor, the sum of F * rate_min "
                                            "over its flows");
        } else if (action == "set_class_max") {
            op.kind = kSetClassMaxConsumers;
            op.value = e.at("max").asInt();
            op.target = idByName(spec.classes(), e.at("class").asString(), "class");
        } else {
            throw std::runtime_error("experiment: unknown event action '" + action + "'");
        }
        schedule.push_back(op);
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const scenario::DynamicOp& a, const scenario::DynamicOp& b) {
                         return a.time < b.time;
                     });
    return schedule;
}

core::LrgpOptions lrgpOptions(const io::JsonValue& optimizer_config) {
    core::LrgpOptions options;
    if (optimizer_config.has("gamma")) {
        const io::JsonValue& gamma = optimizer_config.at("gamma");
        if (gamma.isString()) {
            if (gamma.asString() != "adaptive")
                throw std::runtime_error("experiment: gamma must be 'adaptive' or a number");
        } else {
            options.gamma = core::FixedGamma{gamma.asNumber(), gamma.asNumber()};
        }
    }
    if (optimizer_config.has("link_gamma")) {
        options.link_gamma = optimizer_config.at("link_gamma").asNumber();
        // A workload without links never hands it to a LinkPriceController.
        if (!(options.link_gamma >= 0.0 && std::isfinite(options.link_gamma)))
            throw std::runtime_error("experiment: link_gamma must be finite and >= 0");
    }
    return options;
}

model::ProblemSpec workloadFromConfig(const io::JsonValue& workload_config) {
    const std::string& kind = workload_config.at("kind").asString();
    const workload::UtilityShape shape =
        workload_config.has("shape") ? shapeFromString(workload_config.at("shape").asString())
                                     : workload::UtilityShape::kLog;
    if (kind == "base") return workload::make_base_workload(shape);
    if (kind == "scaled") {
        workload::WorkloadOptions options;
        options.shape = shape;
        options.flow_replicas = intAt(workload_config, "flow_replicas", 1);
        options.cnode_replicas = intAt(workload_config, "cnode_replicas", 1);
        return workload::make_scaled_workload(options);
    }
    if (kind == "random") {
        workload::RandomWorkloadOptions options;
        options.shape = shape;
        const int seed = intAt(workload_config, "seed", 1);
        if (seed < 0) throw std::runtime_error("experiment: seed must be >= 0");
        options.seed = static_cast<std::uint32_t>(seed);
        return workload::make_random_workload(options);
    }
    if (kind == "inline") return io::problem_from_json(workload_config.at("problem"));
    throw std::runtime_error("experiment: unknown workload kind '" + kind + "'");
}

}  // namespace

ExperimentResult run_experiment(const io::JsonValue& config) {
    const auto start_time = std::chrono::steady_clock::now();

    ExperimentResult result;
    result.name = config.has("name") ? config.at("name").asString() : "unnamed";

    model::ProblemSpec spec = workloadFromConfig(config.at("workload"));
    const io::JsonValue& optimizer_config = config.at("optimizer");
    const std::string& kind = optimizer_config.at("kind").asString();
    const int iterations = intAt(optimizer_config, "iterations", 250);
    const std::vector<scenario::DynamicOp> events = scheduleFromConfig(config, spec);

    if (kind == "lrgp") {
        if (iterations < 1) throw std::runtime_error("experiment: iterations must be >= 1");
        core::LrgpOptimizer optimizer(spec, lrgpOptions(optimizer_config));
        // One tick per iteration: an event at `at` applies before
        // iteration `at`.
        scenario::replay(optimizer, events, 1.0, iterations);
        result.final_utility = optimizer.currentUtility();
        result.converged_at = optimizer.convergence().convergedAt();
        result.utility_trace = optimizer.utilityTrace();
        result.summary = model::summarize(optimizer.problem(), optimizer.allocation());
    } else if (kind == "multirate") {
        if (!events.empty())
            throw std::runtime_error("experiment: multirate runs do not support events yet");
        multirate::MultirateOptimizer optimizer(spec);
        optimizer.run(iterations);
        result.final_utility = optimizer.currentUtility();
        result.converged_at = optimizer.convergence().convergedAt();
        result.utility_trace = optimizer.utilityTrace();
        // Summarize via the single-rate evaluators on the flow rates.
        model::Allocation flat;
        flat.rates = optimizer.allocation().flow_rates;
        flat.populations = optimizer.allocation().populations;
        result.summary = model::summarize(optimizer.problem(), flat);
    } else if (kind == "sa") {
        if (!events.empty())
            throw std::runtime_error("experiment: sa runs do not support events");
        std::vector<double> temperatures{5.0, 10.0, 50.0, 100.0};
        if (optimizer_config.has("temperatures")) {
            temperatures.clear();
            for (const io::JsonValue& t : optimizer_config.at("temperatures").asArray())
                temperatures.push_back(t.asNumber());
        }
        const int steps = intAt(optimizer_config, "steps", 100'000);
        if (steps < 1) throw std::runtime_error("experiment: steps must be >= 1");
        const auto sa = baseline::best_of_annealing(spec, temperatures,
                                                    static_cast<std::uint64_t>(steps), 1);
        result.final_utility = sa.best_utility;
        result.utility_trace.append(sa.best_utility);
        result.summary = model::summarize(spec, sa.best);
    } else if (kind == "rates_only") {
        if (!events.empty())
            throw std::runtime_error("experiment: rates_only runs do not support events");
        baseline::RatesOnlyOptions options;
        options.iterations = iterations;
        if (optimizer_config.has("policy")) {
            const std::string& policy = optimizer_config.at("policy").asString();
            if (policy == "max_demand") options.policy = baseline::PopulationPolicy::kMaxDemand;
            else if (policy == "proportional")
                options.policy = baseline::PopulationPolicy::kProportionalFill;
            else throw std::runtime_error("experiment: unknown rates_only policy '" + policy + "'");
        }
        const auto ro = baseline::rates_only_num(spec, options);
        result.final_utility = ro.utility;
        result.utility_trace = ro.utility_trace;
        result.summary = model::summarize(spec, ro.allocation);
    } else {
        throw std::runtime_error("experiment: unknown optimizer kind '" + kind + "'");
    }

    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
    return result;
}

ExperimentResult run_experiment_string(const std::string& config_text) {
    return run_experiment(io::parse_json(config_text));
}

io::JsonValue result_to_json(const ExperimentResult& result, bool include_trace) {
    io::JsonObject root;
    root.emplace("name", result.name);
    root.emplace("final_utility", result.final_utility);
    root.emplace("converged_at", static_cast<double>(result.converged_at));
    root.emplace("wall_seconds", result.wall_seconds);
    io::JsonObject summary;
    summary.emplace("total_utility", result.summary.total_utility);
    summary.emplace("jain_fairness", result.summary.jain_fairness);
    summary.emplace("classes_fully_admitted",
                    static_cast<double>(result.summary.classes_fully_admitted));
    summary.emplace("classes_partially_admitted",
                    static_cast<double>(result.summary.classes_partially_admitted));
    summary.emplace("classes_denied", static_cast<double>(result.summary.classes_denied));
    root.emplace("summary", std::move(summary));
    if (include_trace) {
        io::JsonArray trace;
        for (double u : result.utility_trace.samples()) trace.emplace_back(u);
        root.emplace("utility_trace", std::move(trace));
    }
    return io::JsonValue(std::move(root));
}

}  // namespace lrgp::exp
