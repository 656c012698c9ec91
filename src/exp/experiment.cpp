#include "exp/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "baseline/annealing.hpp"
#include "baseline/rates_only.hpp"
#include "io/problem_json.hpp"
#include "lrgp/optimizer.hpp"
#include "multirate/multirate.hpp"
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

/// One scheduled workload change.
struct Event {
    int at = 0;  ///< applied before this 1-based iteration
    enum class Action { kRemoveFlow, kRestoreFlow, kSetNodeCapacity, kSetClassMax } action;
    std::string target;
    double value = 0.0;
};

std::vector<Event> parseEvents(const io::JsonValue& config) {
    std::vector<Event> events;
    if (!config.has("events")) return events;
    for (const io::JsonValue& e : config.at("events").asArray()) {
        Event event;
        event.at = e.at("at").asInt();
        if (event.at < 1) throw std::runtime_error("experiment: event 'at' must be >= 1");
        const std::string& action = e.at("action").asString();
        if (action == "remove_flow") {
            event.action = Event::Action::kRemoveFlow;
            event.target = e.at("flow").asString();
        } else if (action == "restore_flow") {
            event.action = Event::Action::kRestoreFlow;
            event.target = e.at("flow").asString();
        } else if (action == "set_node_capacity") {
            event.action = Event::Action::kSetNodeCapacity;
            event.target = e.at("node").asString();
            event.value = e.at("capacity").asNumber();
        } else if (action == "set_class_max") {
            event.action = Event::Action::kSetClassMax;
            event.target = e.at("class").asString();
            event.value = e.at("max").asInt();
        } else {
            throw std::runtime_error("experiment: unknown event action '" + action + "'");
        }
        events.push_back(std::move(event));
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.at < b.at; });
    return events;
}

model::ClassId classByName(const model::ProblemSpec& spec, const std::string& name) {
    for (const model::ClassSpec& c : spec.classes())
        if (c.name == name) return c.id;
    throw std::invalid_argument("experiment: no class named '" + name + "'");
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
    if (optimizer_config.has("link_gamma"))
        options.link_gamma = optimizer_config.at("link_gamma").asNumber();
    return options;
}

}  // namespace

model::ProblemSpec workload_from_config(const io::JsonValue& workload_config) {
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
        options.seed = static_cast<std::uint32_t>(intAt(workload_config, "seed", 1));
        return workload::make_random_workload(options);
    }
    if (kind == "inline") return io::problem_from_json(workload_config.at("problem"));
    throw std::runtime_error("experiment: unknown workload kind '" + kind + "'");
}

ExperimentResult run_experiment(const io::JsonValue& config) {
    const auto start_time = std::chrono::steady_clock::now();

    ExperimentResult result;
    result.name = config.has("name") ? config.at("name").asString() : "unnamed";

    model::ProblemSpec spec = workload_from_config(config.at("workload"));
    const io::JsonValue& optimizer_config = config.at("optimizer");
    const std::string& kind = optimizer_config.at("kind").asString();
    const int iterations = intAt(optimizer_config, "iterations", 250);
    std::vector<Event> events = parseEvents(config);

    if (kind == "lrgp") {
        if (iterations < 1) throw std::runtime_error("experiment: iterations must be >= 1");
        core::LrgpOptimizer optimizer(spec, lrgpOptions(optimizer_config));
        std::size_t next_event = 0;
        for (int t = 1; t <= iterations; ++t) {
            while (next_event < events.size() && events[next_event].at == t) {
                const Event& e = events[next_event++];
                switch (e.action) {
                    case Event::Action::kRemoveFlow:
                        optimizer.removeFlow(workload::find_flow(optimizer.problem(), e.target));
                        break;
                    case Event::Action::kRestoreFlow:
                        optimizer.restoreFlow(workload::find_flow(optimizer.problem(), e.target));
                        break;
                    case Event::Action::kSetNodeCapacity:
                        optimizer.setNodeCapacity(
                            workload::find_node(optimizer.problem(), e.target), e.value);
                        break;
                    case Event::Action::kSetClassMax:
                        optimizer.setClassMaxConsumers(classByName(optimizer.problem(), e.target),
                                                       static_cast<int>(e.value));
                        break;
                }
            }
            optimizer.step();
        }
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
