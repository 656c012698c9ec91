#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "dataplane/dataplane.hpp"
#include "lrgp/enactment.hpp"
#include "lrgp/optimizer.hpp"
#include "obs/instruments.hpp"
#include "runtime/runtime.hpp"
#include "shard/sharded_engine.hpp"

namespace lrgp::scenario {

namespace {

/// Iteration cap of every convergence solve: the replay's final solve
/// and the best-known reference solve.
constexpr int kMaxConvergeIterations = 4000;
/// Scenario seconds per LRGP iteration (as long as the async runtime's
/// sample period, so both traces sample alike), and the replay's tail
/// after the scenario's duration.
constexpr double kTick = 0.05;
constexpr double kSettle = 6.0;
/// Closed-loop dataplane: its traffic seed, and the extra traffic time
/// after the replay's final enactment.
constexpr std::uint64_t kDataplaneSeed = 1;
constexpr double kDataplaneSettle = 8.0;

void mirrorToDataplane(dataplane::Dataplane& dp, const DynamicOp& op, double physical_scale) {
    switch (op.kind) {
        case OpKind::kSetClassMaxConsumers:
            break;  // populations reach the dataplane through enacted allocations
        case OpKind::kRemoveFlow: dp.setFlowActive(model::FlowId(op.target), false); break;
        case OpKind::kRestoreFlow: dp.setFlowActive(model::FlowId(op.target), true); break;
        case OpKind::kSetNodeCapacity:
            dp.setNodeCapacity(model::NodeId(op.target), op.value * physical_scale);
            break;
        case OpKind::kSetLinkCapacity:
            throw std::invalid_argument(
                "replay: the dataplane cannot mirror set_link_capacity ops");
    }
}

void analyzeRecovery(const ScenarioSpec& scenario, ScenarioRunReport& report) {
    if (scenario.principal_disturbance < 0.0 || report.utility_trace.size() < 8) return;
    // Sample i of the trace is at time (i + 1) * sample_period; the fault
    // index is the first sample at or after the disturbance.
    const auto fault_index = static_cast<std::size_t>(
        std::max(0.0, std::ceil(scenario.principal_disturbance / report.sample_period) - 1.0));
    if (fault_index < 2 || fault_index + 4 >= report.utility_trace.size()) return;
    metrics::RecoveryOptions ropts;
    ropts.target = metrics::RecoveryTarget::kFinalSteadyState;
    ropts.baseline_window = std::min<std::size_t>(40, fault_index);
    ropts.settle_window =
        std::min<std::size_t>(20, (report.utility_trace.size() - fault_index) / 2);
    if (ropts.settle_window == 0) return;
    report.recovery = metrics::analyze_recovery(report.utility_trace, fault_index,
                                                report.sample_period, ropts);
    report.has_recovery = true;
}

ScenarioRunReport runAsync(const ScenarioSpec& scenario, const RunnerOptions& options) {
    ScenarioRunReport report;
    report.engine = options.engine;

    runtime::RuntimeOptions ropts;
    ropts.agents = options.shards;
    report.sample_period = runtime::AsyncShardRuntime::samplePeriod();

    runtime::AsyncShardRuntime runtime(scenario.problem, options.lrgp, ropts);
    double now = 0.0;
    std::size_t next = 0;
    while (next < scenario.schedule.size()) {
        const double at = scenario.schedule[next].time;
        if (at > now) {
            runtime.runFor(at - now);
            now = at;
        }
        while (next < scenario.schedule.size() && scenario.schedule[next].time <= now) {
            const DynamicOp& op = scenario.schedule[next];
            switch (op.kind) {
                case OpKind::kSetClassMaxConsumers:
                    runtime.setClassMaxConsumers(model::ClassId(op.target),
                                                 static_cast<int>(op.value));
                    break;
                case OpKind::kRemoveFlow: runtime.removeFlow(model::FlowId(op.target)); break;
                case OpKind::kRestoreFlow: runtime.restoreFlow(model::FlowId(op.target)); break;
                case OpKind::kSetNodeCapacity:
                case OpKind::kSetLinkCapacity:
                    throw std::invalid_argument(
                        "run_scenario: the async runtime does not support capacity ops "
                        "(they would race the boundary-budget handshakes)");
            }
            ++report.ops_applied;
            ++next;
        }
    }
    const double total = scenario.options.duration + kSettle;
    if (total > now) runtime.runFor(total - now);

    report.utility_trace = runtime.utilityTrace();
    report.final_utility = runtime.currentUtility();
    report.converged = true;  // no global detector; utility_vs_best is the check
    report.best_known_utility = best_known_utility(scenario, options.lrgp);
    report.utility_vs_best =
        report.best_known_utility > 0.0 ? report.final_utility / report.best_known_utility : 0.0;
    analyzeRecovery(scenario, report);
    return report;
}

}  // namespace

void apply_to_engine(core::Engine& engine, const DynamicOp& op) {
    switch (op.kind) {
        case OpKind::kSetClassMaxConsumers:
            engine.setClassMaxConsumers(model::ClassId(op.target), static_cast<int>(op.value));
            break;
        case OpKind::kRemoveFlow: engine.removeFlow(model::FlowId(op.target)); break;
        case OpKind::kRestoreFlow: engine.restoreFlow(model::FlowId(op.target)); break;
        case OpKind::kSetNodeCapacity:
            engine.setNodeCapacity(model::NodeId(op.target), op.value);
            break;
        case OpKind::kSetLinkCapacity:
            engine.setLinkCapacity(model::LinkId(op.target), op.value);
            break;
    }
}

std::size_t replay(core::Engine& engine, const std::vector<DynamicOp>& schedule, double tick,
                   int ticks, const ReplayPlant* plant) {
    std::size_t next = 0;
    for (int i = 1; i <= ticks; ++i) {
        const double t = static_cast<double>(i) * tick;
        for (; next < schedule.size() && schedule[next].time <= t; ++next) {
            apply_to_engine(engine, schedule[next]);
            if (plant) mirrorToDataplane(plant->dataplane, schedule[next], plant->capacity_scale);
        }
        const core::IterationRecord& record = engine.step();
        if (plant) {
            plant->dataplane.notePlanned(record.allocation);
            plant->enactor.offer(t, record.allocation);
            plant->dataplane.runUntil(t);
        }
    }
    return next;
}

void export_observability(const ScenarioSpec& scenario, const ScenarioRunReport& report,
                          obs::Registry& registry) {
    const obs::ScenarioInstruments si = obs::ScenarioInstruments::resolve(registry);
    si.ops_applied->add(report.ops_applied);
    si.ticks->add(report.utility_trace.size());
    si.flows->set(static_cast<double>(scenario.problem.flowCount()));
    si.classes->set(static_cast<double>(scenario.problem.classCount()));
    si.nodes->set(static_cast<double>(scenario.problem.nodeCount()));
    si.links->set(static_cast<double>(scenario.problem.linkCount()));
    si.schedule_ops->set(static_cast<double>(scenario.schedule.size()));
    si.final_utility->set(report.final_utility);
    si.best_known_utility->set(report.best_known_utility);
    si.utility_vs_best->set(report.utility_vs_best);
    if (report.has_dataplane) {
        si.drop_rate->set(report.drop_rate);
        si.achieved_vs_planned->set(report.achieved_vs_planned);
    }
}

double best_known_utility(const ScenarioSpec& scenario, const core::LrgpOptions& options) {
    core::LrgpOptimizer engine(end_state_problem(scenario), options);
    engine.runUntilConverged(kMaxConvergeIterations);
    return engine.currentUtility();
}

ScenarioRunReport run_scenario(const ScenarioSpec& scenario, const RunnerOptions& options) {
    if (options.engine == "async") return runAsync(scenario, options);

    ScenarioRunReport report;
    report.engine = options.engine;
    report.sample_period = kTick;

    const auto engine = shard::make_engine(options.engine, scenario.problem, options.lrgp,
                                           options.threads, options.shards);

    std::optional<dataplane::Dataplane> dp;
    std::optional<core::EnactmentController> enactor;
    std::optional<ReplayPlant> plant;
    if (options.with_dataplane) {
        dataplane::DataplaneOptions dopts;
        dopts.seed = kDataplaneSeed;
        dp.emplace(scenario.problem, dopts);
        // Overdrive: the plant has less capacity than the plan believes.
        if (scenario.physical_capacity_scale != 1.0)
            for (const model::NodeSpec& node : scenario.problem.nodes())
                dp->setNodeCapacity(node.id, node.capacity * scenario.physical_capacity_scale);
        core::EnactmentOptions eopts;
        eopts.rate_deadband = 0.05;
        eopts.population_deadband = 2;
        eopts.min_interval = 1.0;
        enactor.emplace(eopts, [&](const model::Allocation& alloc) { dp->enact(alloc); });
        plant.emplace(*dp, *enactor, scenario.physical_capacity_scale);
    }

    const double total = scenario.options.duration + kSettle;
    report.ops_applied = replay(*engine, scenario.schedule, kTick,
                                static_cast<int>(std::lround(total / kTick)),
                                plant ? &*plant : nullptr);
    report.utility_trace = engine->utilityTrace();

    // Multi-shard engines: the replay's many reconcile passes decay the
    // budget-exchange step towards zero, freezing whatever split the
    // early (far-from-equilibrium) boundary prices produced.  A warm
    // start from the current prices resets the decay, so the final
    // solve can re-split the budgets at full step — this is what closes
    // the K=4 gap to < 1%.  K=1 is skipped: it has no budgets to move,
    // and must stay bitwise-identical to the monolithic engines.
    if (options.engine == "sharded" && options.shards > 1) engine->warmStart(engine->prices());
    report.converged = engine->runUntilConverged(kMaxConvergeIterations).has_value();
    report.final_utility = engine->currentUtility();
    report.final_allocation = engine->allocation();
    report.iterations = engine->iterationsRun();
    report.best_known_utility = best_known_utility(scenario, options.lrgp);
    report.utility_vs_best =
        report.best_known_utility > 0.0 ? report.final_utility / report.best_known_utility : 0.0;
    analyzeRecovery(scenario, report);

    if (dp) {
        dp->notePlanned(report.final_allocation);
        dp->enact(report.final_allocation);
        dp->runUntil(total + kDataplaneSettle);
        const dataplane::DataplaneStats stats = dp->collectStats();
        report.has_dataplane = true;
        report.drop_rate = stats.drop_rate;
        const auto window = [](const metrics::TimeSeries& trace) {
            return std::min<std::size_t>(10, trace.size());
        };
        if (!dp->plannedUtilityTrace().empty())
            report.planned_mean =
                dp->plannedUtilityTrace().trailingMean(window(dp->plannedUtilityTrace()));
        if (!dp->achievedUtilityTrace().empty())
            report.achieved_mean =
                dp->achievedUtilityTrace().trailingMean(window(dp->achievedUtilityTrace()));
        report.achieved_vs_planned =
            report.planned_mean > 0.0 ? report.achieved_mean / report.planned_mean : 0.0;
    }
    return report;
}

}  // namespace lrgp::scenario
