// closed_loop — the optimizer, the enactment policy, and the
// message-level dataplane wired into one feedback loop.
//
// A centralized LRGP optimizer re-plans every 50 ms of simulated time;
// each plan is offered to an EnactmentController, and whatever it
// enacts drives token-bucket traffic sources, queueing servers and
// consumer sinks.  The fault is a schedule of two dynamic ops: at t=10s
// the busiest node drops to 5% of its capacity, and at t=14s it comes
// back.  scenario::replay applies each op to the optimizer and mirrors
// it into the dataplane, so the node really slows down and the
// optimizer re-plans around it.  The run prints the *planned* utility
// (what the optimizer believes it allocated) next to the *achieved*
// utility (what the simulated traffic actually delivered) so the dip
// and the recovery are visible in measured message rates, not just in
// the allocation trace.
//
// Build and run:
//   cmake --build build --target closed_loop && build/examples/closed_loop
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "lrgp/enactment.hpp"
#include "lrgp/optimizer.hpp"
#include "scenario/runner.hpp"
#include "workload/workloads.hpp"

using namespace lrgp;

int main() {
    // The Table 1 workload with enough node headroom that the enacted
    // optimum runs the servers well below saturation — the dip we want
    // to show comes from the injected fault, not from queueing losses.
    workload::WorkloadOptions wopts;
    wopts.rate_max = 60.0;
    wopts.node_capacity = 3.0e7;
    const model::ProblemSpec spec = workload::make_scaled_workload(wopts);
    std::printf("workload: %zu flows, %zu classes, %zu nodes\n", spec.flowCount(),
                spec.classCount(), spec.nodeCount());

    constexpr double kTick = 0.05;
    constexpr double kDuration = 24.0;
    constexpr double kFaultStart = 10.0;
    constexpr double kFaultEnd = 14.0;
    constexpr double kReportPeriod = 2.0;
    // Fail the node carrying the most consumer classes — the producer
    // node hosts none, so degrading it would change nothing.
    model::NodeId victim{0};
    for (std::uint32_t n = 1; n < spec.nodeCount(); ++n) {
        const model::NodeId candidate{n};
        if (spec.classesAtNode(candidate).size() > spec.classesAtNode(victim).size()) {
            victim = candidate;
        }
    }
    const double full_capacity = spec.node(victim).capacity;
    const std::vector<scenario::DynamicOp> fault = {
        {kFaultStart, scenario::OpKind::kSetNodeCapacity, victim.value, 0.05 * full_capacity},
        {kFaultEnd, scenario::OpKind::kSetNodeCapacity, victim.value, full_capacity},
    };
    std::printf("fault: node %s capacity cut to 5%% at t=%.1f, restored at t=%.1f\n",
                spec.node(victim).name.c_str(), kFaultStart, kFaultEnd);

    core::LrgpOptimizer optimizer{model::ProblemSpec(spec)};
    dataplane::Dataplane dataplane(spec, dataplane::DataplaneOptions{});
    core::EnactmentOptions eopts;
    eopts.rate_deadband = 0.02;
    eopts.population_deadband = 2;
    eopts.min_interval = 1.0;
    core::EnactmentController enactor(
        eopts, [&dataplane](const model::Allocation& alloc) { dataplane.enact(alloc); });
    const scenario::ReplayPlant plant{dataplane, enactor};
    scenario::replay(optimizer, fault, kTick, static_cast<int>(std::lround(kDuration / kTick)),
                     &plant);

    // Both traces hold one sample per sample period, the first at
    // t = sample period.
    const auto& planned = dataplane.plannedUtilityTrace();
    const auto& achieved = dataplane.achievedUtilityTrace();
    const double period = dataplane.samplePeriod();
    const auto stride = static_cast<std::size_t>(std::lround(kReportPeriod / period));
    for (std::size_t k = stride - 1; k < achieved.size(); k += stride) {
        std::printf("t=%5.1f  planned %12.0f  achieved %12.0f\n",
                    static_cast<double>(k + 1) * period, planned[k], achieved[k]);
    }

    const auto stats = dataplane.collectStats();
    std::printf("\n%d iterations, %zu/%zu offers enacted\n", optimizer.iterationsRun(),
                enactor.enactments(), enactor.offers());
    std::printf("traffic: %llu emitted, %llu delivered, drop rate %.4f, p99 latency %.4fs\n",
                static_cast<unsigned long long>(stats.total_emitted),
                static_cast<unsigned long long>(stats.total_delivered), stats.drop_rate,
                stats.latency.p99);
    const std::size_t window = std::min<std::size_t>(10, achieved.size());
    std::printf("settled: planned %.0f, achieved %.0f\n", planned.trailingMean(window),
                achieved.trailingMean(window));
    return 0;
}
