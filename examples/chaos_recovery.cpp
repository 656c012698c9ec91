// Chaos-hardening walkthrough: crash a consumer node mid-run and watch
// the hardened asynchronous protocol detect the failure, degrade
// gracefully, and reconverge once the node comes back.
//
//   ./chaos_recovery
//
// Prints a coarse utility timeline around the crash window plus the
// recovery report (time-to-reconverge, utility-dip integral).
#include <cstdio>

#include "dist/dist_lrgp.hpp"
#include "metrics/recovery.hpp"
#include "workload/workloads.hpp"

int main() {
    using namespace lrgp;

    constexpr sim::SimTime kCrashAt = 10.0;
    constexpr sim::SimTime kRestartAt = 12.0;
    constexpr sim::SimTime kHorizon = 24.0;
    constexpr sim::SimTime kSamplePeriod = 0.05;

    const model::ProblemSpec spec = workload::make_base_workload();
    const model::NodeId victim = spec.nodes().back().id;

    dist::DistOptions options;
    options.synchronous = false;
    options.sample_period = kSamplePeriod;
    options.hardened = true;
    options.fault_plan.crashes.push_back(faults::CrashEvent{
        {faults::AgentKind::kNode, static_cast<std::uint32_t>(victim.index())},
        kCrashAt, kRestartAt});

    dist::DistLrgp protocol(spec, options);
    protocol.runFor(kHorizon);

    const auto& trace = protocol.utilityTrace();
    std::printf("utility timeline (every 1s; crash at %.0fs, restart at %.0fs):\n",
                kCrashAt, kRestartAt);
    for (int second = 1; second <= static_cast<int>(kHorizon); ++second) {
        const auto i = static_cast<std::size_t>(second / kSamplePeriod) - 1;
        if (i >= trace.size()) break;  // the last sample may fall just past the horizon
        const char* marker = "";
        if (second == static_cast<int>(kCrashAt)) marker = "   <-- node crashes (state lost)";
        if (second == static_cast<int>(kRestartAt)) marker = "   <-- node restarts";
        std::printf("  t=%5ds  U=%10.1f%s\n", second, trace[i], marker);
    }

    const std::size_t fault_index =
        static_cast<std::size_t>(kCrashAt / kSamplePeriod) - 1;
    const metrics::RecoveryReport report =
        metrics::analyze_recovery(trace, fault_index, kSamplePeriod);

    const faults::FaultStats stats = protocol.faultStats();
    std::printf("\ncrashes=%zu restarts=%zu suspicions=%zu reannouncements=%zu\n",
                stats.crashes, stats.restarts, protocol.suspicionEvents(),
                protocol.reannouncementsSent());
    std::printf("pre-fault utility  %.1f\n", report.baseline_utility);
    std::printf("deepest dip        %.1f (max dip %.1f)\n", report.min_utility, report.max_dip);
    std::printf("dip integral       %.1f utility-seconds\n", report.dip_integral);
    if (report.reconverged)
        std::printf("reconverged within 1%% after %.2fs\n", report.time_to_reconverge);
    else
        std::printf("did NOT reconverge within the horizon\n");
    return report.reconverged ? 0 : 1;
}
