// Fastpath benchmark: the batched run-to-completion dataplane against
// the event-driven oracle.
//
// Phase 1 (fidelity): both engines enact the same optimizer allocation
// on the headroom workload and must agree — planned-vs-achieved utility
// within 2% of each other and matching drop rates.
//
// Phase 2 (throughput): a large headroom workload (48 flows x 800
// msg/s) through the sim for a short horizon and through the fastpath
// at 1/2/4/8 workers for a long one, both normalized to messages per
// *wall-clock* second (deterministic arrivals make the rate
// stationary, so horizons need not match).  The acceptance floors —
// fastpath >= 5x the sim's msgs/sec at 1 worker and >= 20x at 8 — are
// same-machine ratios, enforced by scripts/check_perf_regression.py on
// any hardware.
//
// The per-worker statsJson snapshots must be byte-identical (the
// "deterministic" flag); LRGP_FASTPATH_STATS_OUT additionally writes
// the snapshot to a file so CI can cmp(1) two independent processes.
//
// Writes BENCH_fastpath.json.  Wall-clock numbers vary by machine;
// everything else (message counts, utilities, drop rates, the
// deterministic flag) is a pure function of the seeds.
// LRGP_FASTPATH_SECONDS / LRGP_FASTPATH_SIM_SECONDS override the
// horizons; LRGP_FASTPATH_OUT overrides the output path.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dataplane/dataplane.hpp"
#include "fastpath/fastpath.hpp"
#include "io/json.hpp"
#include "lrgp/optimizer.hpp"
#include "model/allocation.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

double wall_seconds(const std::chrono::steady_clock::time_point& begin) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

struct PlantRun {
    double achieved = 0.0;  ///< cumulative: utility of the mean delivered rates
    double planned = 0.0;
    double drop_rate = 0.0;
    std::uint64_t emitted = 0;
    double wall = 0.0;
};

template <class Plant>
PlantRun run_plant(Plant& plant, const model::Allocation& alloc, double horizon) {
    plant.notePlanned(alloc);
    plant.enact(alloc);
    const auto begin = std::chrono::steady_clock::now();
    plant.runUntil(horizon);
    PlantRun r;
    r.wall = wall_seconds(begin);
    const auto stats = plant.collectStats();
    r.achieved = stats.utility.achieved_cumulative;
    r.planned = stats.utility.planned;
    r.drop_rate = stats.drop_rate;
    r.emitted = stats.total_emitted;
    return r;
}

}  // namespace

int main() {
    const auto fast_horizon =
        static_cast<double>(bench::env_u64("LRGP_FASTPATH_SECONDS", 30));
    const auto sim_horizon =
        static_cast<double>(bench::env_u64("LRGP_FASTPATH_SIM_SECONDS", 4));
    const char* out_env = std::getenv("LRGP_FASTPATH_OUT");
    const std::string out_path = out_env != nullptr ? out_env : "BENCH_fastpath.json";

    io::JsonObject root;
    root["bench"] = std::string("bench_fastpath");
    root["machine"] = bench::machine_json();

    // ---------------------------------------------------- fidelity
    // The headroom workload of the dataplane matrix test: the optimum
    // leaves queueing headroom, so both plants must deliver the plan.
    workload::WorkloadOptions fidelity_options;
    fidelity_options.rate_max = 60.0;
    fidelity_options.node_capacity = 3.0e7;
    const model::ProblemSpec fidelity_spec = workload::make_scaled_workload(fidelity_options);
    core::LrgpOptimizer optimizer{model::ProblemSpec(fidelity_spec)};
    const model::Allocation fidelity_alloc = optimizer.run(600).allocation;

    dataplane::Dataplane fidelity_sim(fidelity_spec);
    const PlantRun sim_fidelity = run_plant(fidelity_sim, fidelity_alloc, fast_horizon);
    fastpath::FastpathOptions fidelity_fp_options;
    fastpath::Fastpath fidelity_fast(fidelity_spec, fidelity_fp_options);
    const PlantRun fast_fidelity = run_plant(fidelity_fast, fidelity_alloc, fast_horizon);

    const double utility_gap_vs_sim =
        sim_fidelity.achieved > 0.0
            ? std::abs(fast_fidelity.achieved - sim_fidelity.achieved) / sim_fidelity.achieved
            : 0.0;
    std::printf("Fidelity (headroom, %zu flows, horizon %.0fs):\n", fidelity_spec.flowCount(),
                fast_horizon);
    std::printf("  sim  achieved %.1f (planned %.1f), drop %.5f\n", sim_fidelity.achieved,
                sim_fidelity.planned, sim_fidelity.drop_rate);
    std::printf("  fast achieved %.1f (planned %.1f), drop %.5f\n", fast_fidelity.achieved,
                fast_fidelity.planned, fast_fidelity.drop_rate);
    std::printf("  fast-vs-sim utility gap %.4f\n", utility_gap_vs_sim);

    {
        io::JsonObject fidelity;
        fidelity["planned_utility"] = sim_fidelity.planned;
        fidelity["sim_achieved_utility"] = sim_fidelity.achieved;
        fidelity["fast_achieved_utility"] = fast_fidelity.achieved;
        fidelity["sim_drop_rate"] = sim_fidelity.drop_rate;
        fidelity["fast_drop_rate"] = fast_fidelity.drop_rate;
        fidelity["utility_gap_vs_sim"] = utility_gap_vs_sim;
        root["fidelity"] = io::JsonValue(std::move(fidelity));
    }

    // -------------------------------------------------- throughput
    // Large headroom workload: 16 replicas x 6 flows at 800 msg/s
    // each.  Big enough that the per-quantum barrier cost at 8 workers
    // amortizes even on a single-core box.
    workload::WorkloadOptions throughput_options;
    throughput_options.flow_replicas = 16;
    const model::ProblemSpec throughput_spec =
        workload::make_scaled_workload(throughput_options);
    model::Allocation throughput_alloc = model::Allocation::minimal(throughput_spec);
    for (double& rate : throughput_alloc.rates) rate = 800.0;
    for (std::size_t j = 0; j < throughput_alloc.populations.size(); ++j) {
        throughput_alloc.populations[j] = 1;
    }

    dataplane::Dataplane throughput_sim(throughput_spec);
    const PlantRun sim_run = run_plant(throughput_sim, throughput_alloc, sim_horizon);
    const double sim_rate =
        sim_run.wall > 0.0 ? static_cast<double>(sim_run.emitted) / sim_run.wall : 0.0;
    std::printf("\nThroughput (%zu flows @ 800 msg/s):\n", throughput_spec.flowCount());
    std::printf("  %-10s %10s %12s %14s %10s\n", "engine", "horizon", "wall[ms]", "msgs/sec",
                "speedup");
    std::printf("  %-10s %9.0fs %12.1f %14.0f %10s\n", "sim", sim_horizon,
                1e3 * sim_run.wall, sim_rate, "1.00x");

    io::JsonArray worker_rows;
    std::string reference_stats;
    bool deterministic = true;
    double speedup_1 = 0.0, speedup_8 = 0.0;
    for (const int workers : {1, 2, 4, 8}) {
        fastpath::FastpathOptions options;
        options.workers = workers;
        fastpath::Fastpath fp(throughput_spec, options);
        const PlantRun run = run_plant(fp, throughput_alloc, fast_horizon);
        const double rate = run.wall > 0.0 ? static_cast<double>(run.emitted) / run.wall : 0.0;
        const double speedup = sim_rate > 0.0 ? rate / sim_rate : 0.0;
        if (workers == 1) speedup_1 = speedup;
        if (workers == 8) speedup_8 = speedup;

        // Byte-identical stats for every worker count, or the engine
        // lost its determinism argument.
        const std::string stats = fp.statsJson();
        if (reference_stats.empty()) {
            reference_stats = stats;
        } else if (stats != reference_stats) {
            deterministic = false;
        }

        std::printf("  fast w=%-4d %9.0fs %12.1f %14.0f %9.2fx\n", workers, fast_horizon,
                    1e3 * run.wall, rate, speedup);
        io::JsonObject row;
        row["workers"] = static_cast<double>(workers);
        row["wall_ms"] = 1e3 * run.wall;
        row["emitted"] = static_cast<double>(run.emitted);
        row["msgs_per_sec"] = rate;
        row["speedup_vs_sim"] = speedup;
        row["drop_rate"] = run.drop_rate;
        worker_rows.emplace_back(std::move(row));
    }

    if (const char* stats_out = std::getenv("LRGP_FASTPATH_STATS_OUT")) {
        std::ofstream out(stats_out, std::ios::binary);
        out << reference_stats;
    }

    {
        io::JsonObject throughput;
        io::JsonObject sim_obj;
        sim_obj["horizon_seconds"] = sim_horizon;
        sim_obj["wall_ms"] = 1e3 * sim_run.wall;
        sim_obj["emitted"] = static_cast<double>(sim_run.emitted);
        sim_obj["msgs_per_sec"] = sim_rate;
        throughput["sim"] = io::JsonValue(std::move(sim_obj));
        throughput["fast_horizon_seconds"] = fast_horizon;
        throughput["workers"] = io::JsonValue(std::move(worker_rows));
        root["throughput"] = io::JsonValue(std::move(throughput));
    }
    root["speedup_1"] = speedup_1;
    root["speedup_8"] = speedup_8;
    root["deterministic"] = deterministic;

    std::printf("\nspeedup_1 %.2fx, speedup_8 %.2fx, deterministic: %s\n", speedup_1, speedup_8,
                deterministic ? "yes" : "NO");

    std::ofstream out(out_path, std::ios::binary);
    out << io::JsonValue(std::move(root)).dump(true) << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return deterministic ? 0 : 1;
}
