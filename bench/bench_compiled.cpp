// Compiled-engine benchmark: serial LrgpOptimizer vs ParallelLrgpEngine
// on a paper-scale workload (Table 2's largest shape and beyond).
//
// Reports iterations/second and per-phase time for
//   * the serial reference optimizer (object-graph hot path),
//   * the compiled engine at 1 thread  (flat-array hot path only),
//   * the compiled engine at hardware threads,
//   * the incremental engine (dirty-set tracking) on the contended
//     workload and on a steady-state-heavy headroom workload, where the
//     converged tail is timed separately after a warmup,
// cross-checks that every driver produces bitwise-identical final
// utility (the engine's determinism contract), and writes
// BENCH_lrgp.json for tracking.  Each measurement records the thread
// count it actually used (`threads_used`); `hardware_threads` only
// describes the machine.  LRGP_BENCH_ITERS overrides the iteration
// budget.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "io/json.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "workload/workloads.hpp"

namespace {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

template <class Driver>
std::uint64_t timed_run(Driver& driver, int iterations) {
    const std::uint64_t t0 = now_ns();
    driver.run(iterations);
    return now_ns() - t0;
}

}  // namespace

int main() {
    using namespace lrgp;

    const int iters = static_cast<int>(bench::env_u64("LRGP_BENCH_ITERS", 300));
    const int hw = std::max(1u, std::thread::hardware_concurrency());

    // 24 flows, 100 nodes (4 producers + 96 consumer nodes), 640 classes:
    // the "new flows" and "more consumers" scaling axes combined.
    workload::WorkloadOptions options;
    options.flow_replicas = 4;
    options.cnode_replicas = 8;
    const model::ProblemSpec spec = workload::make_scaled_workload(options);

    std::printf("Compiled-engine benchmark: %zu flows, %zu nodes, %zu classes, %d iterations\n\n",
                spec.flowCount(), spec.nodeCount(), spec.classCount(), iters);

    // Warm-up passes (page in code and the spec) — results discarded.
    {
        core::LrgpOptimizer warm(spec);
        warm.run(10);
        core::ParallelLrgpEngine warm_engine(spec, {}, {.threads = 1});
        warm_engine.run(10);
    }

    core::LrgpOptimizer serial(spec);
    const std::uint64_t serial_ns = timed_run(serial, iters);

    core::ParallelLrgpEngine compiled1(spec, {}, {.threads = 1, .collect_phase_times = true});
    const std::uint64_t compiled1_ns = timed_run(compiled1, iters);

    core::ParallelLrgpEngine compiledN(spec, {}, {.threads = hw});
    const std::uint64_t compiledN_ns = timed_run(compiledN, iters);

    core::ParallelLrgpEngine incremental(spec, {}, {.threads = 1, .incremental = true});
    const std::uint64_t incremental_ns = timed_run(incremental, iters);

    // Determinism cross-check: all drivers must land on the exact same
    // trajectory, not merely a close one.
    const double u_serial = serial.currentUtility();
    const double u_c1 = compiled1.currentUtility();
    const double u_cn = compiledN.currentUtility();
    const double u_inc = incremental.currentUtility();
    if (u_serial != u_c1 || u_serial != u_cn || u_serial != u_inc) {
        std::fprintf(stderr,
                     "FATAL: trajectories diverged (serial %.17g, compiled/1t %.17g, "
                     "compiled/%dt %.17g, incremental %.17g)\n",
                     u_serial, u_c1, hw, u_cn, u_inc);
        return 1;
    }

    const auto per_iter = [&](std::uint64_t ns) { return static_cast<double>(ns) / iters; };
    const auto iters_per_sec = [&](std::uint64_t ns) {
        return iters / (static_cast<double>(ns) * 1e-9);
    };
    const double speedup1 = static_cast<double>(serial_ns) / compiled1_ns;
    const double speedupN = static_cast<double>(serial_ns) / compiledN_ns;

    std::printf("%-24s %14s %14s %10s\n", "driver", "ns/iteration", "iters/sec", "speedup");
    std::printf("%-24s %14.0f %14.1f %10s\n", "serial LrgpOptimizer", per_iter(serial_ns),
                iters_per_sec(serial_ns), "1.00x");
    std::printf("%-24s %14.0f %14.1f %9.2fx\n", "compiled, 1 thread", per_iter(compiled1_ns),
                iters_per_sec(compiled1_ns), speedup1);
    char label[32];
    std::snprintf(label, sizeof label, "compiled, %d threads", compiledN.threadCount());
    std::printf("%-24s %14.0f %14.1f %9.2fx\n", label, per_iter(compiledN_ns),
                iters_per_sec(compiledN_ns), speedupN);
    std::printf("%-24s %14.0f %14.1f %9.2fx\n", "incremental, 1 thread",
                per_iter(incremental_ns), iters_per_sec(incremental_ns),
                static_cast<double>(serial_ns) / incremental_ns);
    if (hw == 1)
        std::printf("\nnote: single-core environment — the hw-thread row cannot show "
                    "parallel speedup here.\n");

    const core::PhaseTimes& pt = compiled1.phaseTimes();
    std::printf("\ncompiled 1-thread phase split (ns/iteration):\n");
    std::printf("  rate %.0f   node %.0f   link %.0f   reduce %.0f\n",
                per_iter(pt.rate_ns), per_iter(pt.node_ns), per_iter(pt.link_ns),
                per_iter(pt.reduce_ns));
    std::printf("\nfinal utility (all drivers, bitwise equal): %.1f\n", u_serial);

    // ---- converged-tail measurement on a steady-state-heavy workload ----
    // The contended workload above never reaches an exact floating-point
    // fixpoint (the adaptive-gamma controllers keep a few prices in a
    // limit cycle), so it shows the incremental engine's worst case.  A
    // headroom variant (large node capacity, low rate cap) quiesces
    // bitwise within ~50 iterations; warm both engines past that point,
    // reset the phase clocks, and time only the converged tail — the
    // regime a long-running deployment actually sits in.
    workload::WorkloadOptions steady_options;
    steady_options.flow_replicas = 4;
    steady_options.cnode_replicas = 8;
    steady_options.node_capacity = 3.0e7;
    steady_options.rate_max = 60.0;
    const model::ProblemSpec steady = workload::make_scaled_workload(steady_options);
    const int warm_iters = 100;

    core::ParallelLrgpEngine steady_full(steady, {},
                                         {.threads = 1, .collect_phase_times = true});
    steady_full.run(warm_iters);
    steady_full.resetPhaseTimes();
    const std::uint64_t steady_full_ns = timed_run(steady_full, iters);

    core::ParallelLrgpEngine steady_inc(
        steady, {}, {.threads = 1, .collect_phase_times = true, .incremental = true});
    steady_inc.run(warm_iters);
    steady_inc.resetPhaseTimes();
    const std::uint64_t steady_inc_ns = timed_run(steady_inc, iters);

    if (steady_full.currentUtility() != steady_inc.currentUtility()) {
        std::fprintf(stderr, "FATAL: incremental diverged on the steady workload (%.17g vs %.17g)\n",
                     steady_inc.currentUtility(), steady_full.currentUtility());
        return 1;
    }

    const double full_node_tail = per_iter(steady_full.phaseTimes().node_ns);
    const double inc_node_tail = per_iter(steady_inc.phaseTimes().node_ns);
    const double node_tail_speedup = full_node_tail / inc_node_tail;
    const double e2e_tail_speedup =
        static_cast<double>(steady_full_ns) / static_cast<double>(steady_inc_ns);
    const core::IncrementalStats inc_stats = steady_inc.incrementalStats();

    std::printf("\nsteady-workload converged tail (%zu flows, %zu nodes; warmup %d, tail %d):\n",
                steady.flowCount(), steady.nodeCount(), warm_iters, iters);
    std::printf("  node phase: full %.0f ns/iter, incremental %.0f ns/iter  (%.2fx)\n",
                full_node_tail, inc_node_tail, node_tail_speedup);
    std::printf("  end-to-end: full %.0f ns/iter, incremental %.0f ns/iter  (%.2fx)\n",
                per_iter(steady_full_ns), per_iter(steady_inc_ns), e2e_tail_speedup);
    std::printf("  incremental totals: %llu solves run / %llu skipped, %llu nodes re-ran / "
                "%llu cache hits, %llu utility-sum reuses\n",
                static_cast<unsigned long long>(inc_stats.dirty_flows),
                static_cast<unsigned long long>(inc_stats.skipped_solves),
                static_cast<unsigned long long>(inc_stats.dirty_nodes),
                static_cast<unsigned long long>(inc_stats.node_cache_hits),
                static_cast<unsigned long long>(inc_stats.utility_cache_hits));

    io::JsonObject instance;
    instance["flows"] = static_cast<int>(spec.flowCount());
    instance["nodes"] = static_cast<int>(spec.nodeCount());
    instance["links"] = static_cast<int>(spec.linkCount());
    instance["classes"] = static_cast<int>(spec.classCount());

    io::JsonObject phases;
    phases["rate_ns_per_iter"] = per_iter(pt.rate_ns);
    phases["node_ns_per_iter"] = per_iter(pt.node_ns);
    phases["link_ns_per_iter"] = per_iter(pt.link_ns);
    phases["reduce_ns_per_iter"] = per_iter(pt.reduce_ns);

    // Thread counts each measurement actually used.  `hardware_threads`
    // describes the machine; on a single-core box the hw-thread row
    // degenerates to one worker and shows no parallel speedup — record
    // that explicitly instead of letting the two numbers be conflated.
    io::JsonObject threads_used;
    threads_used["serial"] = 1;
    threads_used["compiled_1t"] = compiled1.threadCount();
    threads_used["compiled_hw"] = compiledN.threadCount();
    threads_used["incremental_1t"] = incremental.threadCount();

    io::JsonObject root;
    root["bench"] = "bench_compiled";
    root["machine"] = bench::machine_json();
    root["iterations"] = iters;
    root["hardware_threads"] = hw;
    root["threads_used"] = std::move(threads_used);
    root["single_core_environment"] = (hw == 1);
    root["instance"] = std::move(instance);
    root["serial_ns_per_iter"] = per_iter(serial_ns);
    root["compiled_1t_ns_per_iter"] = per_iter(compiled1_ns);
    root["compiled_hw_ns_per_iter"] = per_iter(compiledN_ns);
    root["serial_iters_per_sec"] = iters_per_sec(serial_ns);
    root["compiled_1t_iters_per_sec"] = iters_per_sec(compiled1_ns);
    root["compiled_hw_iters_per_sec"] = iters_per_sec(compiledN_ns);
    root["speedup_1t"] = speedup1;
    root["speedup_hw"] = speedupN;
    root["compiled_1t_phases"] = std::move(phases);
    root["final_utility"] = u_serial;
    root["bitwise_identical"] = true;

    io::JsonObject inc_cols;
    inc_cols["contended_1t_ns_per_iter"] = per_iter(incremental_ns);
    inc_cols["contended_speedup_vs_compiled_1t"] =
        static_cast<double>(compiled1_ns) / incremental_ns;
    io::JsonObject steady_instance;
    steady_instance["flows"] = static_cast<int>(steady.flowCount());
    steady_instance["nodes"] = static_cast<int>(steady.nodeCount());
    steady_instance["classes"] = static_cast<int>(steady.classCount());
    steady_instance["node_capacity"] = steady_options.node_capacity;
    steady_instance["rate_max"] = steady_options.rate_max;
    inc_cols["steady_instance"] = std::move(steady_instance);
    inc_cols["steady_warmup_iters"] = warm_iters;
    inc_cols["steady_tail_iters"] = iters;
    inc_cols["steady_full_ns_per_iter"] = per_iter(steady_full_ns);
    inc_cols["steady_inc_ns_per_iter"] = per_iter(steady_inc_ns);
    inc_cols["steady_full_node_ns_per_iter"] = full_node_tail;
    inc_cols["steady_inc_node_ns_per_iter"] = inc_node_tail;
    inc_cols["node_phase_tail_speedup"] = node_tail_speedup;
    inc_cols["e2e_tail_speedup"] = e2e_tail_speedup;
    inc_cols["steady_rate_solves_run"] = static_cast<double>(inc_stats.dirty_flows);
    inc_cols["steady_rate_solves_skipped"] = static_cast<double>(inc_stats.skipped_solves);
    inc_cols["steady_nodes_reran"] = static_cast<double>(inc_stats.dirty_nodes);
    inc_cols["steady_node_cache_hits"] = static_cast<double>(inc_stats.node_cache_hits);
    inc_cols["steady_rank_cache_hits"] = static_cast<double>(inc_stats.rank_cache_hits);
    inc_cols["steady_utility_cache_hits"] = static_cast<double>(inc_stats.utility_cache_hits);
    root["incremental"] = std::move(inc_cols);

    // Observability columns: a separate instrumented pass (the timed runs
    // above stay untouched) reports the engine's work counters and what
    // attaching a registry costs per iteration.
    io::JsonObject obs_cols;
    {
        lrgp::obs::Registry registry;
        core::ParallelLrgpEngine instrumented(spec, {}, {.threads = 1});
        instrumented.attachObservability(&registry, nullptr);
        const std::uint64_t instrumented_ns = timed_run(instrumented, iters);
        if (instrumented.currentUtility() != u_c1) {
            std::fprintf(stderr, "FATAL: observability perturbed the trajectory\n");
            return 1;
        }
        const auto count = [&](const char* name) {
            return static_cast<double>(registry.counterValue(name));
        };
        obs_cols["instrumented_1t_ns_per_iter"] = per_iter(instrumented_ns);
        obs_cols["overhead_pct"] =
            100.0 * (static_cast<double>(instrumented_ns) / compiled1_ns - 1.0);
        obs_cols["rate_solves"] = count("lrgp_rate_solves_total");
        obs_cols["admissions"] = count("lrgp_admissions_total");
        obs_cols["node_price_moves"] = count("lrgp_node_price_moves_total");
        obs_cols["link_price_moves"] = count("lrgp_link_price_moves_total");
        obs_cols["pool_jobs"] = count("lrgp_pool_jobs_total");
        obs_cols["pool_chunks"] = count("lrgp_pool_chunks_total");
        std::printf("\nobs: instrumented 1-thread run %.0f ns/iter (%.2f%% overhead), "
                    "%.0f rate solves, %.0f admissions\n",
                    per_iter(instrumented_ns),
                    100.0 * (static_cast<double>(instrumented_ns) / compiled1_ns - 1.0),
                    count("lrgp_rate_solves_total"), count("lrgp_admissions_total"));
    }
    root["obs"] = std::move(obs_cols);

    std::ofstream out("BENCH_lrgp.json");
    out << io::JsonValue(std::move(root)).dump(true) << "\n";
    std::printf("\nwrote BENCH_lrgp.json\n");
    return 0;
}
