// lrgp_cli — command-line front end for the library.
//
// Builds a workload (the paper's base workload, a scaled variant, or a
// seeded random instance), optimizes it with LRGP (optionally two-stage,
// optionally against a simulated-annealing baseline), and reports the
// allocation with utilization and fairness summaries.  The full
// iteration trace can be exported as CSV for plotting.
//
// Examples:
//   lrgp_cli                                     # base workload, adaptive gamma
//   lrgp_cli --shape p075 --iterations 300
//   lrgp_cli --flow-replicas 2 --cnode-replicas 4 --sa --sa-steps 200000
//   lrgp_cli --workload random --seed 7 --two-stage
//   lrgp_cli --gamma 0.01 --csv trace.csv
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "baseline/annealing.hpp"
#include "dataplane/dataplane.hpp"
#include "fastpath/fastpath.hpp"
#include "io/problem_json.hpp"
#include "lrgp/enactment.hpp"
#include "lrgp/parallel_engine.hpp"
#include "lrgp/trace_export.hpp"
#include "lrgp/two_stage.hpp"
#include "model/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "shard/sharded_engine.hpp"
#include "workload/random_workload.hpp"
#include "workload/workloads.hpp"

using namespace lrgp;

namespace {

/// --threads and --dataplane-workers each start one OS thread per unit,
/// and --agents builds one engine per unit; a larger value is rejected
/// before anything is built.
constexpr int kMaxThreads = 256;
/// --seconds cap: one virtual hour, which takes seconds of wall time on
/// the base workload.  A horizon of 1e9 s would run for weeks.
constexpr double kMaxSeconds = 3600.0;

struct CliOptions {
    std::string workload = "base";  // base | random
    std::string engine = "serial";  // a shard::make_engine name, or async
    int threads = 1;                // incremental/sharded worker threads
    int shards = 4;                 // --engine sharded shard count
    int agents = 4;                 // --engine async agent count
    double seconds = 12.0;          // --engine async virtual run horizon
    workload::UtilityShape shape = workload::UtilityShape::kLog;
    int flow_replicas = 1;
    int cnode_replicas = 1;
    std::uint32_t seed = 1;
    std::optional<double> fixed_gamma;  // nullopt = adaptive
    int iterations = 250;
    bool two_stage = false;
    bool run_sa = false;
    std::uint64_t sa_steps = 100'000;
    std::string scenario;          // --scenario NAME: replay a catalog cell
    bool list_scenarios = false;   // --list-scenarios: print the catalog and exit
    std::string csv_path;
    std::string save_path;   // write the problem as JSON and continue
    std::string load_path;   // read the problem from JSON instead of generating
    std::string obs_prefix;  // write PREFIX.trace.json + PREFIX.prom
    std::uint64_t obs_sample = 1;
    bool verbose_classes = false;
    bool enact = false;            // replay the trace through the dataplane
    double enact_deadband = 0.05;  // EnactmentOptions::rate_deadband
    double enact_interval = 5.0;   // EnactmentOptions::min_interval (seconds)
    std::string dataplane = "sim";  // --enact plant: sim (event) or fast (batched)
    int dataplane_workers = 1;      // fastpath worker threads (0 = hw concurrency)
};

void printUsage() {
    std::puts(
        "usage: lrgp_cli [options]\n"
        "  --workload base|random     workload family (default base)\n"
        "  --scenario NAME            replay a pinned scenario-catalog cell through\n"
        "                             the chosen --engine (dynamic-op schedule,\n"
        "                             best-known comparison; --enact adds the\n"
        "                             packet-level dataplane closed loop); takes\n"
        "                             only --engine --threads --shards --agents\n"
        "                             --gamma --enact --dataplane sim --obs-out\n"
        "                             --save, any other flag is an error\n"
        "  --list-scenarios           print the scenario catalog and exit\n"
        "  --engine serial|incremental|sharded|async\n"
        "                             iteration driver (default serial); the first\n"
        "                             two produce bitwise-identical trajectories,\n"
        "                             sharded matches them exactly at --shards 1, and\n"
        "                             async runs the live shard-agent runtime in\n"
        "                             deterministic virtual time (--agents/--seconds)\n"
        "  --threads N                engine worker threads\n"
        "                             (default 1; 0 = hardware concurrency; max 256)\n"
        "  --shards K                 sharded engine shard count (default 4)\n"
        "  --agents K                 async runtime shard agents (default 4; max 256)\n"
        "  --seconds X                async runtime horizon in virtual seconds\n"
        "                             (default 12; max 3600)\n"
        "  --shape log|p025|p05|p075  class utility shape (default log)\n"
        "  --flow-replicas N          scale: replicate the 6-flow set (default 1)\n"
        "  --cnode-replicas N         scale: replicate consumer nodes (default 1)\n"
        "  --seed N                   seed for --workload random (default 1)\n"
        "  --gamma X                  fixed node-price stepsize (default: adaptive)\n"
        "  --iterations N             LRGP iterations (default 250)\n"
        "  --two-stage                run the Section 2.4 prune-and-resolve pass\n"
        "  --sa                       also run the simulated-annealing baseline\n"
        "  --sa-steps N               SA steps per start temperature (default 1e5)\n"
        "  --csv FILE                 export the iteration trace as CSV\n"
        "  --obs-out PREFIX           write PREFIX.trace.json (chrome://tracing)\n"
        "                             and PREFIX.prom (Prometheus text)\n"
        "  --obs-sample N             trace every Nth iteration (default 1)\n"
        "  --enact                    replay the iteration trace through the\n"
        "                             message-level dataplane and report the\n"
        "                             planned vs achieved utility\n"
        "  --enact-deadband X         relative rate change that forces an\n"
        "                             enactment (default 0.05; implies --enact)\n"
        "  --enact-interval X         periodic enactment refresh in seconds of\n"
        "                             system time (default 5; implies --enact)\n"
        "  --dataplane sim|fast       plant for --enact: the event-driven\n"
        "                             simulator (default) or the batched\n"
        "                             run-to-completion fastpath (implies --enact)\n"
        "  --dataplane-workers N      fastpath worker threads (default 1;\n"
        "                             0 = hardware concurrency; max 256); the\n"
        "                             result is byte-identical for any N\n"
        "  --save FILE                write the workload as JSON, then optimize it\n"
        "  --load FILE                optimize a JSON workload (overrides --workload)\n"
        "  --classes                  print the per-class service table\n"
        "  --help                     this message");
}

/// parseArgs' result: the options to run with, or the status to exit with
/// at once (0 after the usage text, kBadArguments after a reported error).
using ParsedArgs = std::variant<CliOptions, int>;
constexpr int kBadArguments = 2;

ParsedArgs parseArgs(int argc, char** argv) {
    CliOptions options;
    std::vector<std::string> given;  // every flag, in command-line order
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        given.push_back(arg);
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        // Reads the flag's value into `out`: the whole argument, and a
        // finite value.  "50x", "abc", "-1" for an unsigned field, "nan"
        // and "inf" fail (--seconds inf would run the runtime forever).
        auto number = [&](auto& out) -> bool {
            const char* v = next();
            if (!v) return false;
            const char* end = v + std::strlen(v);
            const auto [ptr, ec] = std::from_chars(v, end, out);
            if (ec != std::errc() || ptr != end || !std::isfinite(static_cast<double>(out))) {
                std::fprintf(stderr, "error: %s: '%s' is not a number in range\n", arg.c_str(), v);
                return false;
            }
            return true;
        };
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (arg == "--workload") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.workload = v;
            if (options.workload != "base" && options.workload != "random") {
                std::fprintf(stderr, "error: unknown workload '%s'\n", v);
                return kBadArguments;
            }
        } else if (arg == "--scenario") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.scenario = v;
        } else if (arg == "--list-scenarios") {
            options.list_scenarios = true;
        } else if (arg == "--engine") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.engine = v;
        } else if (arg == "--shards") {
            if (!number(options.shards)) return kBadArguments;
            if (options.shards < 1) {
                std::fprintf(stderr, "error: --shards must be >= 1\n");
                return kBadArguments;
            }
        } else if (arg == "--agents") {
            if (!number(options.agents)) return kBadArguments;
            if (options.agents < 1 || options.agents > kMaxThreads) {
                std::fprintf(stderr, "error: --agents must be in [1, %d]\n", kMaxThreads);
                return kBadArguments;
            }
        } else if (arg == "--seconds") {
            if (!number(options.seconds)) return kBadArguments;
            if (!(options.seconds > 0.0 && options.seconds <= kMaxSeconds)) {
                std::fprintf(stderr, "error: --seconds must be in (0, %g]\n", kMaxSeconds);
                return kBadArguments;
            }
        } else if (arg == "--threads") {
            if (!number(options.threads)) return kBadArguments;
            if (options.threads < 0 || options.threads > kMaxThreads) {
                std::fprintf(stderr, "error: --threads must be in [0, %d]\n", kMaxThreads);
                return kBadArguments;
            }
        } else if (arg == "--shape") {
            const char* v = next();
            if (!v) return kBadArguments;
            if (std::strcmp(v, "log") == 0) options.shape = workload::UtilityShape::kLog;
            else if (std::strcmp(v, "p025") == 0) options.shape = workload::UtilityShape::kPow025;
            else if (std::strcmp(v, "p05") == 0) options.shape = workload::UtilityShape::kPow05;
            else if (std::strcmp(v, "p075") == 0) options.shape = workload::UtilityShape::kPow075;
            else {
                std::fprintf(stderr, "error: unknown shape '%s'\n", v);
                return kBadArguments;
            }
        } else if (arg == "--flow-replicas") {
            if (!number(options.flow_replicas)) return kBadArguments;
        } else if (arg == "--cnode-replicas") {
            if (!number(options.cnode_replicas)) return kBadArguments;
        } else if (arg == "--seed") {
            if (!number(options.seed)) return kBadArguments;
        } else if (arg == "--gamma") {
            double gamma = 0.0;
            if (!number(gamma)) return kBadArguments;
            options.fixed_gamma = gamma;
        } else if (arg == "--iterations") {
            if (!number(options.iterations)) return kBadArguments;
        } else if (arg == "--two-stage") {
            options.two_stage = true;
        } else if (arg == "--sa") {
            options.run_sa = true;
        } else if (arg == "--sa-steps") {
            if (!number(options.sa_steps)) return kBadArguments;
        } else if (arg == "--csv") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.csv_path = v;
        } else if (arg == "--obs-out") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.obs_prefix = v;
        } else if (arg == "--obs-sample") {
            if (!number(options.obs_sample)) return kBadArguments;
        } else if (arg == "--save") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.save_path = v;
        } else if (arg == "--load") {
            const char* v = next();
            if (!v) return kBadArguments;
            options.load_path = v;
        } else if (arg == "--enact") {
            options.enact = true;
        } else if (arg == "--enact-deadband") {
            if (!number(options.enact_deadband)) return kBadArguments;
            options.enact = true;
        } else if (arg == "--dataplane") {
            const char* v = next();
            if (v == nullptr) return kBadArguments;
            options.dataplane = v;
            options.enact = true;
        } else if (arg == "--dataplane-workers") {
            if (!number(options.dataplane_workers)) return kBadArguments;
            options.enact = true;
        } else if (arg == "--enact-interval") {
            if (!number(options.enact_interval)) return kBadArguments;
            options.enact = true;
        } else if (arg == "--classes") {
            options.verbose_classes = true;
        } else {
            std::fprintf(stderr, "error: unknown option '%s' (try --help)\n", arg.c_str());
            return kBadArguments;
        }
    }
    if (options.iterations <= 0 || options.flow_replicas < 1 || options.cnode_replicas < 1) {
        std::fprintf(stderr, "error: non-positive numeric option\n");
        return kBadArguments;
    }
    if (options.dataplane != "sim" && options.dataplane != "fast") {
        std::fprintf(stderr, "error: --dataplane must be sim or fast\n");
        return kBadArguments;
    }
    if (options.dataplane_workers < 0 || options.dataplane_workers > kMaxThreads) {
        std::fprintf(stderr, "error: --dataplane-workers must be in [0, %d]\n", kMaxThreads);
        return kBadArguments;
    }
    if (options.enact && (options.enact_deadband < 0.0 || options.enact_interval <= 0.0)) {
        std::fprintf(stderr, "error: --enact-deadband must be >= 0, --enact-interval > 0\n");
        return kBadArguments;
    }
    // The scenario replay reads only these flags (and drives only the
    // event dataplane); any other flag would be dropped without a word.
    if (!options.scenario.empty()) {
        static const std::set<std::string> kScenarioFlags = {
            "--scenario", "--engine", "--threads",   "--shards", "--agents",
            "--gamma",    "--enact",  "--dataplane", "--obs-out", "--save"};
        for (const std::string& flag : given) {
            if (!kScenarioFlags.contains(flag)) {
                std::fprintf(stderr, "error: %s is not supported with --scenario\n",
                             flag.c_str());
                return kBadArguments;
            }
        }
        if (options.dataplane != "sim") {
            std::fprintf(stderr, "error: --dataplane %s is not supported with --scenario\n",
                         options.dataplane.c_str());
            return kBadArguments;
        }
    }
    return options;
}

model::ProblemSpec buildWorkload(const CliOptions& options) {
    if (options.workload == "random") {
        workload::RandomWorkloadOptions random_options;
        random_options.seed = options.seed;
        random_options.shape = options.shape;
        return workload::make_random_workload(random_options);
    }
    workload::WorkloadOptions scaled;
    scaled.shape = options.shape;
    scaled.flow_replicas = options.flow_replicas;
    scaled.cnode_replicas = options.cnode_replicas;
    return workload::make_scaled_workload(scaled);
}

int run(const CliOptions& cli) {
    if (cli.list_scenarios) {
        std::printf("%-44s %-12s %-12s %-12s %5s\n", "cell", "topology", "traffic",
                    "utility", "seed");
        for (const scenario::ScenarioOptions& cell : scenario::scenario_catalog())
            std::printf("%-44s %-12s %-12s %-12s %5llu\n", cell.name.c_str(),
                        cell.topology.c_str(), cell.traffic.c_str(), cell.utility.c_str(),
                        static_cast<unsigned long long>(cell.seed));
        return 0;
    }

    if (!cli.scenario.empty()) {
        const scenario::ScenarioSpec sc =
            scenario::build_scenario(scenario::find_scenario(cli.scenario));
        std::printf("scenario %s: %s x %s x %s%s, seed %llu\n", sc.options.name.c_str(),
                    sc.options.topology.c_str(), sc.options.traffic.c_str(),
                    sc.options.utility.c_str(), sc.options.overdrive ? " (overdrive)" : "",
                    static_cast<unsigned long long>(sc.options.seed));
        std::printf("problem: %zu flows, %zu classes, %zu nodes, %zu links; "
                    "%zu scheduled ops over %.1fs\n",
                    sc.problem.flowCount(), sc.problem.classCount(), sc.problem.nodeCount(),
                    sc.problem.linkCount(), sc.schedule.size(), sc.options.duration);

        if (!cli.save_path.empty()) {
            std::ofstream out(cli.save_path);
            if (!out) {
                std::fprintf(stderr, "error: cannot write %s\n", cli.save_path.c_str());
                return 1;
            }
            out << io::problem_to_json_string(sc.problem);
            std::printf("scenario problem written to %s\n", cli.save_path.c_str());
        }

        scenario::RunnerOptions ropts;
        ropts.engine = cli.engine;
        ropts.shards = cli.engine == "async" ? cli.agents : cli.shards;
        ropts.threads = cli.threads;
        ropts.with_dataplane = cli.enact;
        core::LrgpOptions lrgp_options;
        if (cli.fixed_gamma)
            lrgp_options.gamma = core::FixedGamma{*cli.fixed_gamma, *cli.fixed_gamma};
        ropts.lrgp = lrgp_options;

        const scenario::ScenarioRunReport report = scenario::run_scenario(sc, ropts);
        std::printf("replay (%s): %zu ops applied, %zu utility samples\n",
                    report.engine.c_str(), report.ops_applied, report.utility_trace.size());
        std::printf("utility: final %.1f vs best-known %.1f (%.2f%%)%s\n",
                    report.final_utility, report.best_known_utility,
                    100.0 * report.utility_vs_best, report.converged ? ", converged" : "");
        if (report.has_recovery)
            std::printf("recovery: dip %.1f U*s, reconverged %s (ttr %.2fs)\n",
                        report.recovery.dip_integral,
                        report.recovery.reconverged ? "yes" : "NO",
                        report.recovery.reconverged ? report.recovery.time_to_reconverge : -1.0);
        if (report.has_dataplane)
            std::printf("dataplane: achieved/planned %.3f (%.1f / %.1f), drop rate %.4f\n",
                        report.achieved_vs_planned, report.achieved_mean, report.planned_mean,
                        report.drop_rate);

        if (!cli.obs_prefix.empty()) {
            obs::Registry registry;
            scenario::export_observability(sc, report, registry);
            const std::string prom_path = cli.obs_prefix + ".prom";
            std::ofstream prom_out(prom_path);
            if (!prom_out) {
                std::fprintf(stderr, "error: cannot write %s\n", prom_path.c_str());
                return 1;
            }
            registry.writePrometheus(prom_out);
            std::printf("obs: %s (%zu series)\n", prom_path.c_str(), registry.size());
        }
        return 0;
    }

    model::ProblemSpec spec = [&] {
        if (cli.load_path.empty()) return buildWorkload(cli);
        std::ifstream in(cli.load_path);
        if (!in) throw std::runtime_error("cannot read " + cli.load_path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return io::problem_from_json_string(buffer.str());
    }();
    std::printf("workload: %zu flows, %zu classes, %zu nodes, %zu links, shape %s\n",
                spec.flowCount(), spec.classCount(), spec.nodeCount(), spec.linkCount(),
                workload::shape_name(cli.shape).c_str());

    if (!cli.save_path.empty()) {
        std::ofstream out(cli.save_path);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n", cli.save_path.c_str());
            return 1;
        }
        out << io::problem_to_json_string(spec);
        std::printf("workload written to %s\n", cli.save_path.c_str());
    }

    core::LrgpOptions lrgp_options;
    if (cli.fixed_gamma) lrgp_options.gamma = core::FixedGamma{*cli.fixed_gamma, *cli.fixed_gamma};

    // The async runtime is time-based, not iteration-based, so it gets
    // its own driver loop instead of the core::Engine path below.
    if (cli.engine == "async") {
        runtime::RuntimeOptions rt_options;
        rt_options.agents = cli.agents;
        rt_options.seed = cli.seed;
        runtime::AsyncShardRuntime rt(spec, lrgp_options, rt_options);

        std::unique_ptr<obs::Registry> registry;
        if (!cli.obs_prefix.empty()) {
            registry = std::make_unique<obs::Registry>();
            rt.attachObservability(registry.get());
        }

        std::printf("engine: async, %d agent%s, %.1f virtual seconds (deterministic)\n",
                    rt.agentCount(), rt.agentCount() == 1 ? "" : "s", cli.seconds);
        rt.runFor(cli.seconds);

        std::printf("async: utility %.0f after %.1f virtual seconds\n", rt.currentUtility(),
                    cli.seconds);
        for (const runtime::AgentSummary& s : rt.summaries()) {
            std::printf("agent %d: %zu flows, %zu classes, %zu nodes, utility %.0f; "
                        "%llu digests out / %llu in (%llu stale), %llu suspicions, "
                        "%llu recoveries, %llu budget updates%s\n",
                        s.agent, s.flows, s.classes, s.nodes, s.utility,
                        static_cast<unsigned long long>(s.counters.digests_sent),
                        static_cast<unsigned long long>(s.counters.digests_received),
                        static_cast<unsigned long long>(s.counters.digests_rejected_stale),
                        static_cast<unsigned long long>(s.counters.suspicions),
                        static_cast<unsigned long long>(s.counters.recoveries),
                        static_cast<unsigned long long>(s.counters.budget_updates),
                        s.down ? " [down]" : "");
        }
        const runtime::RuntimeStats stats = rt.stats();
        std::printf("transport: %llu messages sent, %llu dropped by faults, "
                    "%llu by backpressure, %llu retries\n",
                    static_cast<unsigned long long>(stats.messages_sent),
                    static_cast<unsigned long long>(stats.dropped_fault),
                    static_cast<unsigned long long>(stats.dropped_backpressure),
                    static_cast<unsigned long long>(stats.totals.retries));
        std::printf("resilience: %llu crashes, %llu restarts, %llu snapshot restores, "
                    "%llu degradations\n",
                    static_cast<unsigned long long>(stats.totals.crashes),
                    static_cast<unsigned long long>(stats.totals.restarts),
                    static_cast<unsigned long long>(stats.totals.snapshot_restores),
                    static_cast<unsigned long long>(stats.totals.degradations));

        if (registry) {
            // No iteration trace here — the runtime reports through its
            // lrgp_runtime_* metric series only.
            const std::string prom_path = cli.obs_prefix + ".prom";
            std::ofstream prom_out(prom_path);
            if (!prom_out) {
                std::fprintf(stderr, "error: cannot write %s\n", prom_path.c_str());
                return 1;
            }
            registry->writePrometheus(prom_out);
            std::printf("obs: %s (%zu series)\n", prom_path.c_str(), registry->size());
        }
        return 0;
    }

    // The serial and incremental drivers follow the same bitwise
    // trajectory; --engine only chooses the hot path (object graph, or
    // flat arrays with dirty-set skipping).  "sharded" layers the
    // hierarchical control plane on K incremental subengines and matches
    // the others exactly at --shards 1.
    const std::unique_ptr<core::Engine> owner =
        shard::make_engine(cli.engine, spec, lrgp_options, cli.threads, cli.shards);
    const auto* sharded = dynamic_cast<const shard::ShardedLrgpEngine*>(owner.get());
    const auto* parallel = dynamic_cast<const core::ParallelLrgpEngine*>(owner.get());
    if (sharded)
        std::printf("engine: sharded, %d shard%s; boundary %zu nodes / %zu links "
                    "(%.1f%% of nodes)\n",
                    sharded->shardCount(), sharded->shardCount() == 1 ? "" : "s",
                    sharded->boundaryNodeCount(), sharded->boundaryLinkCount(),
                    100.0 * sharded->boundaryNodeFraction());
    if (parallel)
        std::printf("engine: %s, %d thread%s\n", parallel->name(), parallel->threadCount(),
                    parallel->threadCount() == 1 ? "" : "s");
    core::Engine& active = *owner;
    const auto current_utility = [&] { return active.currentUtility(); };

    std::unique_ptr<obs::Registry> obs_registry;
    std::unique_ptr<obs::IterationTracer> obs_tracer;
    if (!cli.obs_prefix.empty()) {
        obs_registry = std::make_unique<obs::Registry>();
        obs_tracer = std::make_unique<obs::IterationTracer>(
            obs::TracerOptions{.sample_every = std::max<std::uint64_t>(1, cli.obs_sample)});
        active.attachObservability(obs_registry.get(), obs_tracer.get());
    }

    std::vector<core::IterationRecord> records;
    records.reserve(static_cast<std::size_t>(cli.iterations));
    for (int i = 0; i < cli.iterations; ++i) records.push_back(active.step());

    const std::size_t converged = active.convergence().convergedAt();
    std::printf("LRGP: utility %.0f after %d iterations (converged at %zu)\n",
                current_utility(), cli.iterations, converged);

    if (parallel) {
        const core::IncrementalStats inc = parallel->incrementalStats();
        std::printf("incremental: %llu rate solves run / %llu skipped, "
                    "%llu node admissions run / %llu cached, "
                    "%llu link sums, %llu utility-sum reuses\n",
                    static_cast<unsigned long long>(inc.dirty_flows),
                    static_cast<unsigned long long>(inc.skipped_solves),
                    static_cast<unsigned long long>(inc.dirty_nodes),
                    static_cast<unsigned long long>(inc.node_cache_hits),
                    static_cast<unsigned long long>(inc.dirty_links),
                    static_cast<unsigned long long>(inc.utility_cache_hits));
    }

    if (sharded) {
        for (const auto& s : sharded->summaries()) {
            std::printf("shard %d: %zu flows, %zu classes, %zu nodes (%zu boundary), "
                        "%zu links (%zu boundary), %d iterations%s\n",
                        s.shard, s.flows, s.classes, s.nodes, s.boundary_nodes, s.links,
                        s.boundary_links, s.iterations, s.converged ? ", converged" : "");
        }
        const shard::ReconcileStats& rs = sharded->reconcileStats();
        std::printf("reconcile: %llu passes, %llu price exchanges, %llu budget updates, "
                    "%llu shard wakeups, %.1f capacity units moved\n",
                    static_cast<unsigned long long>(rs.passes),
                    static_cast<unsigned long long>(rs.price_exchanges),
                    static_cast<unsigned long long>(rs.budget_updates),
                    static_cast<unsigned long long>(rs.shard_wakeups), rs.budget_moved);
    }

    if (cli.two_stage) {
        core::TwoStageOptions ts;
        ts.lrgp = lrgp_options;
        ts.max_iterations = cli.iterations;
        const auto result = core::two_stage_optimize(spec, ts);
        std::printf(
            "two-stage: stage1 %.0f -> stage2 %.0f (%d routes pruned, %d classes off)\n",
            result.stage_one_utility, result.stage_two_utility, result.prune.routes_removed,
            result.prune.classes_deactivated);
    }

    if (cli.run_sa) {
        const auto sa =
            baseline::best_of_annealing(spec, {5.0, 10.0, 50.0, 100.0}, cli.sa_steps, cli.seed);
        std::printf("SA (best of 4 temps, %llu steps each): utility %.0f in %.1fs\n",
                    static_cast<unsigned long long>(cli.sa_steps), sa.best_utility,
                    sa.wall_seconds);
        std::printf("LRGP vs SA: %+.2f%%\n",
                    100.0 * (current_utility() - sa.best_utility) / sa.best_utility);
    }

    const auto summary = model::summarize(spec, active.allocation());
    std::printf("classes: %d fully admitted, %d partial, %d denied; Jain fairness %.3f\n",
                summary.classes_fully_admitted, summary.classes_partially_admitted,
                summary.classes_denied, summary.jain_fairness);
    double hottest = 0.0;
    for (double u : summary.node_utilization) hottest = std::max(hottest, u);
    std::printf("hottest node at %.1f%% utilization\n", 100.0 * hottest);

    if (cli.enact) {
        // Replay the iteration trace as a control loop: each iteration is
        // one 50 ms control tick offered to the hysteresis policy; enacted
        // allocations drive simulated traffic, and the final 5 seconds of
        // settled traffic measure how much of the planned utility the
        // dataplane actually delivers.  --dataplane picks the plant: the
        // event-driven simulator or the batched fastpath (identical cost
        // model, so the report means the same thing either way).
        constexpr double kTick = 0.05;
        const auto replay = [&](auto& plant, const char* label) {
            core::EnactmentOptions eopts;
            eopts.rate_deadband = cli.enact_deadband;
            // A converged LRGP trace still jitters admissions by a
            // consumer or two; don't reconfigure the dataplane for that.
            eopts.population_deadband = 2;
            eopts.min_interval = cli.enact_interval;
            core::EnactmentController enactor(
                eopts, [&](const model::Allocation& allocation) { plant.enact(allocation); });
            const auto begin = std::chrono::steady_clock::now();
            for (const auto& record : records) {
                const double t = kTick * record.iteration;
                plant.notePlanned(record.allocation);
                enactor.offer(t, record.allocation);
                plant.runUntil(t);
            }
            const double settle = 10.0;
            plant.runUntil(kTick * static_cast<double>(records.size()) + settle);
            const double wall =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
                    .count();
            const auto stats = plant.collectStats();
            const std::size_t window =
                std::min<std::size_t>(10, plant.achievedUtilityTrace().size());
            const double achieved = plant.achievedUtilityTrace().trailingMean(window);
            const double planned = plant.plannedUtilityTrace().trailingMean(window);
            std::printf("enactment: %zu of %zu offers enacted (%zu suppressed by deadband"
                        " %.2f / interval %.1fs)\n",
                        enactor.enactments(), enactor.offers(), enactor.suppressions(),
                        cli.enact_deadband, cli.enact_interval);
            std::printf("%s: planned %.0f, achieved %.0f (gap %+.2f%%), drop rate %.4f, "
                        "%llu messages delivered\n",
                        label, planned, achieved,
                        planned > 0.0 ? 100.0 * (planned - achieved) / planned : 0.0,
                        stats.drop_rate,
                        static_cast<unsigned long long>(stats.total_delivered));
            return wall;
        };
        if (cli.dataplane == "fast") {
            fastpath::FastpathOptions fpopts;
            fpopts.workers = cli.dataplane_workers;
            fastpath::Fastpath fp(spec, fpopts);
            const double wall = replay(fp, "fastpath");
            // Per-worker throughput: how the message work (emission +
            // gate servings) split across the pool.  The split depends
            // on the partition; the traffic does not.
            const auto& per_worker = fp.workerMessages();
            std::uint64_t total = 0;
            for (const std::uint64_t n : per_worker) total += n;
            std::printf("fastpath: %d worker(s), %.0f msgs/sec wall (%llu messages, "
                        "%llu quanta, %llu batches)\n",
                        fp.workerCount(), wall > 0.0 ? static_cast<double>(total) / wall : 0.0,
                        static_cast<unsigned long long>(total),
                        static_cast<unsigned long long>(fp.quantaProcessed()),
                        static_cast<unsigned long long>(fp.batchesProcessed()));
            for (std::size_t w = 0; w < per_worker.size(); ++w) {
                std::printf("  worker %zu: %llu messages (%.1f%%)\n", w,
                            static_cast<unsigned long long>(per_worker[w]),
                            total > 0 ? 100.0 * static_cast<double>(per_worker[w]) /
                                            static_cast<double>(total)
                                      : 0.0);
            }
        } else {
            dataplane::Dataplane dp(spec, dataplane::DataplaneOptions{});
            replay(dp, "dataplane");
        }
    }

    if (cli.verbose_classes) {
        std::printf("\n%-12s %10s %10s %12s %14s\n", "class", "admitted", "max", "ratio",
                    "agg. utility");
        for (const auto& s : summary.classes) {
            std::printf("%-12s %10d %10d %11.1f%% %14.1f\n",
                        spec.consumerClass(s.cls).name.c_str(), s.admitted, s.max_consumers,
                        100.0 * s.admission_ratio, s.aggregate_utility);
        }
    }

    if (!cli.csv_path.empty()) {
        std::ofstream out(cli.csv_path);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n", cli.csv_path.c_str());
            return 1;
        }
        core::export_trace_csv(out, spec, records);
        std::printf("trace written to %s (%zu rows)\n", cli.csv_path.c_str(), records.size());
    }

    if (obs_registry) {
        const std::string trace_path = cli.obs_prefix + ".trace.json";
        const std::string prom_path = cli.obs_prefix + ".prom";
        std::ofstream trace_out(trace_path);
        std::ofstream prom_out(prom_path);
        if (!trace_out || !prom_out) {
            std::fprintf(stderr, "error: cannot write %s / %s\n", trace_path.c_str(),
                         prom_path.c_str());
            return 1;
        }
        obs_tracer->writeChromeTrace(trace_out);
        obs_registry->writePrometheus(prom_out);
        std::printf("obs: %s (%zu events%s), %s (%zu series)\n", trace_path.c_str(),
                    obs_tracer->events().size(),
                    obs_tracer->droppedEvents() ? ", some dropped" : "", prom_path.c_str(),
                    obs_registry->size());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const ParsedArgs parsed = parseArgs(argc, argv);
    if (const int* status = std::get_if<int>(&parsed)) return *status;
    // Malformed problem files, unknown engine or scenario names and
    // unsupported option combinations all surface as exceptions.
    try {
        return run(std::get<CliOptions>(parsed));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
