// Golden-file regression tests for the deterministic text writers:
// iteration-trace CSV, TableWriter (ASCII + CSV), Chrome trace JSON and
// Prometheus exposition.  Each test renders a fixed input and compares
// byte-exact against tests/golden/<name>.golden.
//
// To regenerate after an intentional format change:
//   ./lrgp_golden_tests --update-golden      (or LRGP_UPDATE_GOLDEN=1)
// then review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "faults/scenarios.hpp"
#include "io/problem_json.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "lrgp/trace_export.hpp"
#include "metrics/table_writer.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "shard/sharded_engine.hpp"
#include "test_helpers.hpp"
#include "workload/federated.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

bool g_update_golden = false;

std::string golden_path(const std::string& name) {
    return std::string(LRGP_GOLDEN_DIR) + "/" + name + ".golden";
}

void check_golden(const std::string& name, const std::string& actual) {
    const std::string path = golden_path(name);
    if (g_update_golden) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run with --update-golden to create it";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();
    if (expected != actual) {
        // Report the first differing line to keep failures readable.
        std::istringstream a(expected), b(actual);
        std::string la, lb;
        int line = 1;
        while (std::getline(a, la) && std::getline(b, lb) && la == lb) ++line;
        FAIL() << name << " differs from " << path << " at line " << line << "\n  golden: " << la
               << "\n  actual: " << lb
               << "\nIf the change is intentional, rerun with --update-golden.";
    }
}

TEST(Golden, TraceExportCsv) {
    // The tiny problem's 8-iteration trajectory is fully deterministic.
    const auto t = test::make_tiny_problem();
    core::LrgpOptimizer optimizer(t.spec);
    std::ostringstream os;
    core::run_and_export(os, optimizer, 8);
    check_golden("trace_export_csv", os.str());
}

metrics::TableWriter make_table() {
    metrics::TableWriter table({"workload", "iters", "utility", "speedup"}, 3);
    table.addRow({std::string("base"), 120LL, 1234.5, 1.0});
    table.addRow({std::string("wide, sparse"), 80LL, 98765.4321, 3.75});
    table.addRow({std::string("quoted \"x\""), 7LL, 0.125, 0.5});
    return table;
}

TEST(Golden, TableWriterAscii) {
    check_golden("table_writer_ascii", make_table().toTableString());
}

TEST(Golden, TableWriterCsv) {
    check_golden("table_writer_csv", make_table().toCsvString());
}

TEST(Golden, ChromeTraceJson) {
    // Hand-fed timestamps (no clock) keep the JSON byte-stable.
    obs::IterationTracer tracer;
    tracer.beginIteration(1);
    tracer.complete("rate_phase", "lrgp", 0, 100.0, 40.5, {{"iteration", 1.0}});
    tracer.complete("iteration", "lrgp", 0, 100.0, 90.25,
                    {{"iteration", 1.0}, {"utility", 512.0625}});
    tracer.counterSample("utility", 0, 190.25, 512.0625);
    tracer.instant("suspicion", "dist", 3, 250.0, {{"watcher", std::string("source")}});
    check_golden("chrome_trace_json", tracer.chromeTraceText());
}

TEST(Golden, PrometheusText) {
    obs::Registry reg;
    reg.counter("lrgp_iterations_total", "LRGP iterations completed").add(42);
    reg.counter("dist_messages_sent_total", "protocol messages by kind", {{"kind", "rate"}})
        .add(1200);
    reg.counter("dist_messages_sent_total", "protocol messages by kind", {{"kind", "node_report"}})
        .add(900);
    reg.gauge("lrgp_utility", "current objective value").set(512.0625);
    obs::Histogram& h =
        reg.histogram("lrgp_phase_seconds", {1e-6, 1e-4, 1e-2}, "phase wall time",
                      {{"phase", "rate"}});
    h.observe(5e-7);
    h.observe(5e-5);
    h.observe(5e-5);
    h.observe(1.0);
    check_golden("prometheus_text", reg.prometheusText());
}

TEST(Golden, IncrementalPrometheusText) {
    // Drive the incremental engine on the tiny problem with observability
    // attached; the lrgp_inc_* counter values are fully deterministic
    // (the dirty sets follow the bitwise-deterministic trajectory).  The
    // live registry also holds wall-time histograms, which are not
    // byte-stable, so the golden fixture re-exposes just the incremental
    // series with the measured counts.
    const auto t = test::make_tiny_problem();
    obs::Registry live;
    core::ParallelLrgpEngine engine(t.spec, {}, {.threads = 1});
    engine.attachObservability(&live);
    engine.run(12);

    obs::Registry reg;
    const obs::IncrementalInstruments inc = obs::IncrementalInstruments::resolve(reg);
    inc.dirty_flows->add(live.counterValue("lrgp_inc_dirty_flows_total"));
    inc.skipped_solves->add(live.counterValue("lrgp_inc_skipped_solves_total"));
    inc.dirty_nodes->add(live.counterValue("lrgp_inc_dirty_nodes_total"));
    inc.node_cache_hits->add(live.counterValue("lrgp_inc_node_cache_hits_total"));
    inc.dirty_links->add(live.counterValue("lrgp_inc_dirty_links_total"));
    inc.utility_cache_hits->add(live.counterValue("lrgp_inc_utility_cache_hits_total"));
    check_golden("prometheus_inc_text", reg.prometheusText());
}

/// The live registry also holds the reconcile wall-time histogram, which
/// is not byte-stable, so shard fixtures re-expose just the deterministic
/// lrgp_shard_* counters and gauges with the measured values.
std::string shard_counter_text(const obs::Registry& live, int shards) {
    obs::Registry reg;
    const obs::ShardInstruments sh = obs::ShardInstruments::resolve(reg, shards);
    sh.steps->add(live.counterValue("lrgp_shard_steps_total"));
    sh.member_iterations->add(live.counterValue("lrgp_shard_member_iterations_total"));
    sh.reconciles->add(live.counterValue("lrgp_shard_reconciles_total"));
    sh.price_exchanges->add(live.counterValue("lrgp_shard_price_exchanges_total"));
    sh.budget_updates->add(live.counterValue("lrgp_shard_budget_updates_total"));
    sh.wakeups->add(live.counterValue("lrgp_shard_wakeups_total"));
    sh.shard_count->set(live.findGauge("lrgp_shard_count")->value());
    sh.boundary_nodes->set(live.findGauge("lrgp_shard_boundary_nodes")->value());
    sh.boundary_links->set(live.findGauge("lrgp_shard_boundary_links")->value());
    sh.budget_moved->set(live.findGauge("lrgp_shard_budget_moved_units")->value());
    for (int s = 0; s < shards; ++s)
        sh.iterations_by_shard[static_cast<std::size_t>(s)]->add(live.counterValue(
            "lrgp_shard_iterations_total", {{"shard", std::to_string(s)}}));
    return reg.prometheusText();
}

TEST(Golden, ShardPrometheusText) {
    // Four flows through one congested hub node: the component exceeds
    // the 2-shard balance cap, so the partitioner must split it and the
    // hub becomes a boundary resource with a bitwise-deterministic
    // budget-exchange trajectory.
    model::ProblemBuilder b;
    const model::NodeId source = b.addNode("P", 1e9);
    const model::NodeId hub = b.addNode("H", 400.0);
    for (int i = 0; i < 4; ++i) {
        const model::FlowId f = b.addFlow("f" + std::to_string(i), source, 1.0, 100.0);
        b.routeThroughNode(f, hub, 1.0);
        const model::NodeId n = b.addNode("S" + std::to_string(i), 500.0);
        b.routeThroughNode(f, n, 1.0);
        b.addClass("c" + std::to_string(i), f, n, 6, 2.0,
                   std::make_shared<utility::LogUtility>(10.0 + i));
    }
    obs::Registry live;
    shard::ShardedLrgpEngine engine(b.build(), {}, {.shards = 2, .threads = 1});
    engine.attachObservability(&live);
    engine.run(24);
    check_golden("prometheus_shard_text", shard_counter_text(live, engine.shardCount()));
}

TEST(Golden, ShardConvergedPrometheusText) {
    // The base workload at K = 4, gated to convergence: unlike the hub
    // fixture above, hundreds of reconcile passes here move budget, so
    // the pass interval, step, step decay and hysteresis all show in
    // the pass, update and moved-units values.
    obs::Registry live;
    shard::ShardedLrgpEngine engine(workload::make_base_workload(), {},
                                    {.shards = 4, .threads = 1});
    engine.attachObservability(&live);
    static_cast<void>(engine.runUntilConverged(4000));
    check_golden("prometheus_shard_converged_text",
                 shard_counter_text(live, engine.shardCount()));
}

/// The live registry also holds the digest-age and inbox-depth
/// histograms, which fill from thread-local observation order, so
/// runtime fixtures re-expose just the deterministic lrgp_runtime_*
/// counters and gauges with the measured values.
std::string runtime_counter_text(const obs::Registry& live) {
    obs::Registry reg;
    const obs::RuntimeInstruments ri = obs::RuntimeInstruments::resolve(reg);
    ri.digests_sent->add(live.counterValue("lrgp_runtime_digests_sent_total"));
    ri.digests_received->add(live.counterValue("lrgp_runtime_digests_received_total"));
    ri.rejected_stale->add(live.counterValue("lrgp_runtime_digests_rejected_stale_total"));
    ri.dropped_fault->add(live.counterValue("lrgp_runtime_messages_dropped_total",
                                            {{"cause", "fault"}}));
    ri.dropped_backpressure->add(live.counterValue("lrgp_runtime_messages_dropped_total",
                                                   {{"cause", "backpressure"}}));
    ri.send_failures->add(live.counterValue("lrgp_runtime_send_failures_total"));
    ri.retries->add(live.counterValue("lrgp_runtime_retries_total"));
    ri.suspicions->add(live.counterValue("lrgp_runtime_suspicions_total"));
    ri.recoveries->add(live.counterValue("lrgp_runtime_recoveries_total"));
    ri.crashes->add(live.counterValue("lrgp_runtime_crashes_total"));
    ri.restarts->add(live.counterValue("lrgp_runtime_restarts_total"));
    ri.snapshots->add(live.counterValue("lrgp_runtime_snapshots_total"));
    ri.snapshot_restores->add(live.counterValue("lrgp_runtime_snapshot_restores_total"));
    ri.budget_updates->add(live.counterValue("lrgp_runtime_budget_updates_total"));
    ri.degradations->add(live.counterValue("lrgp_runtime_degradations_total"));
    ri.agents->set(live.findGauge("lrgp_runtime_agents")->value());
    ri.utility->set(live.findGauge("lrgp_runtime_utility")->value());
    return reg.prometheusText();
}

/// 64-bit FNV-1a of a byte stream.
std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string stream_line(const std::string& name, std::size_t count, std::string_view bytes) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s count=%zu fnv1a=%016llx\n", name.c_str(), count,
                  static_cast<unsigned long long>(fnv1a(bytes)));
    return buf;
}

/// The run's trajectory, as a count and an FNV-1a hash per stream: the
/// utility trace (one hexfloat sample per line) and each agent's digest
/// log (one line per sent digest).  The counter fixtures miss a change
/// that moves a value without moving a count.
std::string runtime_trajectory_text(const runtime::AsyncShardRuntime& rt) {
    std::string trace;
    for (std::size_t i = 0; i < rt.utilityTrace().size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a\n", rt.utilityTrace()[i]);
        trace += buf;
    }
    std::string out = stream_line("utility_trace", rt.utilityTrace().size(), trace);
    for (int agent = 0; agent < rt.agentCount(); ++agent) {
        const std::string& log = rt.digestLog(agent);
        out += stream_line("digest_log agent=" + std::to_string(agent),
                           static_cast<std::size_t>(std::count(log.begin(), log.end(), '\n')),
                           log);
    }
    return out;
}

TEST(Golden, RuntimePrometheusText) {
    // Two async agents over the base workload in deterministic virtual
    // lockstep: every lrgp_runtime_* counter and gauge, the utility
    // trace and every digest log land on the same value on every run and
    // every machine.
    obs::Registry live;
    runtime::RuntimeOptions options;
    options.agents = 2;
    options.keep_digest_log = true;
    runtime::AsyncShardRuntime rt(workload::make_base_workload(), {}, options);
    rt.attachObservability(&live);
    rt.runFor(1.0);
    check_golden("prometheus_runtime_text", runtime_counter_text(live));
    check_golden("runtime_trajectory", runtime_trajectory_text(rt));
}

/// Four agents over the base workload for 20 virtual seconds under one
/// plan of the standard fault catalog.  The fault-free fixture above
/// never suspects, backs off, rejects a stale digest, degrades a slice
/// or restores a snapshot; these pin the protocol timers that drive
/// each of those.
void check_runtime_under_fault(const std::string& scenario) {
    const auto catalog = faults::standard_scenarios(4, 4, 0, 10.0, 2.0);
    const auto it = std::find_if(catalog.begin(), catalog.end(),
                                 [&](const auto& s) { return s.name == scenario; });
    ASSERT_NE(it, catalog.end()) << "no catalog scenario named " << scenario;
    runtime::RuntimeOptions options;
    options.agents = 4;
    options.fault_plan = it->plan;
    options.keep_digest_log = true;
    obs::Registry live;
    runtime::AsyncShardRuntime rt(workload::make_base_workload(), {}, options);
    rt.attachObservability(&live);
    rt.runFor(20.0);
    check_golden("prometheus_runtime_" + scenario + "_text", runtime_counter_text(live));
    check_golden("runtime_" + scenario + "_trajectory", runtime_trajectory_text(rt));
}

TEST(Golden, RuntimeNodeCrashPrometheusText) { check_runtime_under_fault("node_crash"); }

TEST(Golden, RuntimeDelaySpikePrometheusText) { check_runtime_under_fault("delay_spike"); }

/// A generated problem as its JSON size in bytes and an FNV-1a hash of
/// that JSON: names, routes, costs, capacities and every class's
/// utility.
std::string problem_line(const std::string& name, const model::ProblemSpec& spec) {
    const std::string json = io::problem_to_json_string(spec);
    return stream_line(name, json.size(), json);
}

TEST(Golden, GeneratedProblemJson) {
    // The Table 1 generator at the base shape, a 5x10 scaling and
    // perfbench's 50x100 paper_churn shape, and the federated generator
    // at perfbench's federated_local options.  A generator change meant
    // to leave its problems alone must pass unchanged.
    std::string out = problem_line("base", workload::make_base_workload());
    workload::WorkloadOptions scaled;
    scaled.flow_replicas = 5;
    scaled.cnode_replicas = 10;
    out += problem_line("scaled 5x10", workload::make_scaled_workload(scaled));
    scaled.flow_replicas = 50;
    scaled.cnode_replicas = 100;
    out += problem_line("scaled 50x100", workload::make_scaled_workload(scaled));
    workload::FederatedWorkloadOptions federated;
    federated.groups = 40;
    federated.flows_per_group = 10;
    federated.cnodes_per_group = 250;
    federated.tight_groups = 4;
    out += problem_line("federated 40x10x250", workload::make_federated_workload(federated));
    check_golden("generated_problem_json", out);
}

}  // namespace

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--update-golden") g_update_golden = true;
    if (const char* env = std::getenv("LRGP_UPDATE_GOLDEN"); env != nullptr && *env != '\0')
        g_update_golden = true;
    return RUN_ALL_TESTS();
}
