// Golden fixtures for the two traffic plants.
//
//   * The lrgp_fastpath_* Prometheus exposition: a pinned deterministic
//     fastpath run (small spec, fixed seed, two workers) exports its
//     instrument bundle, compared byte-exact against
//     tests/golden/fastpath_prometheus.golden.
//   * statsJson from both plants (event dataplane and fastpath) on a
//     small fat-tree cell (k = 4), in two scripted runs: headroom, with
//     enactments that change populations and one flow leaving and
//     returning, where no fastpath gate ever queues; and the same
//     script at node capacity x0.25, so gates contend, queue and drop.
//     The fastpath runs are also replayed at 2 and 4 workers and must
//     give the same bytes.
//   * perfbench's fanout_loop cell (k = 8, 400 flows, 2e4 classes): a
//     cold solve enacted into the fastpath, then 200 quanta of enacts,
//     a flow off and on, and a node squeeze and restore.  statsJson and
//     both utility traces are pinned as sizes and FNV-1a hashes, at 1
//     and 4 workers.
//
// Because both engines are bitwise deterministic (and the fastpath
// across worker counts), the text is stable across runs, machines, and
// thread pools.
//
// To regenerate after an intentional change:
//   ./lrgp_fastpath_golden_tests --update-golden   (or LRGP_UPDATE_GOLDEN=1)
// then review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "dataplane/dataplane.hpp"
#include "fastpath/fastpath.hpp"
#include "lrgp/parallel_engine.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "utility/utility_function.hpp"

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
        std::istringstream a(expected), b(actual);
        std::string la, lb;
        int line = 1;
        while (std::getline(a, la) && std::getline(b, lb) && la == lb) ++line;
        FAIL() << name << " differs from " << path << " at line " << line << "\n  golden: " << la
               << "\n  actual: " << lb
               << "\nIf the change is intentional, rerun with --update-golden.";
    }
}

/// Same pinned overlay as the fastpath unit suite.
model::ProblemSpec makeSmallSpec() {
    model::ProblemBuilder b;
    const model::NodeId s0 = b.addNode("S0", 100.0);
    const model::NodeId s1 = b.addNode("S1", 80.0);
    const model::LinkId l0 = b.addLink("l0", s0, s1, 50.0);
    const model::FlowId f0 = b.addFlow("f0", s0, 1.0, 10.0);
    b.routeThroughNode(f0, s0, 1.0);
    b.routeThroughNode(f0, s1, 1.0);
    b.routeOverLink(f0, l0, 1.0);
    const model::FlowId f1 = b.addFlow("f1", s1, 1.0, 8.0);
    b.routeThroughNode(f1, s1, 2.0);
    b.addClass("c0", f0, s0, 3, 0.5, std::make_shared<utility::LogUtility>(20.0));
    b.addClass("c1", f0, s1, 2, 1.0, std::make_shared<utility::LogUtility>(10.0));
    b.addClass("c2", f1, s1, 4, 0.5, std::make_shared<utility::LogUtility>(15.0));
    return b.build();
}

TEST(FastpathGolden, PrometheusText) {
    const model::ProblemSpec spec = makeSmallSpec();
    fastpath::FastpathOptions options;
    options.workers = 2;
    fastpath::Fastpath fp(spec, options);
    obs::Registry reg;
    fp.attachObservability(&reg);

    model::Allocation alloc;
    alloc.rates = {4.0, 2.0};
    alloc.populations = {2, 1, 3};
    fp.notePlanned(alloc);
    fp.enact(alloc);
    fp.setOfferedRate(model::FlowId{0}, 8.0);  // exercise the shaped counter
    fp.runUntil(30.0);

    check_golden("fastpath_prometheus", reg.prometheusText());
}

// ------------------------------------------------ plant statsJson pins

/// A small fat-tree cell from the scenario builder: k = 4, 12 flows,
/// 3 classes per flow, capacities calibrated at 60% of peak demand.
const scenario::ScenarioSpec& fatTreeCell() {
    static const scenario::ScenarioSpec cell = [] {
        scenario::ScenarioOptions options;
        options.topology = "fat_tree";
        options.fat_tree_k = 4;
        options.flows = 12;
        options.classes_per_flow = 3;
        options.seed = 7;
        return scenario::build_scenario(options);
    }();
    return cell;
}

/// Rates at `rate_frac` of each flow's range; populations at n^max,
/// except every `thin`-th class, which gets half (and every
/// `2 * thin`-th, none).  Built by hand so the fixtures pin the plants
/// and not the optimizer.
model::Allocation handAllocation(const model::ProblemSpec& spec, double rate_frac, std::size_t thin) {
    model::Allocation alloc;
    for (const model::FlowSpec& flow : spec.flows()) {
        alloc.rates.push_back(flow.rate_min + rate_frac * (flow.rate_max - flow.rate_min));
    }
    for (std::size_t j = 0; j < spec.classCount(); ++j) {
        const int n_max = spec.classes()[j].max_consumers;
        alloc.populations.push_back(j % (2 * thin) == 0 ? 0 : j % thin == 0 ? n_max / 2 : n_max);
    }
    return alloc;
}

/// The pinned script, identical for both plants: enact, re-enact with
/// moved populations and rates, flow 3 leaves and returns, enact back.
/// `node_scale` < 1 shrinks every node's physical capacity first.
template <class Plant>
std::string scriptedStatsJson(Plant& plant, double node_scale) {
    const model::ProblemSpec& spec = fatTreeCell().problem;
    if (node_scale != 1.0) {
        for (const model::NodeSpec& node : spec.nodes()) {
            plant.setNodeCapacity(node.id, node.capacity * node_scale);
        }
    }
    const model::Allocation first = handAllocation(spec, 0.9, 3);
    const model::Allocation second = handAllocation(spec, 0.6, 4);
    plant.notePlanned(first);
    plant.enact(first);
    plant.runUntil(4.0);
    plant.notePlanned(second);
    plant.enact(second);
    plant.runUntil(7.0);
    plant.setFlowActive(model::FlowId{3}, false);
    plant.runUntil(9.5);
    plant.setFlowActive(model::FlowId{3}, true);
    plant.runUntil(11.0);
    plant.notePlanned(first);
    plant.enact(first);
    plant.runUntil(15.0);
    return plant.statsJson();
}

std::string dataplaneStatsJson(double node_scale) {
    dataplane::DataplaneOptions options;
    dataplane::Dataplane dp(fatTreeCell().problem, options);
    return scriptedStatsJson(dp, node_scale);
}

std::string fastpathStatsJson(double node_scale, int workers) {
    // This cell's messages are large against its capacities: at the
    // default 50 ms quantum a node's budget is about one message, so
    // gates would queue even at headroom.  A 250 ms quantum keeps the
    // headroom run on the uncontended path.
    fastpath::FastpathOptions options;
    options.quantum = 0.25;
    options.workers = workers;
    fastpath::Fastpath fp(fatTreeCell().problem, options);
    return scriptedStatsJson(fp, node_scale);
}

TEST(PlantGolden, DataplaneHeadroomStatsJson) {
    check_golden("dataplane_stats_headroom", dataplaneStatsJson(1.0));
}

TEST(PlantGolden, DataplaneContendedStatsJson) {
    check_golden("dataplane_stats_contended", dataplaneStatsJson(0.25));
}

TEST(PlantGolden, FastpathHeadroomStatsJson) {
    const std::string json = fastpathStatsJson(1.0, 1);
    check_golden("fastpath_stats_headroom", json);
    for (const int workers : {2, 4}) {
        EXPECT_EQ(fastpathStatsJson(1.0, workers), json) << "workers=" << workers;
    }
}

TEST(PlantGolden, FastpathContendedStatsJson) {
    const std::string json = fastpathStatsJson(0.25, 1);
    check_golden("fastpath_stats_contended", json);
    for (const int workers : {2, 4}) {
        EXPECT_EQ(fastpathStatsJson(0.25, workers), json) << "workers=" << workers;
    }
}

// ------------------------------------------------ fanout cell pin

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

std::string trace_line(const std::string& name, const metrics::TimeSeries& trace) {
    std::string text;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%a\n", trace[i]);
        text += buf;
    }
    return stream_line(name, trace.size(), text);
}

/// perfbench's fanout_loop cell: k = 8 fat tree, 400 flows x 50
/// classes, heavy-tail traffic, shifted-log utilities, seed 1.
const scenario::ScenarioSpec& fanoutCell() {
    static const scenario::ScenarioSpec cell = [] {
        scenario::ScenarioOptions options;
        options.topology = "fat_tree";
        options.fat_tree_k = 8;
        options.flows = 400;
        options.classes_per_flow = 50;
        options.traffic = "heavy_tail";
        options.utility = "shifted_log";
        options.seed = 1;
        return scenario::build_scenario(options);
    }();
    return cell;
}

const model::Allocation& fanoutColdSolve() {
    static const model::Allocation solved = [] {
        core::ParallelLrgpEngine engine(fanoutCell().problem, core::LrgpOptions{},
                                        core::EngineConfig{.threads = 1});
        engine.runUntilConverged(4000);
        return engine.allocation();
    }();
    return solved;
}

/// The cold solve enacted, then 200 quanta (10 s at 50 ms) through a
/// schedule that moves every gate state the fastpath keeps: an enact
/// that thins populations and overdrives every fourth flow 2.5x (links
/// queue and carry waits), one flow off and back on, and a squeeze of
/// eight nodes to a fifth of their capacity (queues, drops, deficits,
/// debt) and its restore.  Returns the statsJson and both utility
/// traces as sizes and FNV-1a hashes.
std::string fanoutPinText(int workers) {
    const model::ProblemSpec& spec = fanoutCell().problem;
    const model::Allocation& solved = fanoutColdSolve();
    model::Allocation moved = solved;
    for (std::size_t i = 0; i < moved.rates.size(); i += 4) moved.rates[i] *= 2.5;
    for (std::size_t j = 0; j < moved.populations.size(); ++j) {
        if (j % 3 == 0) moved.populations[j] /= 2;
        if (j % 7 == 0) moved.populations[j] = 0;
    }

    fastpath::FastpathOptions options;
    options.workers = workers;
    fastpath::Fastpath fp(spec, options);
    fp.notePlanned(solved);
    fp.enact(solved);
    fp.runUntil(2.0);
    fp.notePlanned(moved);
    fp.enact(moved);
    fp.runUntil(4.0);
    fp.setFlowActive(model::FlowId{5}, false);
    fp.runUntil(5.0);
    fp.setFlowActive(model::FlowId{5}, true);
    fp.runUntil(6.0);
    for (std::uint32_t b = 0; b < 8; ++b) {
        const model::NodeId node{b * 5};
        fp.setNodeCapacity(node, spec.node(node).capacity * 0.2);
    }
    fp.runUntil(8.0);
    for (std::uint32_t b = 0; b < 8; ++b) {
        const model::NodeId node{b * 5};
        fp.setNodeCapacity(node, spec.node(node).capacity);
    }
    fp.notePlanned(solved);
    fp.enact(solved);
    fp.runUntil(10.0);

    const std::string json = fp.statsJson(false);
    return stream_line("stats_json", json.size(), json) +
           trace_line("achieved_trace", fp.achievedUtilityTrace()) +
           trace_line("planned_trace", fp.plannedUtilityTrace());
}

TEST(FastpathGolden, FanoutCellPin) {
    const std::string text = fanoutPinText(1);
    check_golden("fastpath_fanout_pin", text);
    EXPECT_EQ(fanoutPinText(4), text) << "workers=4";
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
