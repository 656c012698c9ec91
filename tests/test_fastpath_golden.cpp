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
//
// Because both engines are bitwise deterministic (and the fastpath
// across worker counts), the text is stable across runs, machines, and
// thread pools.
//
// To regenerate after an intentional change:
//   ./lrgp_fastpath_golden_tests --update-golden   (or LRGP_UPDATE_GOLDEN=1)
// then review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "dataplane/dataplane.hpp"
#include "fastpath/fastpath.hpp"
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

}  // namespace

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--update-golden") g_update_golden = true;
    if (const char* env = std::getenv("LRGP_UPDATE_GOLDEN"); env != nullptr && *env != '\0')
        g_update_golden = true;
    return RUN_ALL_TESTS();
}
