// Golden fixtures for the two pinned scenario cells: problem JSON,
// scenario manifest, and the lrgp_scenario_* Prometheus exposition
// produced by export_observability after a deterministic replay.  Each
// artifact is compared byte-exact against tests/golden/<name>.golden.
//
// To regenerate after an intentional change:
//   ./lrgp_scenario_golden_tests --update-golden   (or LRGP_UPDATE_GOLDEN=1)
// then review the fixture diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "io/problem_json.hpp"
#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

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

// The pinned cells: the static differential cell and the dynamic churn
// cell — the same pair ScenarioOverdrive.DataplaneRunIsDeterministic
// rebuilds and replays twice.
constexpr const char* kStaticCell = "fat_tree_heavy_tail_shifted_log";
constexpr const char* kChurnCell = "small_world_churn_sigmoid";

TEST(ScenarioGolden, StaticCellProblemJson) {
    const auto spec = scenario::build_scenario(scenario::find_scenario(kStaticCell));
    check_golden("scenario_fat_tree_problem_json", io::problem_to_json_string(spec.problem));
}

TEST(ScenarioGolden, StaticCellManifest) {
    const auto spec = scenario::build_scenario(scenario::find_scenario(kStaticCell));
    check_golden("scenario_fat_tree_manifest", spec.manifestString());
}

TEST(ScenarioGolden, ChurnCellProblemJson) {
    const auto spec = scenario::build_scenario(scenario::find_scenario(kChurnCell));
    check_golden("scenario_small_world_problem_json", io::problem_to_json_string(spec.problem));
}

TEST(ScenarioGolden, ChurnCellManifest) {
    const auto spec = scenario::build_scenario(scenario::find_scenario(kChurnCell));
    check_golden("scenario_small_world_manifest", spec.manifestString());
}

TEST(ScenarioGolden, StaticCellPrometheusText) {
    // Replay the static cell and export the instrument bundle.  Every
    // exported value derives from the bitwise-deterministic replay, so
    // the exposition text is byte-stable across runs and machines.
    const auto spec = scenario::build_scenario(scenario::find_scenario(kStaticCell));
    const auto report = scenario::run_scenario(spec, {});
    obs::Registry reg;
    scenario::export_observability(spec, report, reg);
    check_golden("scenario_fat_tree_prometheus", reg.prometheusText());
}

TEST(ScenarioGolden, ChurnCellPrometheusText) {
    const auto spec = scenario::build_scenario(scenario::find_scenario(kChurnCell));
    const auto report = scenario::run_scenario(spec, {});
    obs::Registry reg;
    scenario::export_observability(spec, report, reg);
    check_golden("scenario_small_world_prometheus", reg.prometheusText());
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
