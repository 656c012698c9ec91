// Warm-state snapshot property tests (lrgp/snapshot.hpp): an engine
// restored from a serialized snapshot must continue the interrupted
// trajectory bitwise-identically to an uninterrupted run — across many
// random workloads, with dynamic workload changes both before the
// snapshot and after the restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "lrgp/parallel_engine.hpp"
#include "lrgp/snapshot.hpp"
#include "workload/random_workload.hpp"

namespace {

using namespace lrgp;
using workload::make_random_workload;
using workload::RandomWorkloadOptions;

/// The same mid-flight dynamic ops, applied to reference and donor alike.
void apply_midflight_ops(core::ParallelLrgpEngine& engine, const model::ProblemSpec& spec) {
    const model::NodeId node{0};
    engine.setNodeCapacity(node, spec.nodes()[0].capacity * 0.8);
    if (spec.flowCount() > 1)
        engine.removeFlow(model::FlowId{static_cast<std::uint32_t>(spec.flowCount() - 1)});
}

void apply_postrestore_ops(core::ParallelLrgpEngine& engine, const model::ProblemSpec& spec) {
    if (spec.flowCount() > 1)
        engine.restoreFlow(model::FlowId{static_cast<std::uint32_t>(spec.flowCount() - 1)});
    if (spec.nodeCount() > 1)
        engine.setNodeCapacity(model::NodeId{1}, spec.nodes()[1].capacity * 1.1);
}

TEST(SnapshotRoundTrip, BitwiseIdenticalResumeAcrossTwentySeeds) {
    for (std::uint32_t seed = 1; seed <= 20; ++seed) {
        RandomWorkloadOptions options;
        options.seed = seed;
        const model::ProblemSpec spec = make_random_workload(options);

        // Reference: one uninterrupted run with dynamic ops mid-flight.
        core::ParallelLrgpEngine reference(spec, {}, {.threads = 1});
        // Donor: identical run, interrupted by a snapshot at iteration 40.
        core::ParallelLrgpEngine donor(spec, {}, {.threads = 1});

        for (int i = 0; i < 15; ++i) {
            reference.step();
            donor.step();
        }
        apply_midflight_ops(reference, spec);
        apply_midflight_ops(donor, spec);
        for (int i = 0; i < 25; ++i) {
            reference.step();
            donor.step();
        }

        // Serialize -> bytes -> deserialize -> restore into a FRESH
        // engine built from the pristine spec (the crash-recovery path:
        // the dynamic ops must come back from the snapshot, not the spec).
        const std::string bytes = donor.snapshot().serialize();
        core::ParallelLrgpEngine restored(spec, {}, {.threads = 1});
        restored.restore(core::EngineSnapshot::deserialize(bytes));
        ASSERT_EQ(restored.iterationsRun(), reference.iterationsRun()) << "seed " << seed;

        // The continuation must be bitwise-identical, step by step.
        for (int i = 0; i < 20; ++i) {
            const double expected = reference.step().utility;
            const double actual = restored.step().utility;
            ASSERT_EQ(expected, actual) << "seed " << seed << " step " << i;
        }
        // Dynamic ops after the restore stay in lockstep too.
        apply_postrestore_ops(reference, spec);
        apply_postrestore_ops(restored, spec);
        for (int i = 0; i < 10; ++i)
            ASSERT_EQ(reference.step().utility, restored.step().utility)
                << "seed " << seed << " post-op step " << i;

        const auto& expected_prices = reference.prices();
        const auto& actual_prices = restored.prices();
        for (std::size_t b = 0; b < expected_prices.node.size(); ++b)
            ASSERT_EQ(expected_prices.node[b], actual_prices.node[b]) << "seed " << seed;
        for (std::size_t l = 0; l < expected_prices.link.size(); ++l)
            ASSERT_EQ(expected_prices.link[l], actual_prices.link[l]) << "seed " << seed;

        // runUntilConverged parity: same convergence iteration, same
        // final utility, bit for bit.
        const auto expected_conv = reference.runUntilConverged(400);
        const auto actual_conv = restored.runUntilConverged(400);
        EXPECT_EQ(expected_conv, actual_conv) << "seed " << seed;
        EXPECT_EQ(reference.currentUtility(), restored.currentUtility()) << "seed " << seed;
    }
}

TEST(SnapshotRoundTrip, RejectsShapeMismatch) {
    RandomWorkloadOptions a_options, b_options;
    a_options.seed = 3;
    a_options.min_flows = 2;
    a_options.max_flows = 2;
    b_options.seed = 4;
    b_options.min_flows = 5;
    b_options.max_flows = 5;
    const auto a_spec = make_random_workload(a_options);
    const auto b_spec = make_random_workload(b_options);
    core::ParallelLrgpEngine a(a_spec, {}, {.threads = 1});
    core::ParallelLrgpEngine b(b_spec, {}, {.threads = 1});
    a.run(5);
    EXPECT_THROW(b.restore(a.snapshot()), std::invalid_argument);
}

TEST(SnapshotRoundTrip, DeserializeRejectsCorruptedBytes) {
    RandomWorkloadOptions options;
    options.seed = 9;
    const auto spec = make_random_workload(options);
    core::ParallelLrgpEngine engine(spec, {}, {.threads = 1});
    engine.run(5);
    std::string bytes = engine.snapshot().serialize();
    EXPECT_THROW(core::EngineSnapshot::deserialize(bytes.substr(0, bytes.size() / 2)),
                 std::invalid_argument);
    bytes[0] ^= 0x5A;  // break the magic
    EXPECT_THROW(core::EngineSnapshot::deserialize(bytes), std::invalid_argument);
}

}  // namespace
