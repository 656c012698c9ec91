// Both traffic plants reject an allocation, an offered rate or a
// capacity they cannot run, before any state changes.
//
// Each case runs a plant on the base workload through one script
// (enact, run, a rejected call, run on) and requires the call to throw
// std::invalid_argument and the final statsJson to equal, byte for
// byte, that of the same script without the call.  Without the checks
// an infinite enacted or offered rate would make runUntil() spin
// forever (a source's next arrival is 1/rate = 0 seconds away), so this
// suite carries a short ctest timeout.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "dataplane/dataplane.hpp"
#include "fastpath/fastpath.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

const model::ProblemSpec& baseSpec() {
    static const model::ProblemSpec spec = workload::make_base_workload();
    return spec;
}

/// Every rate at 40% of its range, every class at n^max.
model::Allocation runnable() {
    const model::ProblemSpec& spec = baseSpec();
    model::Allocation alloc = model::Allocation::minimal(spec);
    for (std::size_t i = 0; i < alloc.rates.size(); ++i) {
        const model::FlowSpec& flow = spec.flows()[i];
        alloc.rates[i] = flow.rate_min + 0.4 * (flow.rate_max - flow.rate_min);
    }
    for (std::size_t j = 0; j < alloc.populations.size(); ++j) {
        alloc.populations[j] = spec.classes()[j].max_consumers;
    }
    return alloc;
}

/// runnable() with every rate doubled and one flow's rate (or one
/// class's population) replaced: the earlier flows' new rates would show
/// in the stats if the plant applied them before it rejected the last.
model::Allocation withRate(double rate) {
    model::Allocation alloc = runnable();
    for (double& r : alloc.rates) r *= 2.0;
    alloc.rates.back() = rate;
    return alloc;
}

model::Allocation withPopulation(int population) {
    model::Allocation alloc = runnable();
    for (double& r : alloc.rates) r *= 2.0;
    alloc.populations.back() = population;
    return alloc;
}

/// The script, with `rejected` (if set) tried at t = 2 s: it must throw
/// std::invalid_argument.  Returns the statsJson at t = 5 s.
template <class Plant>
std::string script(const std::function<void(Plant&)>& rejected) {
    Plant plant(baseSpec());
    plant.notePlanned(runnable());
    plant.enact(runnable());
    plant.runUntil(2.0);
    if (rejected) EXPECT_THROW(rejected(plant), std::invalid_argument);
    plant.runUntil(5.0);
    return plant.statsJson();
}

template <class Plant>
void expectRejectedAndHarmless(const std::function<void(Plant&)>& rejected) {
    EXPECT_EQ(script<Plant>(rejected), script<Plant>({}));
}

template <class Plant>
class PlantInput : public ::testing::Test {};

using Plants = ::testing::Types<dataplane::Dataplane, fastpath::Fastpath>;
TYPED_TEST_SUITE(PlantInput, Plants);

TYPED_TEST(PlantInput, InfiniteRateIsRejected) {
    expectRejectedAndHarmless<TypeParam>([](TypeParam& p) { p.enact(withRate(kInf)); });
}

TYPED_TEST(PlantInput, NaNRateIsRejected) {
    expectRejectedAndHarmless<TypeParam>([](TypeParam& p) { p.enact(withRate(kNaN)); });
}

TYPED_TEST(PlantInput, NegativeRateIsRejectedBeforeAnyRateChanges) {
    expectRejectedAndHarmless<TypeParam>([](TypeParam& p) { p.enact(withRate(-1.0)); });
}

TYPED_TEST(PlantInput, NegativePopulationIsRejected) {
    expectRejectedAndHarmless<TypeParam>([](TypeParam& p) { p.enact(withPopulation(-5)); });
}

TYPED_TEST(PlantInput, MisSizedAllocationIsRejected) {
    expectRejectedAndHarmless<TypeParam>([](TypeParam& p) {
        model::Allocation alloc = runnable();
        alloc.populations.pop_back();
        p.enact(alloc);
    });
}

TYPED_TEST(PlantInput, NotePlannedChecksAsEnactDoes) {
    // A NaN planned rate would make statsJson throw on the NaN planned
    // utility.
    for (const double rate : {kNaN, kInf, -1.0}) {
        expectRejectedAndHarmless<TypeParam>(
            [rate](TypeParam& p) { p.notePlanned(withRate(rate)); });
    }
    expectRejectedAndHarmless<TypeParam>([](TypeParam& p) { p.notePlanned(withPopulation(-5)); });
}

TYPED_TEST(PlantInput, OfferedRateMustBeFinite) {
    // At +inf runUntil would spin: the next arrival is 0 s away.
    for (const double rate : {kInf, kNaN}) {
        expectRejectedAndHarmless<TypeParam>(
            [rate](TypeParam& p) { p.setOfferedRate(model::FlowId{0}, rate); });
    }
}

TYPED_TEST(PlantInput, NodeCapacityMustBeFiniteAndPositive) {
    const model::NodeId node{1};
    for (const double capacity : {0.0, -3.0, kNaN, kInf}) {
        expectRejectedAndHarmless<TypeParam>(
            [node, capacity](TypeParam& p) { p.setNodeCapacity(node, capacity); });
    }
}

TYPED_TEST(PlantInput, ZeroRateAndZeroPopulationStillRun) {
    // The check's edges are allowed: a stopped flow and an empty class.
    TypeParam plant(baseSpec());
    model::Allocation alloc = runnable();
    alloc.rates.front() = 0.0;
    alloc.populations.front() = 0;
    plant.enact(alloc);
    plant.runUntil(3.0);
    EXPECT_EQ(plant.collectStats().flows.front().emitted, 0u);
    EXPECT_GT(plant.collectStats().total_delivered, 0u);
}

}  // namespace
