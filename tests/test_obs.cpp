#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dist/dist_lrgp.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "obs/instruments.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "shard/sharded_engine.hpp"
#include "test_helpers.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;

TEST(ObsRegistry, CounterRegisterOrReturn) {
    obs::Registry reg;
    obs::Counter& a = reg.counter("events_total", "help");
    obs::Counter& b = reg.counter("events_total");
    EXPECT_EQ(&a, &b);  // same (name, labels) -> same instrument
    a.add(3);
    b.add(2);
    EXPECT_EQ(reg.counterValue("events_total"), 5u);
    EXPECT_EQ(reg.size(), 1u);

    // Different labels are a different series.
    obs::Counter& c = reg.counter("events_total", "", {{"kind", "x"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.counterValue("events_total", {{"kind", "x"}}), 0u);
}

TEST(ObsRegistry, FindDoesNotRegister) {
    obs::Registry reg;
    EXPECT_EQ(reg.findCounter("nope"), nullptr);
    EXPECT_EQ(reg.findGauge("nope"), nullptr);
    EXPECT_EQ(reg.findHistogram("nope"), nullptr);
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.counterValue("nope"), 0u);

    reg.gauge("level").set(2.5);
    ASSERT_NE(reg.findGauge("level"), nullptr);
    EXPECT_DOUBLE_EQ(reg.findGauge("level")->value(), 2.5);
}

TEST(ObsRegistry, InvalidMetricNamesThrow) {
    obs::Registry reg;
    EXPECT_THROW(reg.counter("1starts_with_digit"), std::invalid_argument);
    EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
    EXPECT_THROW(reg.counter(""), std::invalid_argument);
    EXPECT_NO_THROW(reg.counter("ok_name:with_colon_0"));
}

TEST(ObsRegistry, HistogramBucketsAndReregistration) {
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("latency_seconds", {0.1, 1.0, 10.0});
    h.observe(0.05);   // bucket 0
    h.observe(0.5);    // bucket 1
    h.observe(0.5);    // bucket 1
    h.observe(100.0);  // +Inf bucket
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);  // +Inf
    EXPECT_EQ(h.count(), 4u);
    EXPECT_NEAR(h.sum(), 101.05, 1e-12);

    // Re-registration returns the same histogram; different bounds throw.
    EXPECT_EQ(&reg.histogram("latency_seconds", {0.1, 1.0, 10.0}), &h);
    EXPECT_THROW(reg.histogram("latency_seconds", {1.0, 2.0}), std::invalid_argument);
}

TEST(ObsRegistry, PrometheusTextShape) {
    obs::Registry reg;
    reg.counter("msgs_total", "messages", {{"kind", "rate"}}).add(7);
    reg.counter("msgs_total", "messages", {{"kind", "report"}}).add(1);
    reg.gauge("utility", "objective").set(3.5);
    reg.histogram("t_seconds", {0.5, 2.0}, "timing").observe(1.0);

    const std::string text = reg.prometheusText();
    // One HELP/TYPE pair per family even with two series.
    EXPECT_EQ(text.find("# HELP msgs_total messages\n"),
              text.rfind("# HELP msgs_total messages\n"));
    EXPECT_NE(text.find("# TYPE msgs_total counter"), std::string::npos);
    EXPECT_NE(text.find("msgs_total{kind=\"rate\"} 7"), std::string::npos);
    EXPECT_NE(text.find("msgs_total{kind=\"report\"} 1"), std::string::npos);
    EXPECT_NE(text.find("# TYPE utility gauge"), std::string::npos);
    EXPECT_NE(text.find("utility 3.5"), std::string::npos);
    // Histogram renders cumulative buckets plus +Inf, sum and count.
    EXPECT_NE(text.find("t_seconds_bucket{le=\"0.5\"} 0"), std::string::npos);
    EXPECT_NE(text.find("t_seconds_bucket{le=\"2\"} 1"), std::string::npos);
    EXPECT_NE(text.find("t_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
    EXPECT_NE(text.find("t_seconds_sum 1"), std::string::npos);
    EXPECT_NE(text.find("t_seconds_count 1"), std::string::npos);
}

TEST(ObsTracer, SamplingGateAndBounds) {
    obs::TracerOptions opt;
    opt.sample_every = 3;
    opt.max_events = 4;
    obs::IterationTracer tracer(opt);

    // Iteration 1 is always sampled (so short runs still trace), then
    // every 3rd iteration.
    tracer.beginIteration(1);
    EXPECT_TRUE(tracer.sampling());
    tracer.complete("it1", "t", 0, 0.0, 1.0);
    tracer.beginIteration(2);
    EXPECT_FALSE(tracer.sampling());
    tracer.complete("it2", "t", 0, 1.0, 1.0);  // discarded, not even counted
    tracer.beginIteration(3);
    EXPECT_TRUE(tracer.sampling());
    tracer.instant("it3", "t", 0, 2.0);
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].name, "it1");
    EXPECT_EQ(tracer.events()[1].name, "it3");
    EXPECT_EQ(tracer.droppedEvents(), 0u);

    // The capacity gate counts (not stores) the overflow.
    tracer.counterSample("c", 0, 3.0, 1.0);
    tracer.counterSample("c", 0, 4.0, 2.0);
    tracer.counterSample("c", 0, 5.0, 3.0);
    EXPECT_EQ(tracer.events().size(), 4u);
    EXPECT_EQ(tracer.droppedEvents(), 1u);
}

TEST(ObsTracer, ChromeTraceJsonShape) {
    obs::IterationTracer tracer;
    tracer.complete("phase", "lrgp", 2, 10.0, 5.5, {{"iteration", 3.0}});
    tracer.instant("crash", "dist", 1, 20.0, {{"kind", std::string("node")}});
    tracer.counterSample("utility", 0, 30.0, 42.0);

    const std::string json = tracer.chromeTraceText();
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("{\"name\":\"phase\",\"cat\":\"lrgp\",\"ph\":\"X\",\"pid\":1,"
                        "\"tid\":2,\"ts\":10,\"dur\":5.5,\"args\":{\"iteration\":3}}"),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"kind\":\"node\"}"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":42}"), std::string::npos);
}

TEST(ObsIntegration, SerialOptimizerCountsIterations) {
    const auto spec = workload::make_base_workload();
    core::LrgpOptimizer optimizer(spec);
    obs::Registry reg;
    obs::IterationTracer tracer;
    optimizer.attachObservability(&reg, &tracer);
    const auto& record = optimizer.run(10);

    EXPECT_EQ(reg.counterValue("lrgp_iterations_total"), 10u);
    EXPECT_GE(reg.counterValue("lrgp_rate_solves_total"), 10u * spec.flowCount());
    ASSERT_NE(reg.findGauge("lrgp_utility"), nullptr);
    EXPECT_EQ(reg.findGauge("lrgp_utility")->value(), record.utility);
    ASSERT_NE(reg.findHistogram("lrgp_iteration_seconds"), nullptr);
    EXPECT_EQ(reg.findHistogram("lrgp_iteration_seconds")->count(), 10u);
    // Method-breakdown counters add up to the total.
    const std::uint64_t by_method =
        reg.counterValue("rate_solves_by_method_total", {{"method", "closed_form"}}) +
        reg.counterValue("rate_solves_by_method_total", {{"method", "numeric"}}) +
        reg.counterValue("rate_solves_by_method_total", {{"method", "bound"}});
    EXPECT_EQ(by_method, reg.counterValue("lrgp_rate_solves_total"));

    // Per-iteration spans made it into the trace.
    std::size_t iteration_spans = 0;
    for (const auto& e : tracer.events())
        if (e.name == "iteration" && e.ph == 'X') ++iteration_spans;
    EXPECT_EQ(iteration_spans, 10u);

    // Detaching stops collection.
    optimizer.attachObservability(nullptr, nullptr);
    optimizer.step();
    EXPECT_EQ(reg.counterValue("lrgp_iterations_total"), 10u);
}

TEST(ObsIntegration, ParallelEngineStaysBitwiseWithObsAttached) {
    // Attaching is the only gate between the instruments and the
    // numerics: every engine, watched by a registry and a tracer across a
    // removeFlow and then detached mid-run, must step bitwise like the
    // same engine never attached.
    const auto spec = workload::make_base_workload();
    constexpr int kAttachedSteps = 20;
    const std::pair<std::string, int> engines[] = {
        {"serial", 1}, {"incremental", 1}, {"sharded", 1}, {"sharded", 4}};
    for (const auto& [name, shards] : engines) {
        SCOPED_TRACE(name + " x" + std::to_string(shards));
        const auto plain = shard::make_engine(name, spec, {}, 3, shards);
        const auto watched = shard::make_engine(name, spec, {}, 3, shards);
        obs::Registry reg;
        obs::IterationTracer tracer;
        watched->attachObservability(&reg, &tracer);
        for (int i = 0; i < 30; ++i) {
            if (i == 10) {
                plain->removeFlow(model::FlowId{0});
                watched->removeFlow(model::FlowId{0});
            }
            if (i == kAttachedSteps) watched->attachObservability(nullptr, nullptr);
            const auto& a = plain->step();
            const auto& b = watched->step();
            ASSERT_EQ(a.utility, b.utility) << "iter " << i;
            ASSERT_EQ(a.allocation.rates, b.allocation.rates) << "iter " << i;
            ASSERT_EQ(a.allocation.populations, b.allocation.populations) << "iter " << i;
            ASSERT_EQ(a.prices.node, b.prices.node) << "iter " << i;
            ASSERT_EQ(a.prices.link, b.prices.link) << "iter " << i;
        }
        // The instruments saw exactly the attached steps.
        const char* steps = name == "sharded" ? "lrgp_shard_steps_total" : "lrgp_iterations_total";
        EXPECT_EQ(reg.counterValue(steps), static_cast<std::uint64_t>(kAttachedSteps));
        EXPECT_FALSE(tracer.events().empty());
        if (name == "incremental") {
            EXPECT_GE(reg.counterValue("lrgp_pool_jobs_total"), 1u);
            const obs::Histogram* fanout = reg.findHistogram("lrgp_pool_fanout_chunks");
            ASSERT_NE(fanout, nullptr);
            EXPECT_EQ(fanout->count(), reg.counterValue("lrgp_pool_jobs_total"));
        }
    }
}

TEST(ObsIntegration, DistLrgpCountsMessagesAndRounds) {
    const auto spec = workload::make_base_workload();
    dist::DistLrgp driver(spec, dist::DistOptions{});
    obs::Registry reg;
    obs::IterationTracer tracer;
    driver.attachObservability(&reg, &tracer);
    driver.runRounds(5);

    const std::uint64_t sent =
        reg.counterValue("dist_messages_sent_total", {{"kind", "rate"}}) +
        reg.counterValue("dist_messages_sent_total", {{"kind", "node_report"}}) +
        reg.counterValue("dist_messages_sent_total", {{"kind", "link_report"}});
    EXPECT_EQ(sent, driver.messagesSent());
    // runRounds stops as soon as the target round completes at every
    // node; the tail of that round's reports may still be in flight, so
    // delivered trails sent by at most one round's worth of messages.
    const std::uint64_t delivered = reg.counterValue("dist_messages_delivered_total");
    EXPECT_LE(delivered, driver.messagesSent());
    EXPECT_GE(delivered, driver.messagesSent() - driver.messagesSent() / 5);
    EXPECT_EQ(reg.counterValue("dist_rounds_completed_total"),
              static_cast<std::uint64_t>(driver.completedRounds()));
    ASSERT_NE(reg.findGauge("dist_utility"), nullptr);
    EXPECT_EQ(reg.findGauge("dist_utility")->value(), driver.currentUtility());

    // Tracer timestamps are simulated time: strictly within the run.
    for (const auto& e : tracer.events()) {
        EXPECT_GE(e.ts_us, 0.0);
        EXPECT_LE(e.ts_us, driver.now() * 1e6 + 1e-6);
    }
}

}  // namespace
