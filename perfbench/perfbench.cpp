// Closed-loop end-to-end benchmark of the LRGP stack.
//
// One seeded, single-threaded workload per invocation runs through the
// public APIs of every layer of the control loop
//
//   workload / scenario -> lrgp compile + engine -> shard -> enactment -> fastpath
//
// and prints a JSON document with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run), the round-composition record,
// the determinism fingerprint and the correctness gate.  perfbench/run.py
// builds this binary and turns the document into the benchmark's result
// line; perfbench/METRICS.md is the metric catalogue.
//
//   lrgp_perfbench --workload paper_churn|federated_local|fanout_loop
//                  --seed N --rounds R [--trace 0|1] [--trace-out FILE]
//
// A round is one seeded dynamic op followed by reconvergence (paper_churn,
// federated_local) or by one enactment period of control ticks
// (fanout_loop).  The seed picks which entities an op touches; the
// problem, the op mix and the round count never depend on it.
//
// The traced run builds two identical copies of the loop: the untraced
// copy and one that records a span around every call into a layer.  Their
// rounds interleave in blocks, so trace.overhead_ratio compares rounds
// run under the same host conditions, and the two copies must agree on
// every count and on the final utility bit for bit.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fastpath/fastpath.hpp"
#include "io/json.hpp"
#include "lrgp/compiled_problem.hpp"
#include "lrgp/enactment.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "model/analysis.hpp"
#include "obs/tracer.hpp"
#include "scenario/scenario.hpp"
#include "shard/partitioner.hpp"
#include "shard/sharded_engine.hpp"
#include "workload/federated.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace lrgp;
using scenario::DynamicOp;
using scenario::OpKind;

// Iterations a round may take to reconverge before it counts as failed.
constexpr int kRoundIterationCap = 500;
// Iteration cap of the cold solve, the final solve and the oracle.
constexpr int kSolveIterationCap = 4000;
// Set-ups per process; setup_s is their median (the first one in a
// process runs 15-20% slower than the rest).
constexpr int kSetups = 9;
// Traced runs alternate blocks of this many rounds between the copies.
constexpr int kTraceBlock = 8;

// Correctness bands, stated in METRICS.md.
constexpr double kUtilityVsBestLow = 0.98;
constexpr double kUtilityVsBestHigh = 1.02;
constexpr double kAchievedVsPlannedFloor = 0.9;
// fanout_loop: dropped / emitted messages of the timed rounds.  Every
// dropped message also counts as a failed operation.
constexpr double kMaxDropShare = 0.01;
constexpr double kCapacitySlack = 1e-9;

// ------------------------------------------------------------------ clocks

std::int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Process CPU time; every workload is single-threaded, so this is the
/// round's cost on an otherwise idle core.
double cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile: the smallest value with at least q of the
/// samples at or below it.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::size_t quantile_index(const std::vector<double>& v, double q) {
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return std::clamp<std::size_t>(rank, 1, v.size()) - 1;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ spans

/// In-memory span recorder.  Disabled, each call is a single branch; the
/// untraced copy of a loop runs with a disabled recorder.  Spans nest on
/// one thread, so a span's children are exactly the spans opened while
/// it is the innermost open one, and its self time is its duration minus
/// theirs.
class Spans {
public:
    struct Span {
        const char* name = "";
        std::int64_t begin_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t child_ns = 0;
        double cpu_ms = -1.0;  ///< process CPU time; < 0 when not recorded
        int parent = -1;
        int round = -1;  ///< timed round id; -1 outside the timed rounds

        [[nodiscard]] double durationMs() const {
            return static_cast<double>(end_ns - begin_ns) * 1e-6;
        }
        [[nodiscard]] double selfMs() const {
            return static_cast<double>(end_ns - begin_ns - child_ns) * 1e-6;
        }
    };

    explicit Spans(bool enabled) : enabled_(enabled), origin_ns_(wall_ns()) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    void setRound(int round) noexcept { round_ = round; }

    int open(const char* name, bool with_cpu) {
        if (!enabled_) return -1;
        const int id = static_cast<int>(spans_.size());
        Span& s = spans_.emplace_back();
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.round = round_;
        stack_.push_back(id);
        if (with_cpu) s.cpu_ms = cpu_ms();
        s.begin_ns = wall_ns();
        return id;
    }

    void close(int id) {
        if (id < 0) return;
        const std::int64_t end = wall_ns();
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.end_ns = end;
        if (s.cpu_ms >= 0.0) s.cpu_ms = cpu_ms() - s.cpu_ms;
        stack_.pop_back();
        if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += end - s.begin_ns;
    }

    /// Spans called `name`; `timed` keeps only those inside timed rounds.
    [[nodiscard]] std::vector<const Span*> named(std::string_view name, bool timed) const {
        std::vector<const Span*> out;
        for (const Span& s : spans_)
            if (name == s.name && (!timed || s.round >= 0)) out.push_back(&s);
        return out;
    }

    /// Chrome trace_event JSON through the repo's tracer, so the file
    /// opens beside the engines' own iteration traces.
    void writeChromeTrace(const std::string& path) const {
        obs::IterationTracer tracer({.sample_every = 1, .max_events = spans_.size() + 1});
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            tracer.complete(s.name, "perfbench", 1,
                            static_cast<double>(s.begin_ns - origin_ns_) * 1e-3,
                            static_cast<double>(s.end_ns - s.begin_ns) * 1e-3,
                            {{"id", static_cast<double>(i)},
                             {"parent", static_cast<double>(s.parent)},
                             {"round", static_cast<double>(s.round)}});
        }
        std::ofstream out(path);
        if (!out) throw std::runtime_error("cannot write trace file " + path);
        tracer.writeChromeTrace(out);
    }

private:
    bool enabled_;
    std::int64_t origin_ns_;
    int round_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// RAII span around one call into a layer.
class Scoped {
public:
    Scoped(Spans& spans, const char* name, bool with_cpu = false)
        : spans_(spans), id_(spans.open(name, with_cpu)) {}
    ~Scoped() { spans_.close(id_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    Spans& spans_;
    int id_;
};

// -------------------------------------------------------- seeded op choice

/// splitmix64: the benchmark's only source of randomness.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

private:
    std::uint64_t state_;
};

/// Whether `op` may be applied to `spec` without the engine throwing.
bool op_legal(const model::ProblemSpec& spec, const DynamicOp& op) {
    switch (op.kind) {
        case OpKind::kRemoveFlow:
            return op.target < spec.flowCount() && spec.flowActive(model::FlowId(op.target));
        case OpKind::kRestoreFlow:
            return op.target < spec.flowCount() && !spec.flowActive(model::FlowId(op.target));
        case OpKind::kSetNodeCapacity:
            return op.target < spec.nodeCount() && std::isfinite(op.value) && op.value > 0.0;
        case OpKind::kSetLinkCapacity:
            return op.target < spec.linkCount() && std::isfinite(op.value) && op.value > 0.0;
        case OpKind::kSetClassMaxConsumers:
            return op.target < spec.classCount() && op.value >= 0.0 &&
                   op.value == std::floor(op.value);
    }
    return false;
}

void apply_op(core::Engine& engine, const DynamicOp& op) {
    switch (op.kind) {
        case OpKind::kSetClassMaxConsumers:
            engine.setClassMaxConsumers(model::ClassId(op.target), static_cast<int>(op.value));
            break;
        case OpKind::kRemoveFlow: engine.removeFlow(model::FlowId(op.target)); break;
        case OpKind::kRestoreFlow: engine.restoreFlow(model::FlowId(op.target)); break;
        case OpKind::kSetNodeCapacity:
            engine.setNodeCapacity(model::NodeId(op.target), op.value);
            break;
        case OpKind::kSetLinkCapacity:
            engine.setLinkCapacity(model::LinkId(op.target), op.value);
            break;
    }
}

/// Generates the seeded op stream of one loop.  Targets and values are
/// drawn from the *initial* problem, so an op never depends on engine
/// state, and both copies of a traced run see the same stream.
class OpSource {
public:
    OpSource(std::uint64_t seed, const model::ProblemSpec& spec) : rng_(seed) {
        for (const model::NodeSpec& n : spec.nodes()) node_capacity_.push_back(n.capacity);
        for (const model::ClassSpec& c : spec.classes()) class_max_.push_back(c.max_consumers);
        flow_count_ = spec.flowCount();
    }

    DynamicOp leave() {
        left_ = static_cast<std::uint32_t>(rng_.below(flow_count_));
        return {0.0, OpKind::kRemoveFlow, left_, 0.0};
    }
    DynamicOp comeBack() const { return {0.0, OpKind::kRestoreFlow, left_, 0.0}; }
    /// Squeezes one of `nodes` to 50-100% of its initial capacity.
    DynamicOp squeeze(const std::vector<std::uint32_t>& nodes) {
        squeezed_ = nodes[rng_.below(nodes.size())];
        return {0.0, OpKind::kSetNodeCapacity, squeezed_,
                node_capacity_[squeezed_] * (0.5 + 0.5 * rng_.uniform())};
    }
    /// Gives the last squeezed node its initial capacity back.
    DynamicOp unsqueeze() const {
        return {0.0, OpKind::kSetNodeCapacity, squeezed_, node_capacity_[squeezed_]};
    }
    /// Sets one class's n^max to 50-150% of its initial value.
    DynamicOp consumers() {
        const auto c = static_cast<std::uint32_t>(rng_.below(class_max_.size()));
        const double value =
            std::max(1.0, std::round(static_cast<double>(class_max_[c]) * (0.5 + rng_.uniform())));
        return {0.0, OpKind::kSetClassMaxConsumers, c, value};
    }

private:
    Rng rng_;
    std::vector<double> node_capacity_;
    std::vector<int> class_max_;
    std::size_t flow_count_ = 0;
    std::uint32_t left_ = 0;
    std::uint32_t squeezed_ = 0;
};

// ------------------------------------------------------------------ loops

/// What one timed round did; the composition fields are read from the
/// layers' public counters outside the timed region.
struct RoundStats {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    int iterations = 0;  ///< engine step() calls (summed over shards when sharded)
    int woken = 0;       ///< sharded: shards that iterated
    int enactments = 0;  ///< fanout: enactments pushed into the fastpath
    int samples = 0;     ///< fanout: achieved-utility samples taken
    bool reconverged = true;
    OpKind op = OpKind::kSetClassMaxConsumers;

    /// The round's kind, by its composition.
    [[nodiscard]] std::string kind() const {
        std::string k = "iters=" + std::to_string(iterations);
        if (woken > 0) k += " woken=" + std::to_string(woken);
        if (enactments > 0 || samples > 0)
            k += " enact=" + std::to_string(enactments) + " samples=" + std::to_string(samples);
        return k;
    }
};

using Metrics = std::map<std::string, double>;

/// One closed loop over one workload.  Construction is one set-up: spec
/// generation plus every layer object, and no iterations.
class Loop {
public:
    explicit Loop(Spans& spans) : spans_(spans) {}
    virtual ~Loop() = default;
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;

    /// Cold solve plus any untimed work that brings the loop to its
    /// steady state before the warm-up rounds.
    virtual void warmUp() = 0;
    /// Untimed rounds after warmUp(): one, or one whole op cycle.
    [[nodiscard]] virtual int warmUpRounds() const { return 1; }
    /// One op plus reconvergence or ticks; indices below warmUpRounds()
    /// are the untimed warm-up rounds.
    virtual RoundStats round(int index) = 0;
    /// Untimed final solve after the timed rounds.
    virtual void finish() = 0;
    /// Marks the start of the timed rounds for counter deltas.
    virtual void markTimed() = 0;
    /// Per-layer counters as deltas over the timed rounds.
    virtual void layerCounters(Metrics& m, int rounds) const = 0;
    /// Workload-level end-to-end extras (fanout: messages, achieved).
    virtual void endToEnd(Metrics& m, double timed_wall_s) const { (void)m, (void)timed_wall_s; }
    /// Failed and attempted units of the timed rounds: rounds, or
    /// messages on fanout_loop.
    virtual std::pair<std::uint64_t, std::uint64_t> failures(
        const std::vector<RoundStats>& rounds) const {
        std::uint64_t failed = 0;
        for (const RoundStats& r : rounds) failed += r.reconverged ? 0 : 1;
        return {failed, rounds.size()};
    }
    /// The problem the loop started from (rebuilt for the oracle).
    virtual model::ProblemSpec initialProblem() const = 0;
    virtual const core::Engine& engine() const = 0;
    /// Determinism fingerprint counts beyond the per-round ones.
    virtual void addFingerprint(io::JsonObject& out) const { (void)out; }

    [[nodiscard]] const std::vector<DynamicOp>& ops() const { return ops_; }
    [[nodiscard]] int illegalOps() const { return illegal_ops_; }

protected:
    /// Applies `op` if legal against the engine's current problem.
    void applyOp(core::Engine& engine, const DynamicOp& op) {
        if (!op_legal(engine.problem(), op)) {
            ++illegal_ops_;
            return;
        }
        Scoped span(spans_, "lrgp.op");
        apply_op(engine, op);
        ops_.push_back(op);
    }

    /// Times one round: opens the round span and reads both clocks.
    class RoundTimer {
    public:
        RoundTimer(Spans& spans, RoundStats& stats)
            : stats_(stats), span_(spans, "round"), cpu0_(cpu_ms()), wall0_(wall_ns()) {}
        ~RoundTimer() {
            stats_.wall_ms = static_cast<double>(wall_ns() - wall0_) * 1e-6;
            stats_.cpu_ms = cpu_ms() - cpu0_;
        }
        RoundTimer(const RoundTimer&) = delete;
        RoundTimer& operator=(const RoundTimer&) = delete;

    private:
        RoundStats& stats_;
        Scoped span_;
        double cpu0_;
        std::int64_t wall0_;
    };

    /// Steps until the detector fires, one span per step(); the same
    /// loop runUntilConverged runs.  Returns whether it converged.
    bool stepUntilConverged(core::Engine& engine, int cap) {
        if (!spans_.enabled()) return engine.runUntilConverged(cap).has_value();
        for (int i = 0; i < cap; ++i) {
            {
                Scoped span(spans_, "lrgp.step", true);
                engine.step();
            }
            if (engine.convergence().converged()) return true;
        }
        return false;
    }

    Spans& spans_;

private:
    std::vector<DynamicOp> ops_;
    int illegal_ops_ = 0;
};

/// Per-layer counters of a monolithic incremental engine.
struct EngineCounters {
    core::IncrementalStats inc;
    core::PhaseTimes phases;
    int iterations = 0;

    static EngineCounters of(const core::ParallelLrgpEngine& e) {
        return {e.incrementalStats(), e.phaseTimes(), e.iterationsRun()};
    }
};

void engine_layer_metrics(Metrics& m, const EngineCounters& a, const EngineCounters& b) {
    const double iters = static_cast<double>(b.iterations - a.iterations);
    const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
    const double dirty_nodes = d(a.inc.dirty_nodes, b.inc.dirty_nodes);
    const double node_hits = d(a.inc.node_cache_hits, b.inc.node_cache_hits);
    const double dirty_flows = d(a.inc.dirty_flows, b.inc.dirty_flows);
    const double skipped = d(a.inc.skipped_solves, b.inc.skipped_solves);
    m["lrgp.dirty_nodes_per_iter"] = ratio(dirty_nodes, iters);
    m["lrgp.node_cache_hit_ratio"] = ratio(node_hits, node_hits + dirty_nodes);
    m["lrgp.rank_cache_hit_ratio"] = ratio(d(a.inc.rank_cache_hits, b.inc.rank_cache_hits), dirty_nodes);
    m["lrgp.skipped_solve_ratio"] = ratio(skipped, skipped + dirty_flows);
    m["lrgp.utility_cache_hit_ratio"] =
        ratio(d(a.inc.utility_cache_hits, b.inc.utility_cache_hits), iters);
    const double phase_iters = d(a.phases.iterations, b.phases.iterations);
    m["lrgp.rate_us"] = ratio(d(a.phases.rate_ns, b.phases.rate_ns) * 1e-3, phase_iters);
    m["lrgp.node_us"] = ratio(d(a.phases.node_ns, b.phases.node_ns) * 1e-3, phase_iters);
    m["lrgp.link_us"] = ratio(d(a.phases.link_ns, b.phases.link_ns) * 1e-3, phase_iters);
    m["lrgp.reduce_us"] = ratio(d(a.phases.reduce_ns, b.phases.reduce_ns) * 1e-3, phase_iters);
}

std::vector<std::uint32_t> class_nodes(const model::ProblemSpec& spec) {
    std::vector<std::uint32_t> out;
    for (const model::NodeSpec& n : spec.nodes())
        if (!spec.classesAtNode(n.id).empty()) out.push_back(n.id.index());
    return out;
}

// -- paper_churn -----------------------------------------------------------

/// The paper's Table 1 workload at 10^5 classes on the monolithic
/// incremental engine: dense rounds where every node re-ranks on every
/// iteration, so the rate and node phases do nearly all the work.
class PaperChurn final : public Loop {
public:
    PaperChurn(Spans& spans, std::uint64_t seed) : Loop(spans) {
        model::ProblemSpec spec;
        {
            Scoped span(spans_, "workload.build");
            spec = workload::make_scaled_workload(options());
        }
        if (spans_.enabled()) {
            Scoped span(spans_, "lrgp.compile");
            const core::CompiledProblem compiled(spec);
        }
        source_ = std::make_unique<OpSource>(seed, spec);
        cnodes_ = class_nodes(spec);
        Scoped span(spans_, "lrgp.engine_ctor");
        engine_ = std::make_unique<core::ParallelLrgpEngine>(
            std::move(spec), core::LrgpOptions{},
            core::EngineConfig{.threads = 1,
                               .collect_phase_times = spans_.enabled(),
                               .incremental = true});
    }

    void warmUp() override {
        Scoped span(spans_, "lrgp.cold_solve");
        engine_->runUntilConverged(kSolveIterationCap);
    }
    /// The first squeeze and flow return after the cold solve take ~26
    /// iterations, later ones 10-16, so a whole op cycle runs untimed.
    [[nodiscard]] int warmUpRounds() const override { return 6; }

    RoundStats round(int index) override {
        RoundStats st;
        const int iters0 = engine_->iterationsRun();
        {
            RoundTimer timer(spans_, st);
            const DynamicOp op = nextOp(index);
            st.op = op.kind;
            applyOp(*engine_, op);
            st.reconverged = stepUntilConverged(*engine_, kRoundIterationCap);
        }
        st.iterations = engine_->iterationsRun() - iters0;
        return st;
    }

    void finish() override { engine_->runUntilConverged(kSolveIterationCap); }
    void markTimed() override { timed0_ = EngineCounters::of(*engine_); }
    void layerCounters(Metrics& m, int) const override {
        engine_layer_metrics(m, timed0_, EngineCounters::of(*engine_));
    }
    model::ProblemSpec initialProblem() const override {
        return workload::make_scaled_workload(options());
    }
    const core::Engine& engine() const override { return *engine_; }

private:
    static workload::WorkloadOptions options() {
        workload::WorkloadOptions o;  // F=3, G=19, c_b=9e5: node capacity binds
        o.flow_replicas = 50;
        o.cnode_replicas = 100;
        return o;
    }

    /// Six-round cycle: flow leave, squeeze, n^max, flow return, squeeze,
    /// n^max.  At most one flow is away at a time.
    DynamicOp nextOp(int index) {
        switch (index % 6) {
            case 0: return source_->leave();
            case 3: return source_->comeBack();
            case 1:
            case 4: return source_->squeeze(cnodes_);
            default: return source_->consumers();
        }
    }

    std::unique_ptr<OpSource> source_;
    std::vector<std::uint32_t> cnodes_;
    std::unique_ptr<core::ParallelLrgpEngine> engine_;
    EngineCounters timed0_;
};

// -- federated_local -------------------------------------------------------

/// 40 independent groups at 10^5 classes on the K=4 sharded engine: each
/// round squeezes or restores one c-node, so one shard wakes and one
/// group's nodes go dirty.  Shard gating, merged publication and the
/// incremental caches carry the round.
class FederatedLocal final : public Loop {
public:
    FederatedLocal(Spans& spans, std::uint64_t seed) : Loop(spans) {
        model::ProblemSpec spec;
        {
            Scoped span(spans_, "workload.build");
            spec = workload::make_federated_workload(options());
        }
        if (spans_.enabled()) {
            {
                Scoped span(spans_, "lrgp.compile");
                const core::CompiledProblem compiled(spec);
            }
            Scoped span(spans_, "shard.partition");
            const shard::Partition partition = shard::make_partition(spec, partitionOptions());
        }
        source_ = std::make_unique<OpSource>(seed, spec);
        cnodes_ = class_nodes(spec);
        Scoped span(spans_, "shard.engine_ctor");
        engine_ = std::make_unique<shard::ShardedLrgpEngine>(std::move(spec), core::LrgpOptions{},
                                                             config());
    }

    void warmUp() override {
        {
            Scoped span(spans_, "lrgp.cold_solve");
            engine_->runUntilConverged(kSolveIterationCap);
        }
        // Squeeze and restore one c-node of every group once.  Until a
        // group has been perturbed its flows sit at a bitwise fixpoint;
        // afterwards they keep re-solving whenever their shard wakes, so
        // without this sweep round cost climbs ~50% over the first ~1000
        // rounds instead of starting stationary.
        const model::ProblemSpec& spec = engine_->problem();
        const auto per_group = static_cast<std::size_t>(options().cnodes_per_group);
        for (std::size_t first = 0; first < cnodes_.size(); first += per_group) {
            const model::NodeId b(cnodes_[first]);
            const double capacity = spec.node(b).capacity;
            engine_->setNodeCapacity(b, 0.5 * capacity);
            engine_->runUntilConverged(kRoundIterationCap);
            engine_->setNodeCapacity(b, capacity);
            engine_->runUntilConverged(kRoundIterationCap);
        }
    }

    RoundStats round(int index) override {
        RoundStats st;
        const std::vector<int> members0 = memberIterations();
        {
            RoundTimer timer(spans_, st);
            // Squeeze and restore alternate, so at most one node is away
            // from its initial capacity and the rounds stay stationary.
            const DynamicOp op = index % 2 == 0 ? source_->squeeze(cnodes_) : source_->unsqueeze();
            st.op = op.kind;
            applyOp(*engine_, op);
            Scoped span(spans_, "shard.converge");
            st.reconverged = engine_->runUntilConverged(kRoundIterationCap).has_value();
        }
        const std::vector<int> members1 = memberIterations();
        for (std::size_t s = 0; s < members1.size(); ++s) {
            st.iterations += members1[s] - members0[s];
            st.woken += members1[s] > members0[s] ? 1 : 0;
        }
        return st;
    }

    void finish() override { engine_->runUntilConverged(kSolveIterationCap); }

    void markTimed() override {
        timed_stats_ = engine_->reconcileStats();
        timed_members_ = memberCounters();
    }

    void layerCounters(Metrics& m, int rounds) const override {
        const shard::ReconcileStats& now = engine_->reconcileStats();
        m["shard.budget_updates"] = static_cast<double>(now.budget_updates - timed_stats_.budget_updates);
        m["shard.wakeups"] = static_cast<double>(now.shard_wakeups - timed_stats_.shard_wakeups);
        m["shard.boundary_nodes"] = static_cast<double>(engine_->boundaryNodeCount());
        m["shard.reconcile_passes_per_round"] =
            ratio(static_cast<double>(now.passes - timed_stats_.passes), rounds);
        // Member engines are incremental ParallelLrgpEngines; their
        // summed counters describe the incremental caches under sharding.
        EngineCounters a, b;
        const std::vector<EngineCounters> members = memberCounters();
        for (std::size_t s = 0; s < members.size(); ++s) {
            accumulate(a, timed_members_[s]);
            accumulate(b, members[s]);
        }
        engine_layer_metrics(m, a, b);
        m["shard.member_iters_per_round"] = ratio(b.iterations - a.iterations, rounds);
    }

    model::ProblemSpec initialProblem() const override {
        return workload::make_federated_workload(options());
    }
    const core::Engine& engine() const override { return *engine_; }
    void addFingerprint(io::JsonObject& out) const override {
        out["reconcile_passes"] = static_cast<double>(engine_->reconcileStats().passes);
    }

private:
    static workload::FederatedWorkloadOptions options() {
        workload::FederatedWorkloadOptions o;
        o.groups = 40;
        o.flows_per_group = 10;
        o.cnodes_per_group = 250;
        o.tight_groups = 4;
        return o;
    }
    static shard::PartitionOptions partitionOptions() {
        const shard::ShardedConfig c = config();
        return {.shards = c.shards, .refine_passes = c.refine_passes, .balance_slack = c.balance_slack};
    }
    static shard::ShardedConfig config() {
        shard::ShardedConfig c;
        c.shards = 4;
        c.threads = 1;
        return c;
    }

    std::vector<int> memberIterations() const {
        std::vector<int> out;
        for (int s = 0; s < engine_->shardCount(); ++s)
            out.push_back(engine_->shardEngine(s).iterationsRun());
        return out;
    }
    std::vector<EngineCounters> memberCounters() const {
        std::vector<EngineCounters> out;
        for (int s = 0; s < engine_->shardCount(); ++s)
            out.push_back(EngineCounters::of(
                dynamic_cast<const core::ParallelLrgpEngine&>(engine_->shardEngine(s))));
        return out;
    }
    static void accumulate(EngineCounters& into, const EngineCounters& c) {
        into.inc.dirty_flows += c.inc.dirty_flows;
        into.inc.skipped_solves += c.inc.skipped_solves;
        into.inc.dirty_nodes += c.inc.dirty_nodes;
        into.inc.node_cache_hits += c.inc.node_cache_hits;
        into.inc.rank_cache_hits += c.inc.rank_cache_hits;
        into.inc.dirty_links += c.inc.dirty_links;
        into.inc.utility_cache_hits += c.inc.utility_cache_hits;
        into.iterations += c.iterations;
    }

    std::unique_ptr<OpSource> source_;
    std::vector<std::uint32_t> cnodes_;
    std::unique_ptr<shard::ShardedLrgpEngine> engine_;
    shard::ReconcileStats timed_stats_;
    std::vector<EngineCounters> timed_members_;
};

// -- fanout_loop -----------------------------------------------------------

/// A fat-tree scenario cell driven through enactment into the fastpath,
/// one 50 ms control tick per fastpath quantum.  Between ops the engine is
/// cached, so fastpath gates and enactment diffing carry the round.
class FanoutLoop final : public Loop {
public:
    static constexpr double kTick = 0.05;      ///< seconds; one fastpath quantum
    static constexpr int kTicksPerRound = 20;  ///< one enactment period

    FanoutLoop(Spans& spans, std::uint64_t seed) : Loop(spans) {
        {
            Scoped span(spans_, "scenario.build");
            scenario_ = scenario::build_scenario(options());
        }
        const model::ProblemSpec& spec = scenario_.problem;
        if (spans_.enabled()) {
            Scoped span(spans_, "lrgp.compile");
            const core::CompiledProblem compiled(spec);
        }
        source_ = std::make_unique<OpSource>(seed, spec);
        {
            Scoped span(spans_, "lrgp.engine_ctor");
            engine_ = std::make_unique<core::ParallelLrgpEngine>(
                spec, core::LrgpOptions{},
                core::EngineConfig{.threads = 1,
                                   .collect_phase_times = spans_.enabled(),
                                   .incremental = true});
        }
        {
            Scoped span(spans_, "fastpath.ctor");
            fastpath::FastpathOptions fo;
            fo.seed = 1;
            fo.quantum = kTick;
            fo.workers = 1;
            fastpath_ = std::make_unique<fastpath::Fastpath>(spec, fo);
        }
        // run_scenario's deadbands: 5% rate change, 2 consumers, or 1 s.
        core::EnactmentOptions eo;
        eo.rate_deadband = 0.05;
        eo.population_deadband = 2;
        eo.min_interval = 1.0;
        enactor_ = std::make_unique<core::EnactmentController>(
            eo, [this](const model::Allocation& alloc) {
                Scoped span(spans_, "fastpath.enact");
                fastpath_->enact(alloc);
            });
    }

    void warmUp() override {
        Scoped span(spans_, "lrgp.cold_solve");
        engine_->runUntilConverged(kSolveIterationCap);
    }

    RoundStats round(int index) override {
        RoundStats st;
        const int iters0 = engine_->iterationsRun();
        const std::size_t enact0 = enactor_->enactments();
        const std::size_t samples0 = fastpath_->achievedUtilityTrace().size();
        {
            RoundTimer timer(spans_, st);
            const DynamicOp op = nextOp(index);
            st.op = op.kind;
            applyOp(*engine_, op);
            if (op.kind == OpKind::kRemoveFlow || op.kind == OpKind::kRestoreFlow)
                fastpath_->setFlowActive(model::FlowId(op.target), op.kind == OpKind::kRestoreFlow);
            for (int k = 0; k < kTicksPerRound; ++k) tick();
        }
        st.iterations = engine_->iterationsRun() - iters0;
        st.enactments = static_cast<int>(enactor_->enactments() - enact0);
        st.samples = static_cast<int>(fastpath_->achievedUtilityTrace().size() - samples0);
        return st;
    }

    void finish() override {
        engine_->runUntilConverged(kSolveIterationCap);
        final_stats_ = fastpath_->collectStats();
    }

    void markTimed() override {
        timed_engine_ = EngineCounters::of(*engine_);
        timed_stats_ = fastpath_->collectStats();
        timed_offers_ = enactor_->offers();
        timed_enactments_ = enactor_->enactments();
        timed_suppressions_ = enactor_->suppressions();
        timed_batches_ = fastpath_->batchesProcessed();
        timed_quanta_ = fastpath_->quantaProcessed();
        timed_messages_ = workerMessages();
    }

    void endToEnd(Metrics& m, double timed_wall_s) const override {
        m["delivered_msgs_per_s"] =
            ratio(static_cast<double>(final_stats_.total_delivered - timed_stats_.total_delivered),
                  timed_wall_s);
        m["achieved_vs_planned"] =
            ratio(final_stats_.utility.achieved_cumulative, final_stats_.utility.planned);
    }

    /// Dropped and emitted messages over the timed rounds.  The warm-up
    /// round, where all 400 sources start at once, may drop a few; the
    /// fingerprint's whole-run totals show them.
    std::pair<std::uint64_t, std::uint64_t> failures(const std::vector<RoundStats>&) const override {
        return {dropped(final_stats_) - dropped(timed_stats_),
                final_stats_.total_emitted - timed_stats_.total_emitted};
    }

    void layerCounters(Metrics& m, int rounds) const override {
        engine_layer_metrics(m, timed_engine_, EngineCounters::of(*engine_));
        const double offers = static_cast<double>(enactor_->offers() - timed_offers_);
        m["lrgp.enactments_per_round"] =
            ratio(static_cast<double>(enactor_->enactments() - timed_enactments_), rounds);
        m["lrgp.enact_suppressed_ratio"] =
            ratio(static_cast<double>(enactor_->suppressions() - timed_suppressions_), offers);
        const double batches = static_cast<double>(fastpath_->batchesProcessed() - timed_batches_);
        const double quanta = static_cast<double>(fastpath_->quantaProcessed() - timed_quanta_);
        m["fastpath.batches_per_quantum"] = ratio(batches, quanta);
        m["fastpath.msgs_per_batch"] =
            ratio(static_cast<double>(workerMessages() - timed_messages_), batches);
        m["fastpath.dropped"] = static_cast<double>(dropped(final_stats_) - dropped(timed_stats_));
        std::size_t peak = 0;
        for (const auto& e : final_stats_.links) peak = std::max(peak, e.peak_queue);
        for (const auto& e : final_stats_.nodes) peak = std::max(peak, e.peak_queue);
        m["fastpath.peak_queue"] = static_cast<double>(peak);
    }

    model::ProblemSpec initialProblem() const override { return scenario_.problem; }
    const core::Engine& engine() const override { return *engine_; }

    void addFingerprint(io::JsonObject& out) const override {
        out["delivered"] = static_cast<double>(final_stats_.total_delivered);
        out["dropped"] = static_cast<double>(dropped(final_stats_));
        out["emitted"] = static_cast<double>(final_stats_.total_emitted);
        out["enactments"] = static_cast<double>(enactor_->enactments());
    }

private:
    static scenario::ScenarioOptions options() {
        scenario::ScenarioOptions o;
        o.topology = "fat_tree";
        o.fat_tree_k = 8;
        o.flows = 400;
        o.classes_per_flow = 50;
        o.traffic = "heavy_tail";
        o.utility = "shifted_log";
        o.seed = 1;
        return o;
    }

    /// Four-round cycle: flow leave, n^max, flow return, n^max.
    DynamicOp nextOp(int index) {
        switch (index % 4) {
            case 0: return source_->leave();
            case 2: return source_->comeBack();
            default: return source_->consumers();
        }
    }

    void tick() {
        const double t = static_cast<double>(++ticks_) * kTick;
        const core::IterationRecord* record = nullptr;
        {
            Scoped span(spans_, "lrgp.step", true);
            record = &engine_->step();
        }
        {
            Scoped span(spans_, "fastpath.note_planned");
            fastpath_->notePlanned(record->allocation);
        }
        {
            Scoped span(spans_, "lrgp.enact_offer");
            enactor_->offer(t, record->allocation);
        }
        Scoped span(spans_, "fastpath.run");
        fastpath_->runUntil(t);
    }

    std::uint64_t workerMessages() const {
        std::uint64_t total = 0;
        for (std::uint64_t m : fastpath_->workerMessages()) total += m;
        return total;
    }
    static std::uint64_t dropped(const dataplane::DataplaneStats& s) {
        return s.dropped_link + s.dropped_node;
    }

    scenario::ScenarioSpec scenario_;  // the fastpath keeps a reference to its problem
    std::unique_ptr<OpSource> source_;
    std::unique_ptr<core::ParallelLrgpEngine> engine_;
    std::unique_ptr<fastpath::Fastpath> fastpath_;
    std::unique_ptr<core::EnactmentController> enactor_;
    std::int64_t ticks_ = 0;

    EngineCounters timed_engine_;
    dataplane::DataplaneStats timed_stats_, final_stats_;
    std::size_t timed_offers_ = 0, timed_enactments_ = 0, timed_suppressions_ = 0;
    std::uint64_t timed_batches_ = 0, timed_quanta_ = 0, timed_messages_ = 0;
};

std::unique_ptr<Loop> make_loop(const std::string& workload, Spans& spans, std::uint64_t seed) {
    if (workload == "paper_churn") return std::make_unique<PaperChurn>(spans, seed);
    if (workload == "federated_local") return std::make_unique<FederatedLocal>(spans, seed);
    if (workload == "fanout_loop") return std::make_unique<FanoutLoop>(spans, seed);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

// ------------------------------------------------------------------- main

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    int rounds = 0;
    bool trace = false;
    std::string trace_out;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload") a.workload = value;
        else if (key == "--seed") a.seed = std::stoull(value);
        else if (key == "--rounds") a.rounds = std::stoi(value);
        else if (key == "--trace") a.trace = value == "1";
        else if (key == "--trace-out") a.trace_out = value;
        else throw std::invalid_argument("unknown argument " + key);
    }
    if (a.workload.empty() || a.rounds < 1)
        throw std::invalid_argument("--workload and --rounds >= 1 are required");
    return a;
}

/// Builds kSetups loops, timing each, and keeps the last one.
std::unique_ptr<Loop> set_up(const Args& args, Spans& spans, std::vector<double>& setup_s) {
    std::unique_ptr<Loop> loop;
    for (int i = 0; i < kSetups; ++i) {
        loop.reset();  // one set-up alive at a time
        const std::int64_t t0 = wall_ns();
        loop = make_loop(args.workload, spans, args.seed);
        setup_s.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    }
    return loop;
}

io::JsonValue json_array(const std::vector<double>& v) {
    io::JsonArray a;
    for (double x : v) a.emplace_back(x);
    return a;
}

/// The round-composition record: how many rounds of each kind ran, and
/// the kinds of the rounds that sit at and around the p50 wall rank and
/// the p95 CPU rank.  A percentile is "inside one kind" when every round
/// within +/- max(2, n/100) ranks of it has the same kind; `gap` is the
/// rank distance to the nearest round of another kind (n when none).
io::JsonObject composition(const std::vector<RoundStats>& rounds) {
    std::map<std::string, int> kinds;
    for (const RoundStats& r : rounds) ++kinds[r.kind()];
    io::JsonObject hist;
    for (const auto& [k, n] : kinds) hist[k] = n;

    const auto at_rank = [&](bool cpu, double q) {
        std::vector<std::size_t> order(rounds.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        const auto value = [&](std::size_t i) { return cpu ? rounds[i].cpu_ms : rounds[i].wall_ms; };
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t x, std::size_t y) { return value(x) < value(y); });
        std::vector<double> values;
        for (std::size_t i : order) values.push_back(value(i));
        const std::size_t idx = quantile_index(values, q);
        const std::string kind = rounds[order[idx]].kind();
        std::size_t gap = rounds.size();
        for (std::size_t j = 0; j < order.size(); ++j)
            if (rounds[order[j]].kind() != kind) gap = std::min(gap, j > idx ? j - idx : idx - j);
        io::JsonObject o;
        o["kind"] = kind;
        o["rank"] = static_cast<double>(idx);
        o["gap"] = static_cast<double>(gap);
        o["single_kind"] = gap > std::max<std::size_t>(2, rounds.size() / 100);
        return o;
    };

    const auto summary = [](const std::vector<double>& v) {
        io::JsonObject o;
        o["min"] = *std::min_element(v.begin(), v.end());
        o["p50"] = median(v);
        o["max"] = *std::max_element(v.begin(), v.end());
        return o;
    };
    std::vector<double> iters, woken, enact, samples;
    for (const RoundStats& r : rounds) {
        iters.push_back(r.iterations);
        woken.push_back(r.woken);
        enact.push_back(r.enactments);
        samples.push_back(r.samples);
    }
    std::map<std::string, std::vector<double>> by_op;
    for (const RoundStats& r : rounds) by_op[scenario::op_kind_name(r.op)].push_back(r.iterations);
    io::JsonObject ops;
    for (const auto& [name, v] : by_op) ops[name] = summary(v);

    io::JsonObject out;
    out["rounds"] = static_cast<double>(rounds.size());
    out["kinds"] = std::move(hist);
    out["iterations_by_op"] = std::move(ops);
    out["iterations_per_round"] = summary(iters);
    out["woken_shards_per_round"] = summary(woken);
    out["enactments_per_round"] = summary(enact);
    out["utility_samples_per_round"] = summary(samples);
    // Stationarity: the median round of each quarter of the run.
    io::JsonArray wall_quarters, cpu_quarters;
    for (std::size_t q = 0; q < 4; ++q) {
        std::vector<double> wall, cpu;
        for (std::size_t i = q * rounds.size() / 4; i < (q + 1) * rounds.size() / 4; ++i) {
            wall.push_back(rounds[i].wall_ms);
            cpu.push_back(rounds[i].cpu_ms);
        }
        wall_quarters.emplace_back(median(wall));
        cpu_quarters.emplace_back(median(cpu));
    }
    out["wall_ms_p50_by_quarter"] = std::move(wall_quarters);
    out["cpu_ms_p50_by_quarter"] = std::move(cpu_quarters);
    out["p50_wall"] = at_rank(false, 0.50);
    out["p95_cpu"] = at_rank(true, 0.95);
    return out;
}

struct Outcome {
    std::vector<RoundStats> rounds;
    double peak_rss_mb = 0.0;
    double final_utility = 0.0;
    model::Allocation allocation;
    model::ProblemSpec final_problem;
};

/// Runs timed rounds [begin, end), after the loop's warm-up rounds.
void play(Loop& loop, Spans& spans, int begin, int end, Outcome& out) {
    for (int r = begin; r < end; ++r) {
        spans.setRound(r);
        out.rounds.push_back(loop.round(loop.warmUpRounds() + r));
    }
    spans.setRound(-1);
}

void warm_up(Loop& loop) {
    loop.warmUp();
    for (int r = 0; r < loop.warmUpRounds(); ++r) loop.round(r);
    loop.markTimed();
}

void settle(Loop& loop, Outcome& out) {
    loop.finish();
    out.final_utility = loop.engine().currentUtility();
    out.allocation = loop.engine().allocation();
    out.final_problem = loop.engine().problem();
}

struct Gate {
    std::vector<std::string> failures;
    void require(bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    }
};

/// Whether two problems carry the same dynamic state: flow activity,
/// capacities and n^max.
bool same_dynamic_state(const model::ProblemSpec& a, const model::ProblemSpec& b) {
    if (a.flowCount() != b.flowCount() || a.nodeCount() != b.nodeCount() ||
        a.linkCount() != b.linkCount() || a.classCount() != b.classCount())
        return false;
    for (const model::FlowSpec& f : a.flows())
        if (a.flowActive(f.id) != b.flowActive(f.id)) return false;
    for (const model::NodeSpec& n : a.nodes())
        if (n.capacity != b.node(n.id).capacity) return false;
    for (const model::LinkSpec& l : a.links())
        if (l.capacity != b.link(l.id).capacity) return false;
    for (const model::ClassSpec& c : a.classes())
        if (c.max_consumers != b.consumerClass(c.id).max_consumers) return false;
    return true;
}

/// Checks the final allocation against node and link capacity.
void check_feasible(Gate& gate, const model::ProblemSpec& spec, const model::Allocation& alloc) {
    const model::AllocationSummary s = model::summarize(spec, alloc);
    for (double u : s.node_utilization)
        gate.require(std::isfinite(u) && u <= 1.0 + kCapacitySlack, "node over capacity");
    for (double u : s.link_utilization)
        gate.require(std::isfinite(u) && u <= 1.0 + kCapacitySlack, "link over capacity");
    for (double r : alloc.rates) gate.require(std::isfinite(r), "non-finite rate");
    gate.require(std::isfinite(s.total_utility), "non-finite utility");
}

std::string hex_bits(double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
    return buf;
}

/// FNV-1a over the applied ops: which entities the seed picked.
std::string ops_digest(const std::vector<DynamicOp>& ops) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t x) {
        for (int i = 0; i < 8; ++i, x >>= 8) h = (h ^ (x & 0xff)) * 0x100000001b3ull;
    };
    for (const DynamicOp& op : ops) {
        mix(static_cast<std::uint64_t>(op.kind));
        mix(op.target);
        mix(std::bit_cast<std::uint64_t>(op.value));
    }
    return hex_bits(std::bit_cast<double>(h));
}

io::JsonObject fingerprint(const Loop& loop, const Outcome& out) {
    io::JsonObject f;
    std::vector<double> iters, enact;
    for (const RoundStats& r : out.rounds) {
        iters.push_back(r.iterations);
        enact.push_back(r.enactments);
    }
    f["iterations_per_round"] = json_array(iters);
    f["enactments_per_round"] = json_array(enact);
    f["ops"] = static_cast<double>(loop.ops().size());
    f["ops_digest"] = ops_digest(loop.ops());
    f["flows"] = static_cast<double>(out.final_problem.flowCount());
    f["nodes"] = static_cast<double>(out.final_problem.nodeCount());
    f["classes"] = static_cast<double>(out.final_problem.classCount());
    f["final_utility_bits"] = hex_bits(out.final_utility);
    loop.addFingerprint(f);
    return f;
}

int run(const Args& args) {
    Spans quiet(false);
    Spans traced(args.trace);
    Gate gate;
    io::JsonObject doc;
    Metrics metrics;

    io::JsonObject timeline;  // seconds per run phase
    std::int64_t mark = wall_ns();
    const auto lap = [&](const char* phase) {
        const std::int64_t now = wall_ns();
        timeline[phase] = static_cast<double>(now - mark) * 1e-9;
        mark = now;
    };

    std::vector<double> setup_s;
    std::unique_ptr<Loop> loop = set_up(args, quiet, setup_s);
    std::unique_ptr<Loop> twin;  // traced copy
    std::vector<double> traced_setup_s;
    if (args.trace) twin = set_up(args, traced, traced_setup_s);

    lap("setup");

    warm_up(*loop);
    if (twin) warm_up(*twin);
    lap("warm_up");

    Outcome out, twin_out;
    const int block = twin ? kTraceBlock : args.rounds;
    for (int r = 0; r < args.rounds; r += block) {
        const int end = std::min(args.rounds, r + block);
        play(*loop, quiet, r, end, out);
        if (twin) play(*twin, traced, r, end, twin_out);
    }
    out.peak_rss_mb = peak_rss_mb();
    lap("rounds");

    settle(*loop, out);
    if (twin) settle(*twin, twin_out);
    lap("settle");

    // The oracle: a fresh serial solve of the end-state problem, built by
    // applying the loop's ops to a freshly generated initial problem.
    double best = 0.0;
    int oracle_iters = 0;
    {
        scenario::ScenarioSpec end_state;
        end_state.problem = loop->initialProblem();
        end_state.schedule = loop->ops();
        model::ProblemSpec spec = scenario::end_state_problem(end_state);
        gate.require(same_dynamic_state(spec, out.final_problem),
                     "oracle's end state differs from the engine's problem");
        Scoped span(traced, "oracle.solve");
        core::LrgpOptimizer oracle(std::move(spec));
        oracle.runUntilConverged(kSolveIterationCap);
        best = oracle.currentUtility();
        oracle_iters = oracle.iterationsRun();
    }
    lap("oracle");

    // -- end-to-end metrics (from the untraced loop) -----------------------
    std::vector<double> wall, cpu;
    for (const RoundStats& r : out.rounds) {
        wall.push_back(r.wall_ms);
        cpu.push_back(r.cpu_ms);
    }
    const auto [failed, attempted] = loop->failures(out.rounds);
    metrics["setup_s"] = median(setup_s);
    metrics["round_ms_p50"] = median(wall);
    metrics["round_cpu_ms_p95"] = quantile(cpu, 0.95);
    metrics["utility_vs_best"] = ratio(out.final_utility, best);
    // 1 - failed_share: the share of rounds (fanout_loop: of emitted
    // messages) that succeeded, so the metric is never zero.
    metrics["ok_share"] = 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted));
    metrics["peak_rss_mb"] = out.peak_rss_mb;
    double timed_wall_ms = 0.0;
    for (double w : wall) timed_wall_ms += w;
    loop->endToEnd(metrics, timed_wall_ms * 1e-3);

    // -- correctness gate ------------------------------------------------------
    check_feasible(gate, out.final_problem, out.allocation);
    for (const auto& [name, value] : metrics) gate.require(std::isfinite(value), "non-finite " + name);
    gate.require(loop->illegalOps() == 0, "illegal op generated");
    gate.require(metrics["utility_vs_best"] >= kUtilityVsBestLow &&
                     metrics["utility_vs_best"] <= kUtilityVsBestHigh,
                 "utility_vs_best outside [0.98, 1.02]");
    if (args.workload == "fanout_loop") {
        gate.require(1.0 - metrics["ok_share"] <= kMaxDropShare, "fastpath dropped over 1%");
        gate.require(metrics["achieved_vs_planned"] >= kAchievedVsPlannedFloor,
                     "achieved_vs_planned below 0.9");
    }

    doc["workload"] = args.workload;
    doc["seed"] = static_cast<double>(args.seed);
    doc["rounds"] = args.rounds;
    doc["attempted"] = static_cast<double>(attempted);
    doc["failed"] = static_cast<double>(failed);
    doc["composition"] = composition(out.rounds);
    doc["setup_s_samples"] = json_array(setup_s);
    doc["timeline_s"] = std::move(timeline);
    const io::JsonObject print = fingerprint(*loop, out);
    doc["fingerprint"] = print;

    io::JsonObject e2e;
    for (const auto& [name, value] : metrics) e2e[name] = value;
    doc["end_to_end"] = std::move(e2e);

    if (twin) {
        // Traced and untraced copies ran the same ops; every count and the
        // final utility must agree bit for bit.
        gate.require(io::JsonValue(fingerprint(*twin, twin_out)).dump() ==
                         io::JsonValue(print).dump(),
                     "traced run diverged from untraced run");
        Metrics layer;
        const auto span_ms = [&](const char* name, bool timed) {
            std::vector<double> v;
            for (const Spans::Span* s : traced.named(name, timed)) v.push_back(s->durationMs());
            return v;
        };
        const auto self_ms = [&](const char* name) {
            std::vector<double> v;
            for (const Spans::Span* s : traced.named(name, true)) v.push_back(s->selfMs());
            return v;
        };
        layer["workload.build_ms"] = median(span_ms("workload.build", false));
        layer["scenario.build_ms"] = median(span_ms("scenario.build", false));
        layer["lrgp.compile_ms"] = median(span_ms("lrgp.compile", false));
        layer["lrgp.engine_ctor_ms"] = median(span_ms("lrgp.engine_ctor", false));
        layer["shard.partition_ms"] = median(span_ms("shard.partition", false));
        layer["shard.engine_ctor_ms"] = median(span_ms("shard.engine_ctor", false));
        layer["fastpath.ctor_ms"] = median(span_ms("fastpath.ctor", false));
        layer["lrgp.cold_solve_ms"] = median(span_ms("lrgp.cold_solve", false));
        std::vector<double> step_cpu;
        for (const Spans::Span* s : traced.named("lrgp.step", true)) step_cpu.push_back(s->cpu_ms);
        layer["lrgp.step_ms_p50"] = median(span_ms("lrgp.step", true));
        layer["lrgp.step_cpu_ms_p95"] = quantile(step_cpu, 0.95);
        std::vector<double> iters;
        for (const RoundStats& r : twin_out.rounds) iters.push_back(r.iterations);
        layer["lrgp.iters_per_round_p50"] = median(iters);
        layer["lrgp.iters_per_round_max"] = *std::max_element(iters.begin(), iters.end());
        layer["lrgp.op_us"] = median(span_ms("lrgp.op", true)) * 1e3;
        const std::vector<double> offer = self_ms("lrgp.enact_offer");
        layer["lrgp.enact_offer_us_p50"] = median(offer) * 1e3;
        layer["lrgp.enact_offer_us_p95"] = quantile(offer, 0.95) * 1e3;
        const std::vector<double> fp_run = span_ms("fastpath.run", true);
        layer["fastpath.run_us_p50"] = median(fp_run) * 1e3;
        layer["fastpath.run_us_p95"] = quantile(fp_run, 0.95) * 1e3;
        layer["fastpath.enact_us"] = median(span_ms("fastpath.enact", true)) * 1e3;
        layer["fastpath.note_planned_us"] = median(span_ms("fastpath.note_planned", true)) * 1e3;
        std::vector<double> woken;
        for (const RoundStats& r : twin_out.rounds) woken.push_back(r.woken);
        layer["shard.woken_per_round"] = median(woken);
        layer["oracle.solve_ms"] = median(span_ms("oracle.solve", false));
        layer["oracle.iters"] = oracle_iters;
        layer["round.self_ms_p50"] = median(self_ms("round"));
        std::vector<double> twin_wall;
        for (const RoundStats& r : twin_out.rounds) twin_wall.push_back(r.wall_ms);
        layer["trace.overhead_ratio"] = ratio(median(twin_wall), median(wall));
        // Layers a workload bypasses keep these defaults of zero.
        for (const char* name :
             {"lrgp.dirty_nodes_per_iter", "lrgp.node_cache_hit_ratio", "lrgp.rank_cache_hit_ratio",
              "lrgp.skipped_solve_ratio", "lrgp.utility_cache_hit_ratio", "lrgp.rate_us",
              "lrgp.node_us", "lrgp.link_us", "lrgp.reduce_us", "lrgp.enactments_per_round",
              "lrgp.enact_suppressed_ratio", "shard.member_iters_per_round",
              "shard.reconcile_passes_per_round",
              "shard.budget_updates", "shard.wakeups", "shard.boundary_nodes",
              "fastpath.batches_per_quantum", "fastpath.msgs_per_batch", "fastpath.dropped",
              "fastpath.peak_queue", "fastpath.delivered_msgs_per_s",
              "fastpath.achieved_vs_planned"})
            layer[name] = 0.0;
        twin->layerCounters(layer, args.rounds);
        // The fanout-only end-to-end figures, from the untraced copy.
        for (const char* name : {"delivered_msgs_per_s", "achieved_vs_planned"})
            if (const auto it = metrics.find(name); it != metrics.end())
                layer[std::string("fastpath.") + name] = it->second;
        io::JsonObject per_layer;
        for (const auto& [name, value] : layer) {
            gate.require(std::isfinite(value), "non-finite " + name);
            per_layer[name] = value;
        }
        doc["per_layer"] = std::move(per_layer);
        if (!args.trace_out.empty()) traced.writeChromeTrace(args.trace_out);
    }

    io::JsonArray failures;
    for (const std::string& f : gate.failures) failures.emplace_back(f);
    doc["gate_failures"] = std::move(failures);
    doc["correct"] = gate.failures.empty();
    std::printf("%s\n", io::JsonValue(std::move(doc)).dump().c_str());
    return gate.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lrgp_perfbench: %s\n", e.what());
        return 2;
    }
}
