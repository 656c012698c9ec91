// Live asynchronous shard-agent runtime (ROADMAP item 4).
//
// AsyncShardRuntime runs one *agent* per shard of the overlay: each
// agent owns an incremental ParallelLrgpEngine over its subproblem
// (shard/subproblems.hpp) and coordinates boundary capacity with its
// peers by exchanging compact versioned digests over a ChannelTransport
// whose embedded fault injector loses, delays, reorders and partitions
// messages *live* (runtime/transport.hpp).  This is the asynchronous,
// failure-prone sibling of shard::ShardedLrgpEngine's lockstep loop —
// same subproblems, same boundary-budget arithmetic, no barrier between
// shards, faults in virtual time.
//
// Tolerance mechanisms (docs/async_runtime.md has the state machines
// and runtime.cpp the protocol timers):
//  * heartbeat failure suspicion — any digest doubles as a heartbeat;
//    a peer silent past the heartbeat timeout becomes *suspected*, and
//    sends to it back off exponentially (with deterministic jitter)
//    instead of flooding a dead peer;
//  * graceful degradation — while any peer sharing a boundary resource
//    is suspected, the agent clamps its slice of that resource to the
//    guaranteed-feasible floor, trading utility for safety;
//  * bounded staleness — digests older than the staleness horizon (and
//    out-of-order or replayed ones, by version/epoch) are rejected;
//  * crash recovery — agents snapshot their engine periodically
//    (lrgp/snapshot.hpp); a fault-plan crash discards live state, and
//    the restart restores the snapshot and bumps the agent's membership
//    epoch so peers discard pre-crash digests still in flight;
//  * safe budget reconciliation — the lowest incident agent coordinates
//    each boundary resource and moves capacity toward the higher-priced
//    shards (shard/budget.hpp) in a shrink-before-grow handshake:
//    capacity grants are withheld until every live peer acknowledged
//    the matching reductions, so the applied slices never sum above the
//    global capacity even under loss, reordering or partitions.
//
// Execution: virtual time, in ticks of a fixed period.  Each tick is
// one core::TaskPool::parallelFor over the agents, on a pool of
// min(agents, hardware_concurrency) threads that the constructor
// starts once; the clock advances one tick period per tick and the
// utility is sampled on the calling thread after the join.  Because the
// transport's delivery order is schedule-independent and its minimum
// latency is positive, a tick's sends stay out of the same tick's
// receives, so the whole run — utility trace, digest logs, every
// counter — is byte-identical across reruns, thread counts and
// interleavings (the TSan suite runs it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/parallel_engine.hpp"
#include "lrgp/task_pool.hpp"
#include "metrics/time_series.hpp"
#include "model/problem.hpp"
#include "obs/instruments.hpp"
#include "runtime/transport.hpp"
#include "shard/subproblems.hpp"

namespace lrgp::runtime {

struct RuntimeOptions {
    /// Shard agents, ticked on min(agents, hardware_concurrency) threads.
    int agents = 2;

    std::uint32_t seed = 1;
    /// Live fault schedule.  Message faults match runtime agent i as
    /// faults::AgentRef{kNode, i}; crash events match by index with any
    /// kind (so the standard catalog's node/source crashes both hit
    /// agent `index`).
    faults::FaultPlan fault_plan;

    /// Record per-agent digest logs (hexfloat, byte-stable across
    /// reruns; see AsyncShardRuntime::digestLog).
    bool keep_digest_log = false;
};

/// Point-in-time snapshot of one agent's counters.
struct AgentCounters {
    std::uint64_t engine_iterations = 0;
    std::uint64_t digests_sent = 0;
    std::uint64_t digests_received = 0;
    std::uint64_t digests_rejected_stale = 0;  ///< too old, replayed or reordered
    std::uint64_t send_failures = 0;           ///< backpressure-rejected sends
    std::uint64_t retries = 0;                 ///< backoff sends to suspected peers + resends
    std::uint64_t suspicions = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t snapshots = 0;
    std::uint64_t snapshot_restores = 0;
    std::uint64_t budget_updates = 0;  ///< assignment slices applied to the engine
    std::uint64_t degradations = 0;    ///< slices clamped to floor on suspicion
};

/// Per-agent shape and progress, for the CLI summary and tests.
struct AgentSummary {
    int agent = 0;
    std::size_t flows = 0;
    std::size_t classes = 0;
    std::size_t nodes = 0;
    std::size_t links = 0;
    bool down = false;
    std::uint64_t epoch = 0;
    double utility = 0.0;
    AgentCounters counters;
};

/// Aggregate runtime statistics (all agents + transport).
struct RuntimeStats {
    AgentCounters totals;
    std::uint64_t messages_sent = 0;
    std::uint64_t dropped_fault = 0;
    std::uint64_t dropped_backpressure = 0;
    faults::FaultStats fault_stats;
};

class AsyncShardRuntime {
public:
    /// Partitions `spec` into `runtime.agents` shard subproblems, builds
    /// the agents and transport, and starts the agent pool.  Validates
    /// the agent count and the fault plan against it (throws
    /// std::invalid_argument with an actionable message); rethrows the
    /// std::system_error of a pool thread that fails to start.
    AsyncShardRuntime(model::ProblemSpec spec, core::LrgpOptions options = {},
                      RuntimeOptions runtime = {});
    ~AsyncShardRuntime();

    AsyncShardRuntime(const AsyncShardRuntime&) = delete;
    AsyncShardRuntime& operator=(const AsyncShardRuntime&) = delete;

    /// Advances the runtime `seconds` virtual seconds, rounded to whole
    /// ticks (at least one): every agent ticks once per tick on the
    /// pool, and the global utility is sampled every samplePeriod().
    /// Callable repeatedly; the clock carries across calls.  Throws
    /// std::invalid_argument, before any agent ticks, unless seconds > 0
    /// and the horizon is fewer than 2^53 ticks (the exact integers of a
    /// double; 1e300 would overflow the tick count).
    void runFor(double seconds);

    /// Runtime clock: virtual time advanced so far.
    [[nodiscard]] double now() const noexcept { return base_time_; }

    /// Virtual seconds between two utility samples.
    [[nodiscard]] static double samplePeriod() noexcept;

    /// Latest sampled global utility (sum of the agents' published
    /// utilities in agent order; crashed agents contribute zero).
    [[nodiscard]] double currentUtility() const;

    /// One utility sample every samplePeriod() seconds.
    [[nodiscard]] const metrics::TimeSeries& utilityTrace() const noexcept { return trace_; }

    [[nodiscard]] int agentCount() const noexcept { return static_cast<int>(agents_.size()); }
    [[nodiscard]] bool agentDown(int agent) const;
    [[nodiscard]] std::vector<AgentSummary> summaries() const;
    /// Aggregate stats; only call between runFor invocations.
    [[nodiscard]] RuntimeStats stats() const;

    /// The agent's digest log (one line per sent digest, hexfloat
    /// payloads).  Empty unless RuntimeOptions::keep_digest_log; only
    /// read between runFor invocations.  The log is byte-identical
    /// across reruns of the same configuration.
    [[nodiscard]] const std::string& digestLog(int agent) const;

    [[nodiscard]] const model::ProblemSpec& problem() const noexcept { return spec_; }
    [[nodiscard]] const RuntimeOptions& options() const noexcept { return runtime_; }

    /// The agent's local subproblem engine (nullptr for an empty shard).
    /// Quiescent inspection only — call between runFor invocations; the
    /// agent's ticks mutate the engine during a run.
    [[nodiscard]] const core::ParallelLrgpEngine* agentEngine(int agent) const;

    // -- quiescent dynamic workload ops (scenario churn) -----------------
    //
    // Apply between runFor() invocations only — no agent ticks then, so
    // the owning agent's engine and its cold-restart copy can be mutated
    // directly.  Only ops that leave boundary capacity budgets untouched
    // are offered here; capacity changes would race the shrink-before-
    // grow handshakes and are rejected by the scenario runner instead.
    // A crash before the next snapshot restores pre-op engine state from
    // the previous checkpoint, so scenario suites do not combine churn
    // with crash fault plans.

    /// Marks the flow's source as departed on the owning agent (and in
    /// the global mirror).  Throws std::invalid_argument on a bad id.
    void removeFlow(model::FlowId flow);
    /// Brings a removed flow back (resumes at r_min, zero consumers).
    void restoreFlow(model::FlowId flow);
    /// Changes a class's n^max on the owning agent.
    void setClassMaxConsumers(model::ClassId cls, int max_consumers);

    /// Registers the lrgp_runtime_* series (docs/observability.md).
    /// Counter totals are exported at the end of every runFor call;
    /// histograms (digest age, inbox depth) fill live from the pool
    /// threads.  Pass nullptr to detach.
    void attachObservability(obs::Registry* registry);

private:
    struct Agent;
    struct Resource;

    [[nodiscard]] static RuntimeOptions validated(RuntimeOptions runtime);

    void buildResources(const shard::SubproblemSet& sub);
    void buildAgents(shard::SubproblemSet sub, const core::LrgpOptions& options);
    void applyFlowActive(model::FlowId flow, bool active);

    void sampleUtility();
    void exportCounters();

    // -- agent tick pipeline (one agent's tick runs on one pool thread) --
    void tickAgent(Agent& agent, double now);
    void crashAgent(Agent& agent);
    void restartAgent(Agent& agent, double now);
    void receiveDigests(Agent& agent, double now);
    void applyDigest(Agent& agent, const Delivery& delivery, double now);
    void detectFailures(Agent& agent, double now);
    void suspectPeer(Agent& agent, int peer, double now);
    void unsuspectPeer(Agent& agent, int peer, double now);
    void applySlice(Agent& agent, std::size_t budget_index, double slice);
    [[nodiscard]] double localPrice(const Agent& agent, std::size_t resource_index) const;
    void setEngineCapacity(Agent& agent, std::size_t budget_index, double capacity);
    [[nodiscard]] double jitteredBackoff(Agent& agent, double interval) const;
    void coordinate(Agent& agent, double now);
    void sendDigests(Agent& agent, double now);
    [[nodiscard]] Digest buildDigest(Agent& agent, int to, double now);
    void logDigest(Agent& agent, int to, const Digest& digest);
    void maybeSnapshot(Agent& agent, double now);

    model::ProblemSpec spec_;
    RuntimeOptions runtime_;
    std::vector<Resource> resources_;
    /// Resource-table index per global node/link id (kAbsent = interior).
    std::vector<std::uint32_t> node_resource_;
    std::vector<std::uint32_t> link_resource_;
    std::vector<std::unique_ptr<Agent>> agents_;
    std::unique_ptr<ChannelTransport> transport_;
    /// Ticks the agents; declared after them so that its threads are
    /// joined before the agents and the transport are destroyed.
    core::TaskPool pool_;

    metrics::TimeSeries trace_;
    double base_time_ = 0.0;    ///< runtime clock at the last runFor exit
    double next_sample_ = 0.0;  ///< first sample strictly after time 0
    double published_total_ = 0.0;

    obs::RuntimeInstruments instr_;
    bool obs_attached_ = false;
    AgentCounters exported_;  ///< counter totals already pushed to obs
    std::uint64_t exported_sent_ = 0, exported_fault_ = 0, exported_backpressure_ = 0;
};

}  // namespace lrgp::runtime
