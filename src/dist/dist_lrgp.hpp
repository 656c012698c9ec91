// LRGP as a message-passing distributed protocol (Section 3, Algorithms
// 1-3), running on the discrete-event simulator.
//
// One agent runs per flow source, per consumer-hosting node, and per
// link.  Messages carry rates downstream and (price, population) reports
// upstream, each with a network latency drawn from a LatencyModel.
//
// Two execution modes:
//  * synchronous (the paper's formulation): agents act once per round,
//    after hearing from all their peers for that round.  The resulting
//    per-round utility trace is bit-identical to the centralized
//    LrgpOptimizer — the protocol only distributes the arithmetic.
//  * asynchronous (Section 3.5): every agent acts on a local timer using
//    the freshest values it has, and sources average the last few prices
//    from each resource to tolerate missing or stale reports.
//
// The asynchronous mode can additionally be chaos-hardened: a
// faults::FaultPlan injects message loss, delay spikes, reordering,
// partitions, agent crash/restart and price corruption, while
// DistOptions::hardened enables heartbeat failure detection, stale-price
// expiry, exponential-backoff re-announcement and graceful degradation
// to the flow's minimum rate.  Everything stays deterministic: the same
// (problem, options, plan, seed) reproduces a bitwise-identical run.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "faults/fault_plan.hpp"
#include "lrgp/greedy_allocator.hpp"
#include "lrgp/optimizer.hpp"
#include "lrgp/price_controllers.hpp"
#include "lrgp/rate_allocator.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "obs/instruments.hpp"
#include "sim/simulator.hpp"

namespace lrgp::dist {

struct DistOptions {
    core::GammaPolicy gamma = core::AdaptiveGamma{};
    double link_gamma = 1e-5;
    utility::RateSolveOptions rate_solve;

    bool synchronous = true;
    sim::SimTime latency_min = 0.005;   ///< seconds, per message
    sim::SimTime latency_max = 0.015;
    std::uint32_t seed = 1;

    // Asynchronous mode only:
    sim::SimTime agent_period = 0.05;   ///< local timer period per agent
    std::size_t price_window = 3;       ///< prices averaged per resource
    sim::SimTime sample_period = 0.05;  ///< utility sampling period
    /// Probability that any single protocol message is lost in transit.
    /// The price/rate averaging of Section 3.5 is exactly what tolerates
    /// such loss; only valid in asynchronous mode (sync counts messages).
    double message_loss_probability = 0.0;

    /// Scheduled fault injections (async only; empty = no chaos).
    faults::FaultPlan fault_plan;
    /// Hardening (async only; false = the baseline protocol, which relies
    /// only on Section 3.5's price averaging): heartbeat suspicion,
    /// stale-price expiry, exponential-backoff re-announcement to
    /// suspected peers, and degradation to r_min when most of a source's
    /// priced resources are suspected.  The timings are constants in
    /// dist_lrgp.cpp.
    bool hardened = false;
};

/// Drives the distributed protocol and records the utility trace.
class DistLrgp {
public:
    /// Validates `options` (and the fault plan against the problem
    /// size); throws std::invalid_argument on inconsistent settings —
    /// inverted latency bounds, loss probability outside [0, 1], loss /
    /// faults / hardening in synchronous mode, zero price window, bad
    /// agent or sample periods, malformed fault plans, or fault-plan
    /// agent references outside the problem.
    DistLrgp(model::ProblemSpec spec, DistOptions options = {});
    ~DistLrgp();

    DistLrgp(const DistLrgp&) = delete;
    DistLrgp& operator=(const DistLrgp&) = delete;

    /// Synchronous mode: runs until `rounds` rounds have completed at
    /// every node.  Throws std::logic_error in asynchronous mode.
    void runRounds(int rounds);

    /// Runs the simulation clock forward `seconds` (either mode).
    /// Throws std::logic_error if the run exceeds its event budget —
    /// a runaway event loop would otherwise stop silently at a cap.
    void runFor(sim::SimTime seconds);

    /// Schedules a flow source's departure at absolute sim time `when`.
    void removeFlowAt(model::FlowId flow, sim::SimTime when);

    /// Best-known global allocation (latest rates and populations).
    [[nodiscard]] model::Allocation snapshot() const;
    [[nodiscard]] double currentUtility() const;

    /// Sync mode: utility after each completed round (matches the
    /// centralized optimizer's trace).  Async mode: utility sampled every
    /// sample_period seconds.
    [[nodiscard]] const metrics::TimeSeries& utilityTrace() const noexcept { return trace_; }

    /// Invoked with (sim time, global allocation snapshot) at every
    /// trace sample — each completed round in synchronous mode, every
    /// sample_period in asynchronous mode.  This is the enactment tap:
    /// a closed-loop driver offers each snapshot to an
    /// EnactmentController that pushes it into a live substrate (e.g.
    /// dataplane::Dataplane).  The callback must not mutate this
    /// protocol instance; it does not affect the protocol's own event
    /// stream, so traces stay bitwise identical with or without it.
    using SampleCallback = std::function<void(sim::SimTime, const model::Allocation&)>;
    void setSampleCallback(SampleCallback callback) { sample_callback_ = std::move(callback); }

    [[nodiscard]] int completedRounds() const noexcept { return completed_rounds_; }
    [[nodiscard]] sim::SimTime now() const noexcept { return simulator_.now(); }
    [[nodiscard]] std::size_t messagesSent() const noexcept { return messages_sent_; }
    [[nodiscard]] std::size_t messagesLost() const noexcept { return messages_lost_; }
    [[nodiscard]] const model::ProblemSpec& problem() const noexcept { return spec_; }

    // ------------------------------------------ chaos instrumentation

    /// Injection counters (all zero when no fault plan was given).
    [[nodiscard]] faults::FaultStats faultStats() const;
    /// Backoff re-announcements sent to suspected resources.
    [[nodiscard]] std::size_t reannouncementsSent() const noexcept { return reannouncements_; }
    /// Resource/flow transitions into the suspected state.
    [[nodiscard]] std::size_t suspicionEvents() const noexcept { return suspicion_events_; }
    /// True while `agent` is crashed.
    [[nodiscard]] bool agentDown(faults::AgentRef agent) const;

    // ------------------------------------------------- observability

    /// Attaches a metrics registry (message counters by kind, drop
    /// causes, suspicion/reannouncement/crash counters, round counter,
    /// utility gauge) and optionally a tracer.  Tracer timestamps use
    /// *simulated* time, so traces are deterministic per (problem,
    /// options, seed).  Pass nullptrs to detach.
    void attachObservability(obs::Registry* registry, obs::IterationTracer* tracer = nullptr);

private:
    struct SourceAgent;
    struct NodeAgent;
    struct LinkAgent;

    [[nodiscard]] static DistOptions validated(DistOptions options);
    void validateFaultPlanAgents() const;

    /// Routes one protocol message through the legacy uniform-loss
    /// model, the fault injector, and the latency model.  `price`
    /// carries a corruptible payload for report messages (the handler
    /// receives the possibly-corrupted value); pass nullopt for rate
    /// messages.
    void sendMessage(const faults::MessageContext& ctx, std::optional<double> price,
                     std::function<void(double)> handler);

    void scheduleCrashes();
    void crashAgent(faults::AgentRef agent);
    void restartAgent(faults::AgentRef agent);

    // Chaos bookkeeping + optional metrics/trace emission (the agents
    // call these instead of bumping the driver counters directly).
    void noteSuspicion(const char* who);
    void noteReannouncement();
    [[nodiscard]] double simMicros() const noexcept { return simulator_.now() * 1e6; }

    [[nodiscard]] std::size_t eventBudget(sim::SimTime seconds) const;
    [[nodiscard]] bool hardened() const noexcept { return options_.hardened; }

    void onRoundCompletedAtNode(int round, const NodeAgent& agent);
    void startSyncRound();
    void scheduleAsyncTimers();
    void scheduleSampler();

    model::ProblemSpec spec_;
    DistOptions options_;
    sim::Simulator simulator_;
    sim::LatencyModel latency_;
    core::RateAllocator rate_allocator_;
    core::GreedyConsumerAllocator greedy_allocator_;
    std::unique_ptr<faults::FaultInjector> injector_;  ///< null without a plan

    std::vector<std::unique_ptr<SourceAgent>> sources_;  // per flow
    std::vector<std::unique_ptr<NodeAgent>> node_agents_;  // per node
    std::vector<std::unique_ptr<LinkAgent>> link_agents_;  // per link

    metrics::TimeSeries trace_;
    SampleCallback sample_callback_;
    // Synchronous mode: the per-round utility must be computed from the
    // state every node actually used in that round.  Sources on fast
    // subgraphs may already have advanced to round t+1 while slower
    // subgraphs are still finishing round t, so each completing node
    // contributes its round-t rates and populations here.
    struct RoundState {
        std::vector<double> rates;
        std::vector<int> populations;
        std::size_t completions = 0;
    };
    std::unordered_map<int, RoundState> round_states_;
    int completed_rounds_ = 0;
    int target_rounds_ = 0;
    bool sync_started_ = false;  ///< round-1 kickoff happens on first run call
    std::size_t messages_sent_ = 0;
    std::size_t messages_lost_ = 0;
    std::size_t reannouncements_ = 0;
    std::size_t suspicion_events_ = 0;
    std::uint64_t loss_rng_state_ = 0;

    // Observability (all null until attachObservability).
    obs::DistInstruments dist_instr_;
    obs::AllocatorInstruments alloc_instr_;
    bool obs_attached_ = false;
    obs::IterationTracer* tracer_ = nullptr;
};

}  // namespace lrgp::dist
