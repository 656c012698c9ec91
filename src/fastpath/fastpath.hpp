// Batched run-to-completion dataplane (ROADMAP item 1, BESS-style).
//
// Where dataplane::Dataplane pushes every message through a discrete-
// event calendar (one heap event per hop), the fastpath advances time
// in fixed quanta and moves whole message *cohorts* through the
// compiled gate graph of plan.hpp:
//
//   source phase   one worker per flow partition: the arrival process
//                  (same per-flow xorshift64 streams and gap formulas
//                  as TrafficSource) generates this quantum's arrivals,
//                  the TrafficScheduler polices them at the enacted
//                  rate, and survivors enter the flow's first gate as
//                  batches of <= kBatchSize;
//   gate phase     one parallelFor over all GateGroups (one group per
//                  link/node): every entity spends its per-quantum
//                  budget (capacity * quantum, carrying the unspent
//                  remainder while backlogged) across all its slots,
//                  charging the shared cost model
//                  (dataplane/cost_model.hpp) per message.  A gate whose
//                  demand fits serves it all in one pass; a contended
//                  one grants each slot the floor of its demand-
//                  proportional share plus a per-slot deficit carry,
//                  then hands out whole messages in rotating slot order
//                  while one still fits the budget (work-conserving,
//                  the batched analog of the event dataplane's FIFO
//                  share).  Unserved messages queue up to
//                  dataplane::kQueueCapacity per entity, the rest drop.
//                  Store-and-forward: served cohorts land in the *next*
//                  quantum's double-buffered incoming queues (next link
//                  hop, or the node fan-out); served node cohorts
//                  deliver one copy per admitted class;
//   merge phase    serial, fixed order: per-cohort latency estimates
//                  into the histogram, batch accounting, sampler.
//
// A quantum pays for the traffic that moves, not for the size of the
// gate graph: each slot keeps a live byte (its incoming count is non-
// zero), and a clean gate (no queue and no link wait) gathers and
// serves only its live slots; node slots record their deliveries
// flow-major, so the merge scans one array per flow; and the sampler
// memoizes each class's achieved and planned U_j values.  All three
// skip only work whose result is known, so every statistic is bitwise
// what the full walks give (docs/fastpath.md).
//
// Determinism across worker counts: RNG, credits and queues are
// flow/slot-indexed (never worker-indexed), each slot and entity has
// exactly one writer per phase (see plan.hpp; a slot's live byte has
// the same single writer as its incoming count), every floating-point
// reduction and histogram insert happens either under single ownership
// in a fixed slot order or serially in the merge phase, and worker
// accumulators hold only u64 message counts (associative).  Same seed
// => byte-identical statsJson for any `workers`; the fastpath test
// suite and the CI cmp check pin this.
//
// The event-driven dataplane remains the oracle: both engines charge
// identical per-message costs, so achieved utility and drop rates must
// agree within tolerance (the differential suite).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/stats.hpp"
#include "dataplane/traffic_source.hpp"
#include "fastpath/plan.hpp"
#include "fastpath/scheduler.hpp"
#include "lrgp/task_pool.hpp"
#include "metrics/histogram.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "obs/instruments.hpp"
#include "sim/simulator.hpp"

namespace lrgp::fastpath {

struct FastpathOptions {
    std::uint64_t seed = 1;  ///< base seed; flow i draws from seed + i
    dataplane::ArrivalProcess arrivals = dataplane::ArrivalProcess::kDeterministic;
    double sample_period = 0.5;       ///< achieved-utility sampling (seconds)
    double quantum = 0.05;            ///< simulated seconds per step
    int workers = 1;                  ///< TaskPool threads; 0 = hardware concurrency
};

/// The batched traffic engine.  API mirrors dataplane::Dataplane so
/// callers (CLI, scenario harnesses, benches) can swap plants.
class Fastpath {
public:
    /// `spec` must outlive the Fastpath.  Sources start at rate zero —
    /// nothing moves until the first enact().  Throws
    /// std::invalid_argument on bad options (sample_period must be an
    /// integer multiple of quantum).
    explicit Fastpath(const model::ProblemSpec& spec, FastpathOptions options = {});

    Fastpath(const Fastpath&) = delete;
    Fastpath& operator=(const Fastpath&) = delete;

    /// Throws std::invalid_argument, before any state changes, unless
    /// the allocation can run (dataplane::check_enactable).
    void enact(const model::Allocation& allocation);
    /// Checked as enact() checks.
    void notePlanned(const model::Allocation& allocation);
    void setFlowActive(model::FlowId flow, bool active);
    /// Negative resumes following the enacted rate.  Throws
    /// std::invalid_argument on a rate that is not finite.
    void setOfferedRate(model::FlowId flow, double rate);
    /// Throws std::invalid_argument unless `capacity` is finite and > 0.
    void setNodeCapacity(model::NodeId node, double capacity);

    /// Advances in whole quanta while now() + quantum <= until (+eps);
    /// a trailing partial quantum is left for the next call.
    void runUntil(sim::SimTime until);

    [[nodiscard]] sim::SimTime now() const noexcept {
        return static_cast<double>(quanta_) * options_.quantum;
    }
    [[nodiscard]] double samplePeriod() const noexcept { return options_.sample_period; }
    [[nodiscard]] std::size_t enactments() const noexcept { return enactments_; }
    [[nodiscard]] const model::Allocation& enacted() const noexcept { return enacted_; }
    [[nodiscard]] const CompiledPlan& plan() const noexcept { return plan_; }
    [[nodiscard]] const TrafficScheduler& scheduler() const noexcept { return scheduler_; }

    [[nodiscard]] const metrics::TimeSeries& achievedUtilityTrace() const noexcept {
        return achieved_trace_;
    }
    [[nodiscard]] const metrics::TimeSeries& plannedUtilityTrace() const noexcept {
        return planned_trace_;
    }

    [[nodiscard]] std::uint64_t quantaProcessed() const noexcept { return quanta_; }
    [[nodiscard]] std::uint64_t batchesProcessed() const noexcept { return batches_; }
    [[nodiscard]] int workerCount() const noexcept { return pool_.threadCount(); }
    /// Messages handled per worker (emission + gate servings), for the
    /// CLI's throughput summary.  Deliberately NOT part of statsJson:
    /// the split depends on the partition, the totals do not.
    [[nodiscard]] const std::vector<std::uint64_t>& workerMessages() const noexcept {
        return worker_messages_;
    }

    /// Wires lrgp_fastpath_* instruments (nullptr detaches).  Purely
    /// observational: traffic is bitwise identical either way.
    void attachObservability(obs::Registry* registry);

    /// Same snapshot type as the event dataplane; events_scheduled
    /// holds the quantum count (the calendar analog).
    [[nodiscard]] dataplane::DataplaneStats collectStats() const;
    [[nodiscard]] std::string statsJson(bool pretty = true) const;

private:
    struct EntityState {
        double capacity = 0.0;
        double budget_carry = 0.0;      ///< unspent budget while backlogged
        std::uint64_t queue_depth = 0;  ///< queued messages across slots
        std::uint64_t peak_queue = 0;
        std::uint64_t arrivals = 0;
        std::uint64_t served = 0;
        std::uint64_t dropped = 0;
        double busy_seconds = 0.0;
        bool deficits_set = false;  ///< some slot deficit may be non-zero
        bool waits_set = false;     ///< some link-slot wait may be non-zero
    };

    /// An empty AchievedMemo entry; a window count this large is never
    /// memoized.
    static constexpr std::uint32_t kNoCount = 0xFFFFFFFFu;
    /// A class's U_j at its last two sampler-window counts.
    struct AchievedMemo {
        std::uint32_t count[2] = {kNoCount, kNoCount};
        double value[2] = {0.0, 0.0};
    };

    void stepQuantum();
    void sourcePhase(double t_begin, double t_end);
    void gatePhase();
    template <bool kNode>
    void serveGroup(const GateGroup& group, int worker);
    template <bool kNode>
    void scatterSlot(std::uint32_t slot, std::uint64_t out, std::uint64_t queued,
                     EntityState& ent);
    void mergePhase();
    void takeSample();
    [[nodiscard]] double achievedUtility(std::size_t cls, std::uint64_t count);
    [[nodiscard]] double plannedUtility();
    void rescheduleArrival(std::size_t flow);
    [[nodiscard]] double offeredRate(std::size_t flow) const;
    [[nodiscard]] double uniform(std::size_t flow);
    void refreshNodeCosts();
    void refreshNodeService(std::uint32_t slot);

    const model::ProblemSpec& spec_;
    FastpathOptions options_;
    CompiledPlan plan_;
    TrafficScheduler scheduler_;
    core::TaskPool pool_;
    std::uint64_t sample_every_;  ///< quanta per sampler window

    // -- flow-indexed source state (owner: the flow's worker) --------
    std::vector<std::uint64_t> rng_;           ///< xorshift64, seed + flow
    std::vector<double> next_arrival_;         ///< absolute; <0 = idle
    std::vector<double> offered_override_;     ///< <0 follows enacted
    std::vector<std::uint8_t> active_;
    std::vector<std::uint64_t> emitted_;       ///< cumulative, past the policer
    std::vector<std::uint64_t> shaped_;
    std::vector<std::uint64_t> quantum_emitted_;  ///< this quantum, for batching
    std::vector<double> static_path_latency_;  ///< propagation + link service

    // -- slot-indexed gate state (owner: the slot's group; incoming_
    //    and live_ are double-buffered — gates drain the front buffers
    //    and forward into the back ones, swapped after each gate
    //    phase) ---------------------------------------------------------
    std::vector<std::uint64_t> link_incoming_, link_incoming_next_;
    std::vector<std::uint64_t> node_incoming_, node_incoming_next_;
    /// Queued messages per slot; an entity queues at most
    /// dataplane::kQueueCapacity (64) across its slots, so a byte holds it.
    std::vector<std::uint8_t> link_backlog_, node_backlog_;
    /// 1 while the slot's incoming count in the same buffer is non-zero;
    /// set by whoever adds to that count, cleared by the slot's gate.
    std::vector<std::uint8_t> link_live_, link_live_next_;
    std::vector<std::uint8_t> node_live_, node_live_next_;
    std::vector<double> node_slot_cost_;  ///< node_message_cost under enacted_
    std::vector<double> node_slot_service_;  ///< cost / capacity (0 at capacity <= 0)
    std::vector<std::uint32_t> node_slot_fanout_;  ///< position in the table's flow_slots
    /// Fractional-service carry per slot (deficit round-robin): under
    /// contention a slot's ideal share is rarely a whole message per
    /// quantum, so the remainder accrues until it buys one — service
    /// stays demand-proportional over time instead of slot-ordered.
    std::vector<double> link_slot_deficit_, node_slot_deficit_;
    std::vector<double> link_slot_wait_;  ///< queue delay estimate, this quantum
    // A delivering node slot's output, at its position in the table's
    // flow-major flow_slots order (node_slot_fanout_), so the merge
    // reads one contiguous range per flow.
    std::vector<double> fanout_wait_;  ///< queue + service estimate, this quantum
    std::vector<std::uint64_t> fanout_delivered_;  ///< copies, this quantum

    std::vector<EntityState> link_state_, node_state_;

    model::Allocation enacted_;
    model::Allocation planned_;
    std::size_t enactments_ = 0;
    bool planned_noted_ = false;

    std::vector<std::uint64_t> delivered_;  ///< cumulative, by class
    std::vector<std::uint64_t> window_;     ///< this sampler window
    metrics::BucketHistogram latency_;
    std::uint64_t quanta_ = 0;
    std::uint64_t batches_ = 0;
    std::vector<std::uint64_t> worker_messages_;
    // Per-worker scratch for serveGroup (sized at construction; a group
    // is served by exactly one worker, so no sharing).
    std::vector<std::vector<std::uint64_t>> scratch_demand_;
    std::vector<std::vector<std::uint64_t>> scratch_served_;
    std::vector<std::vector<std::uint64_t>> scratch_backlog_;
    std::vector<std::vector<std::uint32_t>> scratch_live_;  ///< a clean gate's live slots
    std::vector<double> merge_waits_;  ///< one flow's non-zero link waits

    // -- sampler memos (utilities are immutable, so a value computed for
    //    the same argument is the same value) ---------------------------
    std::vector<AchievedMemo> achieved_memo_;  ///< by class
    std::vector<std::uint32_t> class_flow_;     ///< FlowId per class
    std::vector<std::uint64_t> planned_rate_;   ///< rate bits planned_value_ holds, by flow
    std::vector<std::uint8_t> planned_moved_;   ///< this sample's rate moved, by flow
    std::vector<double> planned_value_;         ///< U_j at its flow's planned_rate_, by class

    metrics::TimeSeries achieved_trace_;
    metrics::TimeSeries planned_trace_;

    obs::FastpathInstruments obs_;
    bool obs_attached_ = false;
    std::uint64_t obs_shaped_reported_ = 0;
    std::uint64_t obs_emitted_reported_ = 0;
    std::uint64_t obs_delivered_reported_ = 0;
    std::uint64_t obs_dropped_link_reported_ = 0;
    std::uint64_t obs_dropped_node_reported_ = 0;
    std::uint64_t obs_batches_reported_ = 0;
    std::uint64_t obs_quanta_reported_ = 0;
};

}  // namespace lrgp::fastpath
