// Message-level dataplane: a discrete-event traffic engine that *runs*
// an enacted LRGP allocation instead of just evaluating its objective.
//
// Topology mirrors the paper's resource model one-to-one:
//   * one TrafficSource per flow, policed at the enacted rate r_i;
//   * one QueueServer per link (capacity c_l, per-message cost L_{l,i});
//   * one QueueServer per node (capacity c_b, per-message cost
//     F_{b,i} + sum_j G_{b,j} n_j over the classes admitted there), so
//     the constraint sums of Eqs. 4-5 become offered load on servers
//     and an infeasible allocation shows up as queues and drops;
//   * messages traverse the flow's link chain in order, then fan out to
//     every node on the flow's route, where each admitted consumer
//     class takes delivery of a copy.
//
// A periodic sampler converts delivery counts into achieved per-class
// rates and the achieved utility sum n_j U_j(r-hat_j), appended to
// TimeSeries traces compatible with metrics::analyze_recovery — the
// measured counterpart of the optimizer's allocation-level traces.
//
// Determinism: all randomness comes from seeded per-flow xorshift64
// streams; the obs hooks touch atomics only and never schedule events,
// so same-seed runs are bitwise identical with or without a Registry
// attached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/cost_model.hpp"
#include "dataplane/server.hpp"
#include "dataplane/stats.hpp"
#include "dataplane/traffic_source.hpp"
#include "metrics/histogram.hpp"
#include "metrics/time_series.hpp"
#include "model/allocation.hpp"
#include "model/problem.hpp"
#include "obs/instruments.hpp"
#include "sim/simulator.hpp"

namespace lrgp::dataplane {

struct DataplaneOptions {
    std::uint64_t seed = 1;  ///< base seed; flow i uses seed + i
    ArrivalProcess arrivals = ArrivalProcess::kDeterministic;
    double token_bucket_depth = 8.0;  ///< burst allowance per source (messages)
    double sample_period = 0.5;       ///< achieved-utility sampling (seconds)
};

/// The traffic engine.  Owns its own Simulator; scenario::replay or a
/// DistCoupling (closed_loop.hpp) advances it in lockstep with an engine.
class Dataplane {
public:
    /// `spec` must outlive the Dataplane.  Sources start at rate zero —
    /// nothing moves until the first enact().  Throws
    /// std::invalid_argument on bad options.
    explicit Dataplane(const model::ProblemSpec& spec, DataplaneOptions options = {});

    Dataplane(const Dataplane&) = delete;
    Dataplane& operator=(const Dataplane&) = delete;

    /// Pushes an allocation into the running dataplane: re-rates every
    /// source's token bucket and swaps the admitted populations that the
    /// node cost model and the delivery sinks see.  Throws
    /// std::invalid_argument, before any state changes, unless the
    /// allocation can run (check_enactable).
    void enact(const model::Allocation& allocation);

    /// Records the optimizer's latest (pre-deadband) allocation so the
    /// planned-utility trace reflects intent even while the enactment
    /// policy suppresses churn.  Checked as enact() checks.
    void notePlanned(const model::Allocation& allocation);

    /// Source churn: an inactive flow emits nothing (the Figure 3
    /// departure experiment, measured).
    void setFlowActive(model::FlowId flow, bool active);

    /// Overdrives (or starves) a producer relative to its allocation;
    /// negative resumes following the enacted rate.  Throws
    /// std::invalid_argument on a rate that is not finite.
    void setOfferedRate(model::FlowId flow, double rate);

    /// Mirrors a node-capacity fault into the node's server.  Throws
    /// std::invalid_argument unless `capacity` is finite and > 0.
    void setNodeCapacity(model::NodeId node, double capacity);

    /// Advances the traffic simulation to absolute time `until`.
    void runUntil(sim::SimTime until);

    [[nodiscard]] sim::SimTime now() const noexcept { return simulator_.now(); }
    [[nodiscard]] double samplePeriod() const noexcept { return options_.sample_period; }
    [[nodiscard]] std::size_t enactments() const noexcept { return enactments_; }
    [[nodiscard]] const model::Allocation& enacted() const noexcept { return enacted_; }

    /// Achieved utility per sampler window, one sample every
    /// sample_period starting at t = sample_period.
    [[nodiscard]] const metrics::TimeSeries& achievedUtilityTrace() const noexcept {
        return achieved_trace_;
    }
    /// Planned utility at the same sampling instants.
    [[nodiscard]] const metrics::TimeSeries& plannedUtilityTrace() const noexcept {
        return planned_trace_;
    }

    /// Wires counters/gauges/histograms from `registry` (nullptr
    /// detaches).  Purely observational: traffic is bitwise identical
    /// with and without it.
    void attachObservability(obs::Registry* registry);

    [[nodiscard]] DataplaneStats collectStats() const;
    /// stats_to_json(collectStats()).dump(pretty).
    [[nodiscard]] std::string statsJson(bool pretty = true) const;

private:
    void emitFromSource(const DataMessage& message);
    void forwardAfterLink(const DataMessage& message);
    void fanOutToNodes(const DataMessage& message);
    void deliverAtNode(const DataMessage& message);
    [[nodiscard]] double nodeMessageCost(const DataMessage& message) const;
    void scheduleSampler();
    void takeSample();

    const model::ProblemSpec& spec_;
    DataplaneOptions options_;
    sim::Simulator simulator_;

    std::vector<TrafficSource> sources_;                 ///< by flow
    std::vector<QueueServer> link_servers_;              ///< by link
    std::vector<QueueServer> node_servers_;              ///< by node
    std::vector<std::vector<model::LinkId>> link_chain_; ///< by flow, in route order
    NodeCostTable node_costs_;  ///< node slots; flow_slots is each flow's fan-out

    model::Allocation enacted_;  ///< rates all zero until the first enact()
    model::Allocation planned_;
    std::size_t enactments_ = 0;
    bool planned_noted_ = false;

    std::vector<std::uint64_t> delivered_;     ///< cumulative, by class
    std::vector<std::uint64_t> window_;        ///< deliveries this sampler window
    std::uint64_t dropped_link_ = 0;
    std::uint64_t dropped_node_ = 0;
    metrics::BucketHistogram latency_;

    metrics::TimeSeries achieved_trace_;
    metrics::TimeSeries planned_trace_;

    obs::DataplaneInstruments obs_;
    bool obs_attached_ = false;
    std::uint64_t obs_shaped_reported_ = 0;  ///< shaped count already exported
};

}  // namespace lrgp::dataplane
