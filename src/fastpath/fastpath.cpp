#include "fastpath/fastpath.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "dataplane/cost_model.hpp"
#include "fastpath/batch.hpp"
#include "model/allocation.hpp"

namespace lrgp::fastpath {

namespace {
constexpr double kTimeEps = 1e-9;
/// Empty planned-memo key.  A rate with these bits (a NaN) is never
/// looked up, only recomputed, so no rate can hit an empty entry.
constexpr std::uint64_t kNoRate = ~std::uint64_t{0};
static_assert(dataplane::kQueueCapacity <= 0xFF, "slot backlogs are bytes");

/// Queue-delay estimate of `queued` messages ahead at `cost` each.  An
/// empty queue skips the division: 0 * cost / c == 0 * cost for c > 0.
inline double queue_wait(std::uint64_t queued, double cost, double capacity) {
    if (!(capacity > 0.0)) return 0.0;
    return queued == 0 ? 0.0 * cost : static_cast<double>(queued) * cost / capacity;
}
}  // namespace

Fastpath::Fastpath(const model::ProblemSpec& spec, FastpathOptions options)
    : spec_(spec),
      options_(options),
      plan_(CompiledPlan::lower(spec)),
      scheduler_(spec.flowCount()),
      pool_(options.workers),
      latency_(metrics::default_latency_bounds()) {
    if (!(options_.quantum > 0.0)) throw std::invalid_argument("Fastpath: quantum must be > 0");
    if (!(options_.sample_period > 0.0))
        throw std::invalid_argument("Fastpath: sample_period must be > 0");
    const double ratio = options_.sample_period / options_.quantum;
    sample_every_ = static_cast<std::uint64_t>(std::llround(ratio));
    if (sample_every_ < 1 ||
        std::abs(static_cast<double>(sample_every_) * options_.quantum -
                 options_.sample_period) > kTimeEps) {
        throw std::invalid_argument(
            "Fastpath: sample_period must be an integer multiple of quantum");
    }

    const std::size_t flows = spec_.flowCount();
    enacted_.rates.assign(flows, 0.0);
    enacted_.populations.assign(spec_.classCount(), 0);
    planned_ = enacted_;
    delivered_.assign(spec_.classCount(), 0);
    window_.assign(spec_.classCount(), 0);

    rng_.resize(flows);
    for (std::size_t i = 0; i < flows; ++i) {
        const std::uint64_t seed = options_.seed + i;
        rng_[i] = seed == 0 ? 0x9E3779B97F4A7C15ull : seed;  // as TrafficSource
    }
    next_arrival_.assign(flows, -1.0);
    offered_override_.assign(flows, -1.0);
    active_.resize(flows);
    for (std::size_t i = 0; i < flows; ++i) active_[i] = spec_.flows()[i].active ? 1 : 0;
    emitted_.assign(flows, 0);
    shaped_.assign(flows, 0);
    quantum_emitted_.assign(flows, 0);

    link_incoming_.assign(plan_.linkSlotCount(), 0);
    link_incoming_next_.assign(plan_.linkSlotCount(), 0);
    link_backlog_.assign(plan_.linkSlotCount(), 0);
    link_live_.assign(plan_.linkSlotCount(), 0);
    link_live_next_.assign(plan_.linkSlotCount(), 0);
    link_slot_deficit_.assign(plan_.linkSlotCount(), 0.0);
    link_slot_wait_.assign(plan_.linkSlotCount(), 0.0);
    node_incoming_.assign(plan_.nodeSlotCount(), 0);
    node_incoming_next_.assign(plan_.nodeSlotCount(), 0);
    node_backlog_.assign(plan_.nodeSlotCount(), 0);
    node_live_.assign(plan_.nodeSlotCount(), 0);
    node_live_next_.assign(plan_.nodeSlotCount(), 0);
    node_slot_cost_.assign(plan_.nodeSlotCount(), 0.0);
    node_slot_service_.assign(plan_.nodeSlotCount(), 0.0);
    node_slot_deficit_.assign(plan_.nodeSlotCount(), 0.0);
    node_slot_fanout_.resize(plan_.nodeSlotCount());
    for (std::uint32_t t = 0; t < plan_.nodes.flow_slots.size(); ++t) {
        node_slot_fanout_[plan_.nodes.flow_slots[t]] = t;
    }
    fanout_wait_.assign(plan_.nodeSlotCount(), 0.0);
    fanout_delivered_.assign(plan_.nodeSlotCount(), 0);

    link_state_.resize(spec_.linkCount());
    for (std::size_t l = 0; l < spec_.linkCount(); ++l)
        link_state_[l].capacity = spec_.links()[l].capacity;
    node_state_.resize(spec_.nodeCount());
    for (std::size_t b = 0; b < spec_.nodeCount(); ++b)
        node_state_[b].capacity = spec_.nodes()[b].capacity;

    // Static latency floor per flow: every hop handoff plus the link
    // chain's unloaded service times (node service is population-
    // dependent and added at serve time).
    static_path_latency_.assign(flows, 0.0);
    for (std::size_t i = 0; i < flows; ++i) {
        const std::uint32_t chain = plan_.chainLength(i);
        double base = static_cast<double>(chain + 1) * dataplane::kPropagationDelay;
        for (std::uint32_t h = plan_.flow_link_begin[i]; h < plan_.flow_link_begin[i + 1]; ++h) {
            const std::uint32_t s = plan_.flow_link_slots[h];
            const double cap = link_state_[plan_.link_slot_link[s]].capacity;
            if (cap > 0.0) base += plan_.link_slot_cost[s] / cap;
        }
        static_path_latency_[i] = base;
    }
    refreshNodeCosts();

    worker_messages_.assign(static_cast<std::size_t>(pool_.threadCount()), 0);
    scratch_demand_.resize(pool_.threadCount());
    scratch_served_.resize(pool_.threadCount());
    scratch_backlog_.resize(pool_.threadCount());
    std::size_t widest = 0;
    for (const GateGroup& group : plan_.groups) {
        widest = std::max<std::size_t>(widest, group.slots_end - group.slots_begin);
    }
    scratch_live_.assign(static_cast<std::size_t>(pool_.threadCount()),
                         std::vector<std::uint32_t>(widest));

    achieved_memo_.resize(spec_.classCount());
    class_flow_.resize(spec_.classCount());
    for (std::size_t j = 0; j < spec_.classCount(); ++j) {
        class_flow_[j] = spec_.classes()[j].flow.index();
    }
    planned_rate_.assign(flows, kNoRate);
    planned_moved_.assign(flows, 0);
    planned_value_.assign(spec_.classCount(), 0.0);
}

double Fastpath::uniform(std::size_t flow) {
    std::uint64_t& state = rng_[flow];
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return (static_cast<double>(state >> 11) + 1.0) * 0x1.0p-53;  // (0, 1]
}

double Fastpath::offeredRate(std::size_t flow) const {
    return offered_override_[flow] >= 0.0 ? offered_override_[flow] : scheduler_.rate(flow);
}

void Fastpath::rescheduleArrival(std::size_t flow) {
    const double rate = offeredRate(flow);
    if (!active_[flow] || !(rate > 0.0)) {
        next_arrival_[flow] = -1.0;
        return;
    }
    const double gap = options_.arrivals == dataplane::ArrivalProcess::kDeterministic
                           ? 1.0 / rate
                           : -std::log(uniform(flow)) / rate;
    next_arrival_[flow] = now() + gap;
}

void Fastpath::refreshNodeCosts() {
    const dataplane::NodeCostTable& table = plan_.nodes;
    const std::vector<int>& populations = enacted_.populations;
    for (std::uint32_t s = 0; s < table.slotCount(); ++s) {
        node_slot_cost_[s] = dataplane::node_message_cost(table, s, populations);
        refreshNodeService(s);
    }
}

void Fastpath::refreshNodeService(std::uint32_t slot) {
    const double capacity = node_state_[plan_.nodes.slot_node[slot]].capacity;
    node_slot_service_[slot] = capacity > 0.0 ? node_slot_cost_[slot] / capacity : 0.0;
}

void Fastpath::enact(const model::Allocation& allocation) {
    dataplane::check_enactable(spec_, allocation, "Fastpath::enact");
    for (std::size_t i = 0; i < allocation.rates.size(); ++i) {
        if (allocation.rates[i] == scheduler_.rate(i)) continue;  // keep emission phase
        scheduler_.setRate(i, allocation.rates[i]);
        if (offered_override_[i] < 0.0) rescheduleArrival(i);
    }
    enacted_ = allocation;
    ++enactments_;
    refreshNodeCosts();
    if (obs_attached_) obs_.enactments->add();
}

void Fastpath::notePlanned(const model::Allocation& allocation) {
    dataplane::check_enactable(spec_, allocation, "Fastpath::notePlanned");
    planned_ = allocation;
    planned_noted_ = true;
}

void Fastpath::setFlowActive(model::FlowId flow, bool active) {
    const std::size_t i = flow.index();
    if (active_.at(i) == static_cast<std::uint8_t>(active ? 1 : 0)) return;
    active_[i] = active ? 1 : 0;
    rescheduleArrival(i);
}

void Fastpath::setOfferedRate(model::FlowId flow, double rate) {
    if (!std::isfinite(rate)) {
        throw std::invalid_argument("Fastpath::setOfferedRate: rate must be finite");
    }
    const std::size_t i = flow.index();
    offered_override_.at(i) = rate < 0.0 ? -1.0 : rate;
    rescheduleArrival(i);
}

void Fastpath::setNodeCapacity(model::NodeId node, double capacity) {
    if (!std::isfinite(capacity) || !(capacity > 0.0)) {
        throw std::invalid_argument("Fastpath::setNodeCapacity: capacity must be finite and > 0");
    }
    const std::uint32_t b = node.index();
    node_state_.at(b).capacity = capacity;
    for (std::uint32_t s = plan_.nodes.node_begin[b]; s < plan_.nodes.node_begin[b + 1]; ++s) {
        refreshNodeService(s);
    }
}

void Fastpath::runUntil(sim::SimTime until) {
    while (static_cast<double>(quanta_ + 1) * options_.quantum <= until + kTimeEps) {
        stepQuantum();
    }
}

void Fastpath::stepQuantum() {
    const double t_begin = static_cast<double>(quanta_) * options_.quantum;
    const double t_end = static_cast<double>(quanta_ + 1) * options_.quantum;
    sourcePhase(t_begin, t_end);
    gatePhase();
    // Store-and-forward: what the gates forwarded this quantum becomes
    // next quantum's incoming (the drained front buffers are all zero).
    std::swap(link_incoming_, link_incoming_next_);
    std::swap(node_incoming_, node_incoming_next_);
    std::swap(link_live_, link_live_next_);
    std::swap(node_live_, node_live_next_);
    ++quanta_;
    mergePhase();
    if (quanta_ % sample_every_ == 0) takeSample();
}

void Fastpath::sourcePhase(double /*t_begin*/, double t_end) {
    pool_.parallelFor(plan_.flow_count, [this, t_end](std::size_t begin, std::size_t end,
                                                      int worker) {
        std::uint64_t handled = 0;
        for (std::size_t i = begin; i < end; ++i) {
            scheduler_.refill(i, options_.quantum);
            quantum_emitted_[i] = 0;
            if (next_arrival_[i] < 0.0) continue;
            const bool deterministic =
                options_.arrivals == dataplane::ArrivalProcess::kDeterministic;
            std::uint64_t passed = 0;
            while (next_arrival_[i] >= 0.0 && next_arrival_[i] < t_end) {
                if (scheduler_.tryAdmit(i)) {
                    ++passed;
                } else {
                    ++shaped_[i];
                }
                const double rate = offeredRate(i);
                if (!(rate > 0.0)) {
                    next_arrival_[i] = -1.0;
                    break;
                }
                next_arrival_[i] += deterministic ? 1.0 / rate : -std::log(uniform(i)) / rate;
            }
            if (passed == 0) continue;
            emitted_[i] += passed;
            quantum_emitted_[i] = passed;
            handled += passed;
            // Into the first gate: head of the link chain, or straight
            // to the node fan-out for chainless flows.
            if (plan_.chainLength(i) > 0) {
                const std::uint32_t s = plan_.flow_link_slots[plan_.flow_link_begin[i]];
                link_incoming_[s] += passed;
                link_live_[s] = 1;
            } else {
                const dataplane::NodeCostTable& nodes = plan_.nodes;
                for (std::uint32_t t = nodes.flow_begin[i]; t < nodes.flow_begin[i + 1]; ++t) {
                    node_incoming_[nodes.flow_slots[t]] += passed;
                    node_live_[nodes.flow_slots[t]] = 1;
                }
            }
        }
        worker_messages_[static_cast<std::size_t>(worker)] += handled;
    });
}

void Fastpath::gatePhase() {
    const std::vector<GateGroup>& groups = plan_.groups;
    pool_.parallelFor(groups.size(),
                      [this, &groups](std::size_t begin, std::size_t end, int worker) {
                          for (std::size_t g = begin; g < end; ++g) {
                              if (groups[g].is_node) {
                                  serveGroup<true>(groups[g], worker);
                              } else {
                                  serveGroup<false>(groups[g], worker);
                              }
                          }
                      });
}

template <bool kNode>
void Fastpath::scatterSlot(std::uint32_t slot, std::uint64_t out, std::uint64_t queued,
                           EntityState& ent) {
    if constexpr (kNode) {
        // Waits and copies are read by the merge phase only for slots
        // that delivered this quantum.
        if (out == 0) return;
        const std::uint32_t t = node_slot_fanout_[slot];
        fanout_wait_[t] =
            queue_wait(queued, node_slot_cost_[slot], ent.capacity) + node_slot_service_[slot];
        const dataplane::NodeCostTable& nodes = plan_.nodes;
        std::uint64_t copies = 0;  // one per class with n_j > 0
        for (std::uint32_t c = nodes.class_begin[slot]; c < nodes.class_begin[slot + 1]; ++c) {
            const std::uint32_t j = nodes.classes[c];
            if (enacted_.populations[j] <= 0) continue;
            delivered_[j] += out;
            window_[j] += out;
            copies += out;
        }
        fanout_delivered_[t] = copies;
    } else {
        const double wait = queue_wait(queued, plan_.link_slot_cost[slot], ent.capacity);
        link_slot_wait_[slot] = wait;
        if (wait != 0.0) ent.waits_set = true;
        if (out == 0) return;
        const std::uint32_t next = plan_.link_slot_next[slot];
        if (next != CompiledPlan::kChainEnd) {
            link_incoming_next_[next] += out;  // next hop, same chain
            link_live_next_[next] = 1;
            return;
        }
        const dataplane::NodeCostTable& nodes = plan_.nodes;
        const std::uint32_t flow = plan_.link_slot_flow[slot];
        for (std::uint32_t t = nodes.flow_begin[flow]; t < nodes.flow_begin[flow + 1]; ++t) {
            node_incoming_next_[nodes.flow_slots[t]] += out;  // fan-out: one copy per node
            node_live_next_[nodes.flow_slots[t]] = 1;
        }
    }
}

template <bool kNode>
void Fastpath::serveGroup(const GateGroup& group, int worker) {
    EntityState& ent = kNode ? node_state_[group.entity] : link_state_[group.entity];
    const std::uint32_t first = group.slots_begin;
    const std::size_t n = group.slots_end - first;
    std::uint64_t* incoming = (kNode ? node_incoming_.data() : link_incoming_.data()) + first;
    std::uint8_t* backlog = (kNode ? node_backlog_.data() : link_backlog_.data()) + first;
    double* deficit = (kNode ? node_slot_deficit_.data() : link_slot_deficit_.data()) + first;
    const double* cost = (kNode ? node_slot_cost_.data() : plan_.link_slot_cost.data()) + first;
    std::uint8_t* live = (kNode ? node_live_.data() : link_live_.data()) + first;
    const auto slot = [first](std::size_t k) { return first + static_cast<std::uint32_t>(k); };

    // A clean gate has no queue and no non-zero link wait.  Its slots
    // without arrivals then have nothing to serve, add +0.0 to the cost
    // sums and hold a zero wait that no estimate adds, so its gather
    // and uncontended serve visit only its live slots, in slot order.
    // Any other gate walks its whole range, and so does every contended
    // serve; deficits and carried budget are read only there or per
    // gate, so they need no condition here.
    const bool clean = ent.queue_depth == 0 && !ent.waits_set;
    std::uint32_t* live_slots = scratch_live_[static_cast<std::size_t>(worker)].data();
    std::size_t live_count = 0;
    if (clean) {
        for (std::size_t k = 0; k < n; ++k) {
            live_slots[live_count] = static_cast<std::uint32_t>(k);
            live_count += live[k];
        }
    }
    std::fill(live, live + n, std::uint8_t{0});
    // This serve rewrites every wait that may be non-zero; the scatter
    // sets the flag again for each non-zero one it writes.
    ent.waits_set = false;
    const auto each = [&](auto&& body) {
        if (clean) {
            for (std::size_t m = 0; m < live_count; ++m) body(live_slots[m]);
        } else {
            for (std::size_t k = 0; k < n; ++k) body(k);
        }
    };

    // Gather: this quantum's arrivals plus the standing backlog, priced
    // in fixed slot (flow) order.
    double total_cost = 0.0;
    std::uint64_t arrivals = 0;
    each([&](std::size_t k) {
        arrivals += incoming[k];
        if (cost[k] > 0.0) total_cost += static_cast<double>(incoming[k] + backlog[k]) * cost[k];
    });
    ent.arrivals += arrivals;

    // Spend the per-quantum budget (capacity * quantum plus the carry
    // from backlogged quanta).
    double budget = ent.budget_carry + ent.capacity * options_.quantum;
    double served_cost = 0.0;
    std::uint64_t served_total = 0;
    if (total_cost <= budget) {
        // Uncontended: everything demanded is served, forwarded or
        // delivered in this one pass, and nothing queues.
        if (ent.deficits_set) {
            std::fill(deficit, deficit + n, 0.0);
            ent.deficits_set = false;
        }
        each([&](std::size_t k) {
            const std::uint64_t queued = backlog[k];
            const std::uint64_t out = incoming[k] + queued;
            incoming[k] = 0;
            backlog[k] = 0;
            served_total += out;
            scatterSlot<kNode>(slot(k), out, queued, ent);
        });
        // Everything demanded was served, so the served cost is the
        // gathered one: the gather's skipped terms (cost 0) add +0.0.
        served_cost = total_cost;
        budget -= total_cost;
        ent.queue_depth = 0;
    } else {
        auto& demand = scratch_demand_[static_cast<std::size_t>(worker)];
        auto& served = scratch_served_[static_cast<std::size_t>(worker)];
        auto& backlog_before = scratch_backlog_[static_cast<std::size_t>(worker)];
        demand.assign(n, 0);
        served.assign(n, 0);
        backlog_before.assign(n, 0);
        for (std::size_t k = 0; k < n; ++k) {
            backlog_before[k] = backlog[k];
            demand[k] = incoming[k] + backlog[k];
            incoming[k] = 0;
            backlog[k] = 0;
        }

        // Demand-proportional shares: each slot's fractional ideal share
        // accrues in a per-slot deficit counter until it buys a whole
        // message, so over time every flow gets its arrival-proportional
        // share (the event dataplane's FIFO behaviour) regardless of slot
        // order.  The sub-message overdraft this allows is repaid through
        // the (then negative) budget carry.  Integer messages throughout.
        const double frac = budget > 0.0 ? budget / total_cost : 0.0;
        ent.deficits_set = true;
        for (std::size_t k = 0; k < n; ++k) {
            if (cost[k] <= 0.0) {
                served[k] = demand[k];  // free messages never contend
                continue;
            }
            const double ideal = static_cast<double>(demand[k]) * frac + deficit[k];
            auto grant = static_cast<std::uint64_t>(ideal);  // floor, ideal >= 0
            if (grant > demand[k]) grant = demand[k];
            deficit[k] = std::min(ideal - static_cast<double>(grant), 1.0);
            served[k] = grant;
            budget -= static_cast<double>(grant) * cost[k];
        }
        // Work conservation: the floors leave up to a message's cost per
        // slot unspent, which would otherwise strand a slightly-overloaded
        // gate's budget while most of its one-message slots wait.  Hand out
        // whole messages in rotating slot order (from quanta_ % n, as the
        // queue split below) while one still fits the remaining budget; a
        // slot served above its floor repays one message of deficit,
        // clamped at 0 so `ideal` above never goes negative.
        for (bool granted = true; granted;) {
            granted = false;
            for (std::size_t off = 0; off < n; ++off) {
                const std::size_t k = (static_cast<std::size_t>(quanta_) + off) % n;
                if (served[k] >= demand[k] || !(cost[k] <= budget)) continue;
                ++served[k];
                budget -= cost[k];
                deficit[k] = std::max(deficit[k] - 1.0, 0.0);
                granted = true;
            }
        }

        // Scatter: forward or deliver served cohorts.
        for (std::size_t k = 0; k < n; ++k) {
            served_total += served[k];
            served_cost += static_cast<double>(served[k]) * cost[k];
            scatterSlot<kNode>(slot(k), served[k], backlog_before[k], ent);
        }

        // Queue what fits, drop the rest.  The entity's queue bound is
        // shared across its slots; under overload the room is split
        // proportionally to each slot's unserved count (floor + rotating
        // remainder), emulating the event dataplane's FIFO admission —
        // arrival-order interleaving admits each flow in proportion to its
        // arrivals, never in slot order.
        std::uint64_t total_unserved = 0;
        for (std::size_t k = 0; k < n; ++k) total_unserved += demand[k] - served[k];
        if (total_unserved <= dataplane::kQueueCapacity) {
            for (std::size_t k = 0; k < n; ++k) {
                backlog[k] = static_cast<std::uint8_t>(demand[k] - served[k]);
            }
            ent.queue_depth = total_unserved;
        } else {
            const double ratio = static_cast<double>(dataplane::kQueueCapacity) /
                                 static_cast<double>(total_unserved);
            std::uint64_t kept_total = 0;
            for (std::size_t k = 0; k < n; ++k) {
                const std::uint64_t unserved = demand[k] - served[k];
                const auto kept =
                    static_cast<std::uint64_t>(static_cast<double>(unserved) * ratio);
                backlog[k] = static_cast<std::uint8_t>(kept);
                kept_total += kept;
            }
            // Rotate the start of the remainder hand-out with the quantum
            // counter so no slot is structurally favoured; still a pure
            // function of (quantum, slot order) — worker-independent.
            std::uint64_t leftover = dataplane::kQueueCapacity - kept_total;
            while (leftover > 0) {
                bool granted = false;
                for (std::size_t off = 0; off < n && leftover > 0; ++off) {
                    const std::size_t k = (static_cast<std::size_t>(quanta_) + off) % n;
                    if (backlog[k] < demand[k] - served[k]) {
                        ++backlog[k];
                        --leftover;
                        granted = true;
                    }
                }
                if (!granted) break;  // unreachable: headroom exceeds leftover
            }
            ent.queue_depth = dataplane::kQueueCapacity - leftover;
        }
        for (std::size_t k = 0; k < n; ++k) ent.dropped += demand[k] - served[k] - backlog[k];
    }
    ent.served += served_total;
    if (ent.capacity > 0.0) ent.busy_seconds += served_cost / ent.capacity;
    // Work conservation: an idle server does not bank capacity, a
    // backlogged one keeps its sub-message remainder for next quantum.
    // Debt (the deficit scheme's sub-message overdraft) is always
    // carried — forgiving it on a momentarily drained queue would let
    // the entity serve above capacity indefinitely.
    ent.budget_carry = (ent.queue_depth > 0 || budget < 0.0) ? budget : 0.0;
    ent.peak_queue = std::max(ent.peak_queue, ent.queue_depth);
    worker_messages_[static_cast<std::size_t>(worker)] += served_total;
}

void Fastpath::mergePhase() {
    // Serial, fixed order: every floating-point/histogram side effect
    // that would otherwise depend on worker interleaving lands here.
    for (std::size_t i = 0; i < plan_.flow_count; ++i) {
        const std::uint64_t q = quantum_emitted_[i];
        if (q == 0) continue;
        batches_ += batch_count(q);
        if (obs_attached_) {
            const std::uint64_t full = q / kBatchSize;
            const std::uint64_t rem = q % kBatchSize;
            if (full > 0) obs_.batch_fill->observe(static_cast<double>(kBatchSize), full);
            if (rem > 0) obs_.batch_fill->observe(static_cast<double>(rem));
        }
    }
    // Cohort delivery latency estimate: the static path floor plus this
    // quantum's queue-delay estimates along the flow's chain and at the
    // delivering node.  Serial, flow-major (route order within a flow):
    // the node slots recorded their copies and waits at their fan-out
    // positions, so each flow reads one contiguous range.  A flow's
    // non-zero link waits are collected once, and not at all when no
    // link gate wrote one; the zero ones skipped would add +0.0 to a
    // non-negative sum, which changes no bit.
    bool link_waits = false;
    for (const EntityState& link : link_state_) link_waits = link_waits || link.waits_set;
    const dataplane::NodeCostTable& nodes = plan_.nodes;
    for (std::size_t i = 0; i < plan_.flow_count; ++i) {
        bool waits_collected = false;
        for (std::uint32_t t = nodes.flow_begin[i]; t < nodes.flow_begin[i + 1]; ++t) {
            const std::uint64_t copies = fanout_delivered_[t];
            if (copies == 0) continue;
            if (!waits_collected) {
                merge_waits_.clear();
                for (std::uint32_t h = plan_.flow_link_begin[i];
                     link_waits && h < plan_.flow_link_begin[i + 1]; ++h) {
                    const double wait = link_slot_wait_[plan_.flow_link_slots[h]];
                    if (wait != 0.0) merge_waits_.push_back(wait);
                }
                waits_collected = true;
            }
            double estimate = static_path_latency_[i] + fanout_wait_[t];
            for (const double wait : merge_waits_) estimate += wait;
            latency_.observe(estimate, copies);
            if (obs_attached_) obs_.latency->observe(estimate, copies);
            fanout_delivered_[t] = 0;
        }
    }
}

double Fastpath::achievedUtility(std::size_t cls, std::uint64_t count) {
    AchievedMemo& memo = achieved_memo_[cls];
    if (count < kNoCount) {
        if (count == memo.count[0]) return memo.value[0];
        if (count == memo.count[1]) return memo.value[1];
    }
    const double rate = static_cast<double>(count) / options_.sample_period;
    const double value = spec_.classes()[cls].utility->value(rate);
    if (count < kNoCount) {
        memo.count[1] = memo.count[0];
        memo.value[1] = memo.value[0];
        memo.count[0] = static_cast<std::uint32_t>(count);
        memo.value[0] = value;
    }
    return value;
}

double Fastpath::plannedUtility() {
    // model::total_utility's sum, in class order with the same skip
    // rules.  Every class's U_j is kept at its flow's last rate, and
    // re-evaluated only when that rate's bits move.
    const model::Allocation& plan = planned_noted_ ? planned_ : enacted_;
    for (std::size_t i = 0; i < plan.rates.size(); ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(plan.rates[i]);
        planned_moved_[i] = bits == kNoRate || bits != planned_rate_[i];
        planned_rate_[i] = bits;
    }
    double total = 0.0;
    for (std::size_t j = 0; j < class_flow_.size(); ++j) {
        const std::uint32_t flow = class_flow_[j];
        if (planned_moved_[flow]) {
            planned_value_[j] = spec_.classes()[j].utility->value(plan.rates[flow]);
        }
        if (!spec_.flows()[flow].active) continue;
        const int n = plan.populations[j];
        if (n <= 0) continue;
        total += static_cast<double>(n) * planned_value_[j];
    }
    return total;
}

void Fastpath::takeSample() {
    // Deterministic arrivals make a class's window count alternate
    // between two values, so the memo answers most samples.
    double achieved = 0.0;
    for (std::size_t j = 0; j < window_.size(); ++j) {
        const int population = enacted_.populations[j];
        if (population <= 0) continue;
        achieved += static_cast<double>(population) * achievedUtility(j, window_[j]);
    }
    const double planned = plannedUtility();
    achieved_trace_.append(achieved);
    planned_trace_.append(planned);
    std::fill(window_.begin(), window_.end(), std::uint64_t{0});
    if (obs_attached_) {
        obs_.achieved_utility->set(achieved);
        obs_.planned_utility->set(planned);
        const auto report = [](obs::Counter* counter, std::uint64_t total,
                               std::uint64_t& reported) {
            if (total > reported) {
                counter->add(total - reported);
                reported = total;
            }
        };
        std::uint64_t emitted = 0, shaped = 0;
        for (std::size_t i = 0; i < emitted_.size(); ++i) {
            emitted += emitted_[i];
            shaped += shaped_[i];
        }
        std::uint64_t delivered = 0;
        for (const std::uint64_t d : delivered_) delivered += d;
        std::uint64_t dropped_link = 0, dropped_node = 0;
        for (const EntityState& e : link_state_) dropped_link += e.dropped;
        for (const EntityState& e : node_state_) dropped_node += e.dropped;
        report(obs_.emitted, emitted, obs_emitted_reported_);
        report(obs_.shaped, shaped, obs_shaped_reported_);
        report(obs_.delivered, delivered, obs_delivered_reported_);
        report(obs_.dropped_link, dropped_link, obs_dropped_link_reported_);
        report(obs_.dropped_node, dropped_node, obs_dropped_node_reported_);
        report(obs_.batches, batches_, obs_batches_reported_);
        report(obs_.quanta, quanta_, obs_quanta_reported_);
    }
}

dataplane::DataplaneStats Fastpath::collectStats() const {
    dataplane::DataplaneStats stats;
    stats.elapsed = now();
    stats.events_scheduled = quanta_;  // the calendar analog: steps taken
    stats.enactments = enactments_;

    const double elapsed = stats.elapsed > 0.0 ? stats.elapsed : 1.0;

    for (std::size_t i = 0; i < plan_.flow_count; ++i) {
        dataplane::FlowStats f;
        f.name = spec_.flows()[i].name;
        f.active = active_[i] != 0;
        f.enacted_rate = scheduler_.rate(i);
        f.offered_rate = offeredRate(i);
        f.emitted = emitted_[i];
        f.shaped = shaped_[i];
        stats.total_emitted += f.emitted;
        stats.total_shaped += f.shaped;
        stats.flows.push_back(std::move(f));
    }
    for (std::size_t j = 0; j < spec_.classCount(); ++j) {
        dataplane::ClassStats c;
        c.name = spec_.classes()[j].name;
        c.population = enacted_.populations[j];
        c.delivered = delivered_[j];
        c.achieved_rate = static_cast<double>(delivered_[j]) / elapsed;
        stats.total_delivered += c.delivered;
        stats.classes.push_back(std::move(c));
    }

    std::uint64_t total_arrivals = 0;
    std::uint64_t total_dropped = 0;
    const auto entity = [&](const EntityState& state, std::string name) {
        dataplane::EntityStats e;
        e.name = std::move(name);
        e.capacity = state.capacity;
        e.arrivals = state.arrivals;
        e.served = state.served;
        e.dropped = state.dropped;
        e.queue_depth = state.queue_depth;
        e.peak_queue = state.peak_queue;
        e.utilization = state.busy_seconds / elapsed;
        total_arrivals += e.arrivals;
        total_dropped += e.dropped;
        return e;
    };
    for (std::size_t l = 0; l < link_state_.size(); ++l) {
        stats.links.push_back(entity(link_state_[l], spec_.links()[l].name));
        stats.dropped_link += link_state_[l].dropped;
    }
    for (std::size_t b = 0; b < node_state_.size(); ++b) {
        stats.nodes.push_back(entity(node_state_[b], spec_.nodes()[b].name));
        stats.dropped_node += node_state_[b].dropped;
    }
    stats.drop_rate = total_arrivals > 0 ? static_cast<double>(total_dropped) /
                                               static_cast<double>(total_arrivals)
                                         : 0.0;

    stats.latency.count = latency_.count();
    stats.latency.mean = latency_.mean();
    stats.latency.p50 = latency_.quantile(0.50);
    stats.latency.p90 = latency_.quantile(0.90);
    stats.latency.p99 = latency_.quantile(0.99);
    stats.latency.max = latency_.maxObserved();

    stats.utility.planned = model::total_utility(spec_, planned_noted_ ? planned_ : enacted_);
    stats.utility.enacted = model::total_utility(spec_, enacted_);
    stats.utility.achieved_window = achieved_trace_.empty() ? 0.0 : achieved_trace_.back();
    double cumulative = 0.0;
    for (std::size_t j = 0; j < spec_.classCount(); ++j) {
        const int population = enacted_.populations[j];
        if (population <= 0) continue;
        const double rate = static_cast<double>(delivered_[j]) / elapsed;
        cumulative += static_cast<double>(population) * spec_.classes()[j].utility->value(rate);
    }
    stats.utility.achieved_cumulative = cumulative;
    return stats;
}

std::string Fastpath::statsJson(bool pretty) const {
    return dataplane::stats_to_json(collectStats()).dump(pretty);
}

void Fastpath::attachObservability(obs::Registry* registry) {
    if (registry != nullptr) {
        obs_ = obs::FastpathInstruments::resolve(*registry);
        obs_attached_ = true;
        obs_.workers->set(static_cast<double>(pool_.threadCount()));
        return;
    }
    obs_ = obs::FastpathInstruments{};
    obs_attached_ = false;
}

}  // namespace lrgp::fastpath
