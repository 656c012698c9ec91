#include "dataplane/dataplane.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "dataplane/cost_model.hpp"

namespace lrgp::dataplane {

Dataplane::Dataplane(const model::ProblemSpec& spec, DataplaneOptions options)
    : spec_(spec),
      options_(options),
      node_costs_(NodeCostTable::lower(spec)),
      latency_(metrics::default_latency_bounds()) {
    if (!(options_.token_bucket_depth >= 1.0))
        throw std::invalid_argument("Dataplane: token_bucket_depth must be >= 1");
    if (!(options_.sample_period > 0.0))
        throw std::invalid_argument("Dataplane: sample_period must be > 0");

    const std::size_t flows = spec_.flowCount();
    enacted_.rates.assign(flows, 0.0);
    enacted_.populations.assign(spec_.classCount(), 0);
    planned_ = enacted_;
    delivered_.assign(spec_.classCount(), 0);
    window_.assign(spec_.classCount(), 0);

    link_chain_.resize(flows);
    for (std::size_t i = 0; i < flows; ++i) {
        for (const model::FlowLinkHop& hop : spec_.flows()[i].links) {
            link_chain_[i].push_back(hop.link);
        }
    }

    // Servers and sources schedule lambdas capturing their own address;
    // reserve exact sizes so emplace_back never relocates them.
    sources_.reserve(flows);
    for (std::size_t i = 0; i < flows; ++i) {
        sources_.emplace_back(
            simulator_, static_cast<std::uint32_t>(i), options_.arrivals, options_.seed + i,
            options_.token_bucket_depth,
            [this](const DataMessage& message) { emitFromSource(message); });
        sources_.back().setActive(spec_.flows()[i].active);
    }
    link_servers_.reserve(spec_.linkCount());
    for (std::size_t l = 0; l < spec_.linkCount(); ++l) {
        const model::LinkId link{static_cast<std::uint32_t>(l)};
        link_servers_.emplace_back(
            simulator_, spec_.link(link).capacity, kQueueCapacity,
            [this, link](const DataMessage& message) {
                return link_message_cost(spec_, link, model::FlowId{message.flow});
            },
            [this](const DataMessage& message) { forwardAfterLink(message); });
    }
    node_servers_.reserve(spec_.nodeCount());
    for (std::size_t b = 0; b < spec_.nodeCount(); ++b) {
        const model::NodeId node{static_cast<std::uint32_t>(b)};
        node_servers_.emplace_back(
            simulator_, spec_.node(node).capacity, kQueueCapacity,
            [this](const DataMessage& message) { return nodeMessageCost(message); },
            [this](const DataMessage& message) { deliverAtNode(message); });
    }

    scheduleSampler();
}

void Dataplane::enact(const model::Allocation& allocation) {
    check_enactable(spec_, allocation, "Dataplane::enact");
    for (std::size_t i = 0; i < allocation.rates.size(); ++i) {
        sources_[i].setEnactedRate(allocation.rates[i]);
    }
    enacted_ = allocation;
    ++enactments_;
    if (obs_attached_) obs_.enactments->add();
}

void Dataplane::notePlanned(const model::Allocation& allocation) {
    check_enactable(spec_, allocation, "Dataplane::notePlanned");
    planned_ = allocation;
    planned_noted_ = true;
}

void Dataplane::setFlowActive(model::FlowId flow, bool active) {
    sources_.at(flow.index()).setActive(active);
}

void Dataplane::setOfferedRate(model::FlowId flow, double rate) {
    sources_.at(flow.index()).setOfferedRate(rate);
}

void Dataplane::setNodeCapacity(model::NodeId node, double capacity) {
    node_servers_.at(node.index()).setCapacity(capacity);
}

void Dataplane::runUntil(sim::SimTime until) { simulator_.runUntil(until); }

void Dataplane::emitFromSource(const DataMessage& message) {
    if (obs_attached_) obs_.emitted->add();
    const auto& chain = link_chain_[message.flow];
    if (chain.empty()) {
        simulator_.schedule(kPropagationDelay,
                            [this, message] { fanOutToNodes(message); });
        return;
    }
    const model::LinkId first = chain.front();
    simulator_.schedule(kPropagationDelay, [this, first, message] {
        if (!link_servers_[first.index()].arrive(message)) {
            ++dropped_link_;
            if (obs_attached_) obs_.dropped_link->add();
        }
    });
}

void Dataplane::forwardAfterLink(const DataMessage& message) {
    const auto& chain = link_chain_[message.flow];
    const std::uint32_t next_stage = message.link_stage + 1;
    if (next_stage < chain.size()) {
        DataMessage forwarded = message;
        forwarded.link_stage = next_stage;
        const model::LinkId next = chain[next_stage];
        simulator_.schedule(kPropagationDelay, [this, next, forwarded] {
            if (!link_servers_[next.index()].arrive(forwarded)) {
                ++dropped_link_;
                if (obs_attached_) obs_.dropped_link->add();
            }
        });
        return;
    }
    simulator_.schedule(kPropagationDelay, [this, message] { fanOutToNodes(message); });
}

void Dataplane::fanOutToNodes(const DataMessage& message) {
    DataMessage copy = message;
    for (std::uint32_t t = node_costs_.flow_begin[message.flow];
         t < node_costs_.flow_begin[message.flow + 1]; ++t) {
        copy.node_slot = node_costs_.flow_slots[t];
        if (!node_servers_[node_costs_.slot_node[copy.node_slot]].arrive(copy)) {
            ++dropped_node_;
            if (obs_attached_) obs_.dropped_node->add();
        }
    }
}

double Dataplane::nodeMessageCost(const DataMessage& message) const {
    return node_message_cost(node_costs_, message.node_slot, enacted_.populations);
}

void Dataplane::deliverAtNode(const DataMessage& message) {
    const std::uint32_t slot = message.node_slot;
    for (std::uint32_t c = node_costs_.class_begin[slot]; c < node_costs_.class_begin[slot + 1];
         ++c) {
        const std::uint32_t j = node_costs_.classes[c];
        if (enacted_.populations[j] <= 0) continue;
        ++delivered_[j];
        ++window_[j];
        const double latency = simulator_.now() - message.emitted_at;
        latency_.observe(latency);
        if (obs_attached_) {
            obs_.delivered->add();
            obs_.latency->observe(latency);
        }
    }
}

void Dataplane::scheduleSampler() {
    simulator_.schedule(options_.sample_period, [this] {
        takeSample();
        scheduleSampler();
    });
}

void Dataplane::takeSample() {
    double achieved = 0.0;
    for (std::size_t j = 0; j < window_.size(); ++j) {
        const int population = enacted_.populations[j];
        if (population <= 0) continue;
        const double rate = static_cast<double>(window_[j]) / options_.sample_period;
        achieved += static_cast<double>(population) *
                    spec_.classes()[j].utility->value(rate);
    }
    const model::Allocation& plan = planned_noted_ ? planned_ : enacted_;
    const double planned = model::total_utility(spec_, plan);
    achieved_trace_.append(achieved);
    planned_trace_.append(planned);
    std::fill(window_.begin(), window_.end(), std::uint64_t{0});
    if (obs_attached_) {
        obs_.achieved_utility->set(achieved);
        obs_.planned_utility->set(planned);
        std::uint64_t shaped = 0;
        for (const TrafficSource& source : sources_) shaped += source.shaped();
        if (shaped > obs_shaped_reported_) {
            obs_.shaped->add(shaped - obs_shaped_reported_);
            obs_shaped_reported_ = shaped;
        }
    }
}

DataplaneStats Dataplane::collectStats() const {
    DataplaneStats stats;
    stats.elapsed = simulator_.now();
    stats.events_scheduled = simulator_.scheduledEvents();
    stats.enactments = enactments_;
    stats.dropped_link = dropped_link_;
    stats.dropped_node = dropped_node_;

    const double elapsed = stats.elapsed > 0.0 ? stats.elapsed : 1.0;

    for (std::size_t i = 0; i < sources_.size(); ++i) {
        const TrafficSource& source = sources_[i];
        FlowStats f;
        f.name = spec_.flows()[i].name;
        f.active = source.active();
        f.enacted_rate = source.enactedRate();
        f.offered_rate = source.offeredRate();
        f.emitted = source.emitted();
        f.shaped = source.shaped();
        stats.total_emitted += f.emitted;
        stats.total_shaped += f.shaped;
        stats.flows.push_back(std::move(f));
    }
    for (std::size_t j = 0; j < spec_.classCount(); ++j) {
        ClassStats c;
        c.name = spec_.classes()[j].name;
        c.population = enacted_.populations[j];
        c.delivered = delivered_[j];
        c.achieved_rate = static_cast<double>(delivered_[j]) / elapsed;
        stats.total_delivered += c.delivered;
        stats.classes.push_back(std::move(c));
    }

    std::uint64_t total_arrivals = 0;
    std::uint64_t total_dropped = 0;
    const auto entity = [&](const QueueServer& server, std::string name) {
        EntityStats e;
        e.name = std::move(name);
        e.capacity = server.capacity();
        e.arrivals = server.stats().arrivals;
        e.served = server.stats().served;
        e.dropped = server.stats().dropped;
        e.queue_depth = server.queueDepth();
        e.peak_queue = server.stats().peak_queue;
        e.utilization = server.stats().busy_seconds / elapsed;
        total_arrivals += e.arrivals;
        total_dropped += e.dropped;
        return e;
    };
    for (std::size_t l = 0; l < link_servers_.size(); ++l) {
        stats.links.push_back(entity(link_servers_[l], spec_.links()[l].name));
    }
    for (std::size_t b = 0; b < node_servers_.size(); ++b) {
        stats.nodes.push_back(entity(node_servers_[b], spec_.nodes()[b].name));
    }
    stats.drop_rate =
        total_arrivals > 0 ? static_cast<double>(total_dropped) / static_cast<double>(total_arrivals)
                           : 0.0;

    stats.latency.count = latency_.count();
    stats.latency.mean = latency_.mean();
    stats.latency.p50 = latency_.quantile(0.50);
    stats.latency.p90 = latency_.quantile(0.90);
    stats.latency.p99 = latency_.quantile(0.99);
    stats.latency.max = latency_.maxObserved();

    stats.utility.planned =
        model::total_utility(spec_, planned_noted_ ? planned_ : enacted_);
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

std::string Dataplane::statsJson(bool pretty) const {
    return stats_to_json(collectStats()).dump(pretty);
}

void Dataplane::attachObservability(obs::Registry* registry) {
    if (registry != nullptr) {
        obs_ = obs::DataplaneInstruments::resolve(*registry);
        obs_attached_ = true;
        return;
    }
    obs_ = obs::DataplaneInstruments{};
    obs_attached_ = false;
}

}  // namespace lrgp::dataplane
