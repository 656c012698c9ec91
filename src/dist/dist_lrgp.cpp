#include "dist/dist_lrgp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lrgp::dist {

namespace {

constexpr sim::SimTime kNeverHeard = -std::numeric_limits<sim::SimTime>::infinity();

// Hardening (DistOptions::hardened).  A priced resource, or a flow seen
// from a node or link, is suspected once silent for kHeartbeatTimeout.
// Price-window entries older than kPriceMaxAge expire, but the newest is
// kept as the last-known price.  A suspected resource gets a rate only
// when its re-announcement backoff, doubling from kReannounceBackoffMin
// up to kReannounceBackoffMax, expires.  A source with more than
// kDegradeFraction of its priced resources suspected sends r_min.
constexpr sim::SimTime kHeartbeatTimeout = 0.25;
constexpr sim::SimTime kPriceMaxAge = 0.6;
constexpr sim::SimTime kReannounceBackoffMin = 0.05;
constexpr sim::SimTime kReannounceBackoffMax = 0.8;
constexpr double kDegradeFraction = 0.5;
static_assert(kHeartbeatTimeout >= 0.0 && kPriceMaxAge >= 0.0 && kReannounceBackoffMin >= 0.0,
              "hardening timeouts must be >= 0");
static_assert(kDegradeFraction >= 0.0 && kDegradeFraction <= 1.0,
              "kDegradeFraction must lie in [0, 1]");
static_assert(kReannounceBackoffMin <= kReannounceBackoffMax,
              "kReannounceBackoffMin must not exceed kReannounceBackoffMax");
// Expiring prices faster than failures are detected would leave a
// suspected resource with no last-known price to degrade from.
static_assert(kPriceMaxAge >= kHeartbeatTimeout, "kPriceMaxAge must be >= kHeartbeatTimeout");

faults::AgentRef sourceRef(model::FlowId id) {
    return {faults::AgentKind::kSource, static_cast<std::uint32_t>(id.value)};
}
faults::AgentRef nodeRef(model::NodeId id) {
    return {faults::AgentKind::kNode, static_cast<std::uint32_t>(id.value)};
}
faults::AgentRef linkRef(model::LinkId id) {
    return {faults::AgentKind::kLink, static_cast<std::uint32_t>(id.value)};
}

const char* agent_kind_name(faults::AgentKind kind) {
    switch (kind) {
        case faults::AgentKind::kSource: return "source";
        case faults::AgentKind::kNode: return "node";
        case faults::AgentKind::kLink: return "link";
    }
    return "unknown";
}

}  // namespace

// ----------------------------------------------------------------- agents

/// One per flow: runs Algorithm 1 (rate allocation) at the flow source.
struct DistLrgp::SourceAgent {
    DistLrgp* driver = nullptr;
    model::FlowId flow;
    bool active = true;
    bool down = false;            ///< crashed (fault injection)
    std::uint32_t timer_epoch = 0;  ///< invalidates stale async timers

    // Latest known populations for this flow's classes (full-size vector,
    // only this flow's class entries are ever non-zero).
    std::vector<int> populations;

    // Latest/windowed prices per resource, timestamped so stale entries
    // can expire; full-size PriceVector rebuilt before each rate
    // computation.
    struct PriceSample {
        sim::SimTime time;
        double value;
    };
    std::unordered_map<std::uint32_t, std::deque<PriceSample>> node_price_window;
    std::unordered_map<std::uint32_t, std::deque<PriceSample>> link_price_window;

    // Heartbeat bookkeeping, one entry per priced resource on the route
    // (nodes first, then links, in route order — the same order
    // computeAndSend visits them).
    struct ResourceWatch {
        bool is_link = false;
        std::uint32_t key = 0;
        sim::SimTime last_heard = 0.0;
        bool suspected = false;
        sim::SimTime next_reannounce = 0.0;
        sim::SimTime backoff = 0.0;
    };
    std::vector<ResourceWatch> watches;
    /// True while contact with more than kDegradeFraction of the priced
    /// resources is lost; the source then clamps to r_min.
    bool degraded = false;

    double latest_rate = 0.0;

    // Sync bookkeeping: reports received per round.
    std::unordered_map<int, std::size_t> reports_for_round;
    std::size_t expected_reports = 0;

    void recordPrice(std::unordered_map<std::uint32_t, std::deque<PriceSample>>& window,
                     std::uint32_t key, double price) {
        // Averaging over recent prices is an asynchronous-mode tolerance
        // mechanism (Section 3.5); the synchronous protocol must use
        // exactly the latest price to match the centralized iteration.
        const std::size_t effective_window =
            driver->options_.synchronous ? 1 : driver->options_.price_window;
        auto& dq = window[key];
        dq.push_back(PriceSample{driver->simulator_.now(), price});
        while (dq.size() > effective_window) dq.pop_front();
    }

    /// Stale-price expiry: drops window entries older than kPriceMaxAge
    /// but always keeps the newest sample as the last-known price — a
    /// silent resource keeps its final price rather than reverting to 0
    /// (which would send the rate to r_max on no information).
    void prunePriceWindows(sim::SimTime now) {
        for (auto* window : {&node_price_window, &link_price_window})
            for (auto& [key, dq] : *window)
                while (dq.size() > 1 && now - dq.front().time > kPriceMaxAge) dq.pop_front();
    }

    [[nodiscard]] core::PriceVector assemblePrices() const {
        core::PriceVector prices = core::PriceVector::zeros(driver->spec_.nodeCount(),
                                                            driver->spec_.linkCount());
        for (const auto& [key, dq] : node_price_window) {
            double sum = 0.0;
            for (const PriceSample& p : dq) sum += p.value;
            prices.node[key] = dq.empty() ? 0.0 : sum / static_cast<double>(dq.size());
        }
        for (const auto& [key, dq] : link_price_window) {
            double sum = 0.0;
            for (const PriceSample& p : dq) sum += p.value;
            prices.link[key] = dq.empty() ? 0.0 : sum / static_cast<double>(dq.size());
        }
        return prices;
    }

    void updateSuspicions(sim::SimTime now) {
        std::size_t suspected_count = 0;
        for (ResourceWatch& w : watches) {
            const bool silent = now - w.last_heard > kHeartbeatTimeout;
            if (silent && !w.suspected) {
                w.suspected = true;
                w.backoff = kReannounceBackoffMin;
                w.next_reannounce = now;
                driver->noteSuspicion("source");
            } else if (!silent && w.suspected) {
                w.suspected = false;
            }
            if (w.suspected) ++suspected_count;
        }
        degraded = !watches.empty() &&
                   static_cast<double>(suspected_count) >
                       kDegradeFraction * static_cast<double>(watches.size());
    }

    void touchWatch(bool is_link, std::uint32_t key, sim::SimTime now) {
        for (ResourceWatch& w : watches) {
            if (w.is_link == is_link && w.key == key) {
                w.last_heard = now;
                w.suspected = false;
                return;
            }
        }
    }

    /// Whether this tick should send a rate to watch `idx`: healthy
    /// resources get one every tick; suspected ones only when their
    /// exponential backoff expires (re-announcement without flooding).
    [[nodiscard]] bool shouldSendTo(std::size_t idx, sim::SimTime now) {
        ResourceWatch& w = watches[idx];
        if (!w.suspected) return true;
        if (now >= w.next_reannounce) {
            w.next_reannounce = now + w.backoff;
            w.backoff = std::min(w.backoff * 2.0, kReannounceBackoffMax);
            driver->noteReannouncement();
            return true;
        }
        return false;
    }

    void crash() {
        down = true;
        ++timer_epoch;
        node_price_window.clear();
        link_price_window.clear();
        std::fill(populations.begin(), populations.end(), 0);
        latest_rate = 0.0;
        degraded = false;
        reports_for_round.clear();
    }

    void restart() {
        down = false;
        ++timer_epoch;
        // Full state loss: the restarted source has heard from nobody.
        // With hardening on, every resource is immediately suspected, so
        // the first ticks run degraded at r_min until reports arrive —
        // the conservative restart the degradation policy prescribes.
        for (ResourceWatch& w : watches) {
            w.last_heard = kNeverHeard;
            w.suspected = false;
            w.next_reannounce = 0.0;
            w.backoff = 0.0;
        }
        degraded = false;
    }

    void computeAndSend(int round);
    void onNodeReport(model::NodeId node, double price,
                      const std::vector<std::pair<model::ClassId, int>>& pops, int round);
    void onLinkReport(model::LinkId link, double price, int round);
    void onTick(std::uint32_t epoch);
};

/// One per node: runs Algorithm 2 (greedy consumer allocation + pricing).
struct DistLrgp::NodeAgent {
    DistLrgp* driver = nullptr;
    model::NodeId node;
    bool down = false;
    std::uint32_t timer_epoch = 0;
    std::unique_ptr<core::NodePriceController> price_controller;

    std::vector<double> rates;  // latest rate per flow (full-size)
    std::vector<std::pair<model::ClassId, int>> latest_populations;

    // Heartbeats: when each flow's rate was last heard; silent flows are
    // suspected and clamped to their r_min floor for allocation.
    std::vector<sim::SimTime> last_rate_time;  // full-size, per flow
    std::vector<char> flow_suspected;          // full-size, per flow
    std::vector<double> effective_rates;       // scratch for the clamped view

    std::unordered_map<int, std::size_t> rates_for_round;

    [[nodiscard]] std::size_t expectedFlows() const {
        std::size_t n = 0;
        for (model::FlowId i : driver->spec_.flowsAtNode(node))
            if (driver->spec_.flowActive(i)) ++n;
        return n;
    }

    void resetRates() {
        rates.assign(driver->spec_.flowCount(), 0.0);
        for (const model::FlowSpec& f : driver->spec_.flows())
            rates[f.id.index()] = f.rate_min;
    }

    void crash() {
        down = true;
        ++timer_epoch;
        latest_populations.clear();
        rates_for_round.clear();
    }

    void restart() {
        down = false;
        ++timer_epoch;
        // State loss: rates back to the floor, pricing state gone, and
        // every flow starts suspected until a fresh rate arrives.
        resetRates();
        price_controller->reset();
        latest_populations.clear();
        last_rate_time.assign(driver->spec_.flowCount(), kNeverHeard);
        std::fill(flow_suspected.begin(), flow_suspected.end(), 0);
    }

    void allocateAndReport(int round);
    void onRate(model::FlowId flow, double rate, int round);
    void onFlowRemoved(model::FlowId flow);
    void onTick(std::uint32_t epoch);
};

/// One per link: runs Algorithm 3 (gradient-projection link pricing).
struct DistLrgp::LinkAgent {
    DistLrgp* driver = nullptr;
    model::LinkId link;
    bool down = false;
    std::uint32_t timer_epoch = 0;
    std::unique_ptr<core::LinkPriceController> price_controller;

    std::vector<double> rates;
    std::vector<sim::SimTime> last_rate_time;
    std::vector<char> flow_suspected;
    std::unordered_map<int, std::size_t> rates_for_round;

    [[nodiscard]] std::size_t expectedFlows() const {
        std::size_t n = 0;
        for (model::FlowId i : driver->spec_.flowsOnLink(link))
            if (driver->spec_.flowActive(i)) ++n;
        return n;
    }

    void resetRates() {
        rates.assign(driver->spec_.flowCount(), 0.0);
        for (const model::FlowSpec& f : driver->spec_.flows())
            rates[f.id.index()] = f.rate_min;
    }

    void crash() {
        down = true;
        ++timer_epoch;
        rates_for_round.clear();
    }

    void restart() {
        down = false;
        ++timer_epoch;
        resetRates();
        price_controller->reset();
        last_rate_time.assign(driver->spec_.flowCount(), kNeverHeard);
        std::fill(flow_suspected.begin(), flow_suspected.end(), 0);
    }

    void priceAndReport(int round);
    void onRate(model::FlowId flow, double rate, int round);
    void onTick(std::uint32_t epoch);
};

// ---------------------------------------------------------- agent methods

void DistLrgp::SourceAgent::computeAndSend(int round) {
    if (!active || down) return;
    const sim::SimTime now = driver->simulator_.now();
    const bool hardened = driver->hardened();
    if (hardened) {
        updateSuspicions(now);
        prunePriceWindows(now);
    }
    const core::PriceVector prices = assemblePrices();
    double rate = driver->rate_allocator_.computeRate(flow, populations, prices).rate;
    const model::FlowSpec& f = driver->spec_.flow(flow);
    // Graceful degradation: out of touch with most priced resources
    // means the assembled prices are fiction — fall back to the
    // conservative floor instead of trusting them.
    if (degraded) rate = f.rate_min;
    latest_rate = rate;

    std::size_t watch_idx = 0;
    for (const model::FlowNodeHop& hop : f.nodes) {
        const std::size_t idx = watch_idx++;
        if (hardened && !shouldSendTo(idx, now)) continue;
        NodeAgent* target = driver->node_agents_[hop.node.index()].get();
        const model::FlowId flow_copy = flow;
        const double rate_copy = latest_rate;
        driver->sendMessage(
            {sourceRef(flow), nodeRef(hop.node), faults::MessageKind::kRate}, std::nullopt,
            [target, flow_copy, rate_copy, round](double) {
                target->onRate(flow_copy, rate_copy, round);
            });
    }
    for (const model::FlowLinkHop& hop : f.links) {
        const std::size_t idx = watch_idx++;
        if (hardened && !shouldSendTo(idx, now)) continue;
        LinkAgent* target = driver->link_agents_[hop.link.index()].get();
        const model::FlowId flow_copy = flow;
        const double rate_copy = latest_rate;
        driver->sendMessage(
            {sourceRef(flow), linkRef(hop.link), faults::MessageKind::kRate}, std::nullopt,
            [target, flow_copy, rate_copy, round](double) {
                target->onRate(flow_copy, rate_copy, round);
            });
    }
}

void DistLrgp::SourceAgent::onNodeReport(
    model::NodeId node, double price, const std::vector<std::pair<model::ClassId, int>>& pops,
    int round) {
    if (!active || down) return;
    recordPrice(node_price_window, static_cast<std::uint32_t>(node.value), price);
    if (driver->hardened())
        touchWatch(/*is_link=*/false, static_cast<std::uint32_t>(node.value),
                   driver->simulator_.now());
    for (const auto& [cls, n] : pops) populations[cls.index()] = n;
    if (driver->options_.synchronous) {
        if (++reports_for_round[round] == expected_reports) {
            reports_for_round.erase(round);
            computeAndSend(round + 1);
        }
    }
}

void DistLrgp::SourceAgent::onLinkReport(model::LinkId link, double price, int round) {
    if (!active || down) return;
    recordPrice(link_price_window, static_cast<std::uint32_t>(link.value), price);
    if (driver->hardened())
        touchWatch(/*is_link=*/true, static_cast<std::uint32_t>(link.value),
                   driver->simulator_.now());
    if (driver->options_.synchronous) {
        if (++reports_for_round[round] == expected_reports) {
            reports_for_round.erase(round);
            computeAndSend(round + 1);
        }
    }
}

void DistLrgp::SourceAgent::onTick(std::uint32_t epoch) {
    if (epoch != timer_epoch || down || !active) return;
    computeAndSend(/*round=*/-1);
    driver->simulator_.schedule(driver->options_.agent_period,
                                [this, e = timer_epoch] { onTick(e); });
}

void DistLrgp::NodeAgent::allocateAndReport(int round) {
    if (down) return;
    const std::vector<double>* rate_view = &rates;
    if (driver->hardened()) {
        // Failure detection: clamp flows that have gone silent past the
        // heartbeat timeout to their r_min floor — a vanished source no
        // longer holds consumer capacity at its stale (higher) rate.
        const sim::SimTime now = driver->simulator_.now();
        effective_rates = rates;
        for (model::FlowId i : driver->spec_.flowsAtNode(node)) {
            if (!driver->spec_.flowActive(i)) continue;
            const bool silent = now - last_rate_time[i.index()] > kHeartbeatTimeout;
            if (silent && !flow_suspected[i.index()]) {
                flow_suspected[i.index()] = 1;
                driver->noteSuspicion("node");
            } else if (!silent) {
                flow_suspected[i.index()] = 0;
            }
            if (silent) {
                const double floor = driver->spec_.flow(i).rate_min;
                effective_rates[i.index()] = std::min(effective_rates[i.index()], floor);
            }
        }
        rate_view = &effective_rates;
    }

    const core::NodeAllocationResult result = driver->greedy_allocator_.allocate(node, *rate_view);
    latest_populations = result.populations;
    const double capacity = driver->spec_.node(node).capacity;
    const double price = price_controller->update(result.best_unmet_bc, result.used, capacity);

    // Group this node's class populations by flow and report to sources.
    for (model::FlowId i : driver->spec_.flowsAtNode(node)) {
        if (!driver->spec_.flowActive(i)) continue;
        std::vector<std::pair<model::ClassId, int>> pops;
        for (const auto& [cls, n] : result.populations)
            if (driver->spec_.consumerClass(cls).flow == i) pops.emplace_back(cls, n);
        SourceAgent* target = driver->sources_[i.index()].get();
        const model::NodeId node_copy = node;
        driver->sendMessage(
            {nodeRef(node), sourceRef(i), faults::MessageKind::kNodeReport}, price,
            [target, node_copy, pops = std::move(pops), round](double delivered_price) {
                target->onNodeReport(node_copy, delivered_price, pops, round);
            });
    }
    if (driver->options_.synchronous && round > 0) driver->onRoundCompletedAtNode(round, *this);
}

void DistLrgp::NodeAgent::onRate(model::FlowId flow, double rate, int round) {
    if (down) return;
    if (!driver->spec_.flowActive(flow)) return;
    rates[flow.index()] = rate;
    last_rate_time[flow.index()] = driver->simulator_.now();
    flow_suspected[flow.index()] = 0;
    if (driver->options_.synchronous) {
        if (++rates_for_round[round] == expectedFlows()) {
            rates_for_round.erase(round);
            allocateAndReport(round);
        }
    }
}

void DistLrgp::NodeAgent::onFlowRemoved(model::FlowId flow) { rates[flow.index()] = 0.0; }

void DistLrgp::NodeAgent::onTick(std::uint32_t epoch) {
    if (epoch != timer_epoch || down) return;
    if (expectedFlows() > 0) allocateAndReport(/*round=*/-1);
    driver->simulator_.schedule(driver->options_.agent_period,
                                [this, e = timer_epoch] { onTick(e); });
}

void DistLrgp::LinkAgent::priceAndReport(int round) {
    if (down) return;
    const bool hardened = driver->hardened();
    const sim::SimTime now = driver->simulator_.now();
    double usage = 0.0;
    for (model::FlowId i : driver->spec_.flowsOnLink(link)) {
        if (!driver->spec_.flowActive(i)) continue;
        double rate = rates[i.index()];
        if (hardened) {
            const bool silent = now - last_rate_time[i.index()] > kHeartbeatTimeout;
            if (silent && !flow_suspected[i.index()]) {
                flow_suspected[i.index()] = 1;
                driver->noteSuspicion("link");
            } else if (!silent) {
                flow_suspected[i.index()] = 0;
            }
            if (silent) rate = std::min(rate, driver->spec_.flow(i).rate_min);
        }
        usage += driver->spec_.linkCost(link, i) * rate;
    }
    const double price = price_controller->update(usage, driver->spec_.link(link).capacity);
    for (model::FlowId i : driver->spec_.flowsOnLink(link)) {
        if (!driver->spec_.flowActive(i)) continue;
        SourceAgent* target = driver->sources_[i.index()].get();
        const model::LinkId link_copy = link;
        driver->sendMessage(
            {linkRef(link), sourceRef(i), faults::MessageKind::kLinkReport}, price,
            [target, link_copy, round](double delivered_price) {
                target->onLinkReport(link_copy, delivered_price, round);
            });
    }
}

void DistLrgp::LinkAgent::onRate(model::FlowId flow, double rate, int round) {
    if (down) return;
    if (!driver->spec_.flowActive(flow)) return;
    rates[flow.index()] = rate;
    last_rate_time[flow.index()] = driver->simulator_.now();
    flow_suspected[flow.index()] = 0;
    if (driver->options_.synchronous) {
        if (++rates_for_round[round] == expectedFlows()) {
            rates_for_round.erase(round);
            priceAndReport(round);
        }
    }
}

void DistLrgp::LinkAgent::onTick(std::uint32_t epoch) {
    if (epoch != timer_epoch || down) return;
    if (expectedFlows() > 0) priceAndReport(/*round=*/-1);
    driver->simulator_.schedule(driver->options_.agent_period,
                                [this, e = timer_epoch] { onTick(e); });
}

// ------------------------------------------------------------------ driver

DistOptions DistLrgp::validated(DistOptions options) {
    if (options.latency_min < 0.0)
        throw std::invalid_argument("DistLrgp: latency_min must be >= 0");
    if (options.latency_min > options.latency_max)
        throw std::invalid_argument("DistLrgp: latency_min must be <= latency_max");
    if (options.message_loss_probability < 0.0 || options.message_loss_probability >= 1.0)
        throw std::invalid_argument("DistLrgp: message loss probability must be in [0, 1)");
    if (options.price_window == 0)
        throw std::invalid_argument("DistLrgp: price_window must be >= 1");

    options.fault_plan.validate();

    if (options.synchronous) {
        // In synchronous mode the per-round utility must be read before any
        // upstream report lands; a strictly positive latency guarantees it.
        if (!(options.latency_min > 0.0))
            throw std::invalid_argument("DistLrgp: synchronous mode needs latency_min > 0");
        // Synchronous rounds count messages; losing, reordering or
        // corrupting one deadlocks or desynchronizes the round.
        if (options.message_loss_probability > 0.0)
            throw std::invalid_argument(
                "DistLrgp: message loss is only meaningful in asynchronous mode");
        if (!options.fault_plan.empty())
            throw std::invalid_argument(
                "DistLrgp: fault injection requires asynchronous mode");
        if (options.hardened)
            throw std::invalid_argument("DistLrgp: hardening requires asynchronous mode");
    } else {
        if (!(options.agent_period > 0.0))
            throw std::invalid_argument("DistLrgp: agent_period must be > 0");
        if (!(options.sample_period > 0.0))
            throw std::invalid_argument("DistLrgp: sample_period must be > 0");
    }
    return options;
}

DistLrgp::DistLrgp(model::ProblemSpec spec, DistOptions options)
    : spec_(std::move(spec)),
      options_(validated(std::move(options))),
      latency_(options_.latency_min, options_.latency_max, options_.seed),
      rate_allocator_(spec_, options_.rate_solve),
      greedy_allocator_(spec_) {
    loss_rng_state_ = 0x853C49E6748FEA9Bull ^ options_.seed;
    if (!options_.fault_plan.empty()) {
        validateFaultPlanAgents();
        injector_ = std::make_unique<faults::FaultInjector>(options_.fault_plan, options_.seed);
    }

    for (const model::FlowSpec& f : spec_.flows()) {
        auto src = std::make_unique<SourceAgent>();
        src->driver = this;
        src->flow = f.id;
        src->active = f.active;
        src->populations.assign(spec_.classCount(), 0);
        src->expected_reports = f.nodes.size() + f.links.size();
        src->watches.reserve(f.nodes.size() + f.links.size());
        for (const model::FlowNodeHop& hop : f.nodes)
            src->watches.push_back(SourceAgent::ResourceWatch{
                false, static_cast<std::uint32_t>(hop.node.value), 0.0, false, 0.0, 0.0});
        for (const model::FlowLinkHop& hop : f.links)
            src->watches.push_back(SourceAgent::ResourceWatch{
                true, static_cast<std::uint32_t>(hop.link.value), 0.0, false, 0.0, 0.0});
        sources_.push_back(std::move(src));
    }
    for (const model::NodeSpec& b : spec_.nodes()) {
        auto agent = std::make_unique<NodeAgent>();
        agent->driver = this;
        agent->node = b.id;
        agent->price_controller = std::make_unique<core::NodePriceController>(options_.gamma);
        agent->resetRates();
        agent->last_rate_time.assign(spec_.flowCount(), 0.0);
        agent->flow_suspected.assign(spec_.flowCount(), 0);
        node_agents_.push_back(std::move(agent));
    }
    for (const model::LinkSpec& l : spec_.links()) {
        auto agent = std::make_unique<LinkAgent>();
        agent->driver = this;
        agent->link = l.id;
        agent->price_controller =
            std::make_unique<core::LinkPriceController>(options_.link_gamma);
        agent->resetRates();
        agent->last_rate_time.assign(spec_.flowCount(), 0.0);
        agent->flow_suspected.assign(spec_.flowCount(), 0);
        link_agents_.push_back(std::move(agent));
    }

    scheduleCrashes();

    // Synchronous kickoff (the round-1 announcements) is deferred to the
    // first run call so a registry attached between construction and
    // runRounds() observes every message.
    if (!options_.synchronous) {
        scheduleAsyncTimers();
        scheduleSampler();
    }
}

DistLrgp::~DistLrgp() = default;

void DistLrgp::validateFaultPlanAgents() const {
    auto check = [this](const faults::AgentRef& ref, const char* what) {
        std::size_t count = 0;
        switch (ref.kind) {
            case faults::AgentKind::kSource: count = spec_.flowCount(); break;
            case faults::AgentKind::kNode: count = spec_.nodeCount(); break;
            case faults::AgentKind::kLink: count = spec_.linkCount(); break;
        }
        if (ref.index >= count)
            throw std::invalid_argument(std::string("DistLrgp: fault plan ") + what +
                                        " references an agent outside the problem");
    };
    const faults::FaultPlan& plan = options_.fault_plan;
    for (const auto& f : plan.losses) {
        if (f.from) check(*f.from, "loss burst");
        if (f.to) check(*f.to, "loss burst");
    }
    for (const auto& f : plan.delay_spikes) {
        if (f.from) check(*f.from, "delay spike");
        if (f.to) check(*f.to, "delay spike");
    }
    for (const auto& f : plan.partitions)
        for (const auto& member : f.island) check(member, "partition");
    for (const auto& f : plan.asymmetric_partitions)
        for (const auto& member : f.island) check(member, "asymmetric partition");
    for (const auto& f : plan.crashes) check(f.agent, "crash");
    for (const auto& f : plan.corruptions)
        if (f.from) check(*f.from, "price corruption");
}

void DistLrgp::sendMessage(const faults::MessageContext& ctx, std::optional<double> price,
                           std::function<void(double)> handler) {
    ++messages_sent_;
    if (obs_attached_) {
        switch (ctx.kind) {
            case faults::MessageKind::kRate: dist_instr_.sent_rate->add(1); break;
            case faults::MessageKind::kNodeReport:
                dist_instr_.sent_node_report->add(1);
                break;
            case faults::MessageKind::kLinkReport:
                dist_instr_.sent_link_report->add(1);
                break;
        }
    }
    if (options_.message_loss_probability > 0.0) {
        // xorshift64: deterministic loss pattern per seed.
        loss_rng_state_ ^= loss_rng_state_ << 13;
        loss_rng_state_ ^= loss_rng_state_ >> 7;
        loss_rng_state_ ^= loss_rng_state_ << 17;
        const double unit = static_cast<double>(loss_rng_state_ >> 11) * 0x1.0p-53;
        if (unit < options_.message_loss_probability) {
            ++messages_lost_;
            if (obs_attached_) dist_instr_.dropped_loss->add(1);
            return;  // dropped in transit
        }
    }
    sim::SimTime extra_delay = 0.0;
    double payload = price.value_or(0.0);
    if (injector_) {
        const faults::FaultDecision decision = injector_->onMessage(ctx, simulator_.now());
        if (decision.drop) {
            ++messages_lost_;
            if (obs_attached_) dist_instr_.dropped_fault->add(1);
            return;
        }
        extra_delay = decision.extra_delay;
        if (price) payload *= decision.price_factor;
    }
    simulator_.schedule(latency_.sample() + extra_delay,
                        [this, h = std::move(handler), payload] {
                            if (obs_attached_) dist_instr_.delivered->add(1);
                            h(payload);
                        });
}

void DistLrgp::scheduleCrashes() {
    for (const faults::CrashEvent& c : options_.fault_plan.crashes) {
        simulator_.scheduleAt(c.at, [this, agent = c.agent] { crashAgent(agent); });
        if (std::isfinite(c.restart_at))
            simulator_.scheduleAt(c.restart_at, [this, agent = c.agent] { restartAgent(agent); });
    }
}

void DistLrgp::crashAgent(faults::AgentRef agent) {
    switch (agent.kind) {
        case faults::AgentKind::kSource: {
            SourceAgent* a = sources_[agent.index].get();
            if (a->down) return;
            a->crash();
            break;
        }
        case faults::AgentKind::kNode: {
            NodeAgent* a = node_agents_[agent.index].get();
            if (a->down) return;
            a->crash();
            break;
        }
        case faults::AgentKind::kLink: {
            LinkAgent* a = link_agents_[agent.index].get();
            if (a->down) return;
            a->crash();
            break;
        }
    }
    if (injector_) injector_->noteCrash();
    if (obs_attached_) dist_instr_.crashes->add(1);
    if (tracer_)
        tracer_->instant("crash", "dist", agent.index, simMicros(),
                         {{"kind", std::string(agent_kind_name(agent.kind))}});
}

void DistLrgp::restartAgent(faults::AgentRef agent) {
    switch (agent.kind) {
        case faults::AgentKind::kSource: {
            SourceAgent* a = sources_[agent.index].get();
            if (!a->down) return;
            a->restart();
            a->onTick(a->timer_epoch);
            break;
        }
        case faults::AgentKind::kNode: {
            NodeAgent* a = node_agents_[agent.index].get();
            if (!a->down) return;
            a->restart();
            a->onTick(a->timer_epoch);
            break;
        }
        case faults::AgentKind::kLink: {
            LinkAgent* a = link_agents_[agent.index].get();
            if (!a->down) return;
            a->restart();
            a->onTick(a->timer_epoch);
            break;
        }
    }
    if (injector_) injector_->noteRestart();
    if (obs_attached_) dist_instr_.restarts->add(1);
    if (tracer_)
        tracer_->instant("restart", "dist", agent.index, simMicros(),
                         {{"kind", std::string(agent_kind_name(agent.kind))}});
}

bool DistLrgp::agentDown(faults::AgentRef agent) const {
    switch (agent.kind) {
        case faults::AgentKind::kSource: return sources_.at(agent.index)->down;
        case faults::AgentKind::kNode: return node_agents_.at(agent.index)->down;
        case faults::AgentKind::kLink: return link_agents_.at(agent.index)->down;
    }
    return false;
}

faults::FaultStats DistLrgp::faultStats() const {
    return injector_ ? injector_->stats() : faults::FaultStats{};
}

void DistLrgp::attachObservability(obs::Registry* registry, obs::IterationTracer* tracer) {
    if (registry != nullptr) {
        dist_instr_ = obs::DistInstruments::resolve(*registry);
        alloc_instr_ = obs::AllocatorInstruments::resolve(*registry);
        rate_allocator_.setInstruments(&alloc_instr_);
        greedy_allocator_.setInstruments(&alloc_instr_);
        obs_attached_ = true;
    } else {
        rate_allocator_.setInstruments(nullptr);
        greedy_allocator_.setInstruments(nullptr);
        obs_attached_ = false;
    }
    tracer_ = tracer;
}

void DistLrgp::noteSuspicion(const char* who) {
    ++suspicion_events_;
    if (obs_attached_) dist_instr_.suspicions->add(1);
    if (tracer_)
        tracer_->instant("suspicion", "dist", 0, simMicros(), {{"watcher", std::string(who)}});
}

void DistLrgp::noteReannouncement() {
    ++reannouncements_;
    if (obs_attached_) dist_instr_.reannouncements->add(1);
    if (tracer_) tracer_->instant("reannounce", "dist", 0, simMicros());
}

void DistLrgp::startSyncRound() {
    for (auto& src : sources_)
        if (src->active) src->computeAndSend(1);
}

void DistLrgp::scheduleAsyncTimers() {
    // Stagger agent timers so they do not act in lockstep.
    const std::size_t agent_count =
        sources_.size() + node_agents_.size() + link_agents_.size();
    std::size_t k = 0;
    auto phase = [&] {
        return options_.agent_period * static_cast<double>(++k) /
               static_cast<double>(agent_count + 1);
    };
    for (auto& src : sources_) {
        SourceAgent* agent = src.get();
        simulator_.schedule(phase(), [agent, e = agent->timer_epoch] { agent->onTick(e); });
    }
    for (auto& na : node_agents_) {
        NodeAgent* agent = na.get();
        simulator_.schedule(phase(), [agent, e = agent->timer_epoch] { agent->onTick(e); });
    }
    for (auto& la : link_agents_) {
        LinkAgent* agent = la.get();
        simulator_.schedule(phase(), [agent, e = agent->timer_epoch] { agent->onTick(e); });
    }
}

void DistLrgp::scheduleSampler() {
    simulator_.schedule(options_.sample_period, [this] {
        const model::Allocation allocation = snapshot();
        const double utility = model::total_utility(spec_, allocation);
        trace_.append(utility);
        if (obs_attached_) dist_instr_.utility->set(utility);
        if (tracer_) tracer_->counterSample("dist_utility", 0, simMicros(), utility);
        if (sample_callback_) sample_callback_(simulator_.now(), allocation);
        scheduleSampler();
    });
}

void DistLrgp::onRoundCompletedAtNode(int round, const NodeAgent& agent) {
    RoundState& state = round_states_[round];
    if (state.rates.empty()) {
        state.rates.assign(spec_.flowCount(), 0.0);
        state.populations.assign(spec_.classCount(), 0);
    }
    // Contribute the rates this node used (identical values arrive from
    // every node a flow reaches) and the populations it just allocated.
    for (model::FlowId i : spec_.flowsAtNode(agent.node))
        if (spec_.flowActive(i)) state.rates[i.index()] = agent.rates[i.index()];
    for (const auto& [cls, n] : agent.latest_populations)
        state.populations[cls.index()] = n;

    std::size_t participating = 0;
    for (const auto& node_agent : node_agents_)
        if (node_agent->expectedFlows() > 0) ++participating;
    if (++state.completions == participating) {
        model::Allocation allocation{std::move(state.rates), std::move(state.populations)};
        round_states_.erase(round);
        completed_rounds_ = std::max(completed_rounds_, round);
        const double utility = model::total_utility(spec_, allocation);
        trace_.append(utility);
        if (obs_attached_) {
            dist_instr_.rounds->add(1);
            dist_instr_.utility->set(utility);
        }
        if (tracer_) {
            tracer_->counterSample("dist_utility", 0, simMicros(), utility);
            tracer_->instant("round_complete", "dist",
                             static_cast<std::uint32_t>(round), simMicros(),
                             {{"round", static_cast<double>(round)},
                              {"utility", utility}});
        }
        if (sample_callback_) sample_callback_(simulator_.now(), allocation);
    }
}

void DistLrgp::runRounds(int rounds) {
    if (!options_.synchronous)
        throw std::logic_error("DistLrgp::runRounds: only available in synchronous mode");
    if (rounds <= 0) throw std::invalid_argument("DistLrgp::runRounds: rounds must be > 0");
    if (!sync_started_) {
        sync_started_ = true;
        startSyncRound();
    }
    target_rounds_ = completed_rounds_ + rounds;
    // Process events until the target round completes (each round needs a
    // bounded number of events, so runOne cannot spin forever unless the
    // protocol deadlocks; the cap turns a deadlock into an exception).
    std::size_t guard = 0;
    const std::size_t max_events =
        static_cast<std::size_t>(target_rounds_ + 2) *
        (spec_.flowCount() + 2) * (spec_.nodeCount() + spec_.linkCount() + 2) * 8;
    while (completed_rounds_ < target_rounds_) {
        if (!simulator_.runOne())
            throw std::logic_error("DistLrgp::runRounds: protocol deadlocked (no events)");
        if (++guard > max_events)
            throw std::logic_error("DistLrgp::runRounds: event budget exceeded");
    }
}

std::size_t DistLrgp::eventBudget(sim::SimTime seconds) const {
    // A generous upper bound on legitimate event counts for a window of
    // `seconds`: per timer period each agent ticks once and every hop
    // can carry a message down and a report up (plus deliveries), and
    // the sampler fires every sample_period.  Anything far beyond this
    // is a runaway scheduling loop, not a busy protocol.
    const double hops = static_cast<double>(spec_.totalFlowNodeHops() + spec_.totalFlowLinkHops());
    const double agents =
        static_cast<double>(spec_.flowCount() + spec_.nodeCount() + spec_.linkCount());
    double per_second = 0.0;
    if (options_.synchronous) {
        per_second = (4.0 * hops + agents + 8.0) / std::max(options_.latency_min, 1e-6);
    } else {
        per_second = (4.0 * hops + 2.0 * agents + 8.0) / options_.agent_period +
                     2.0 / options_.sample_period;
    }
    const double budget = (per_second * (seconds + 1.0) + 4096.0) * 8.0;
    constexpr double kMin = 1u << 20;
    return static_cast<std::size_t>(std::min(std::max(budget, kMin), 9.0e18));
}

void DistLrgp::runFor(sim::SimTime seconds) {
    if (seconds < 0.0) throw std::invalid_argument("DistLrgp::runFor: negative duration");
    if (options_.synchronous && !sync_started_) {
        sync_started_ = true;
        startSyncRound();
    }
    const sim::SimTime until = simulator_.now() + seconds;
    const std::size_t budget = eventBudget(seconds);
    const std::size_t processed = simulator_.runUntil(until, budget);
    if (processed >= budget) {
        // The cap is only an error if work within the window remains —
        // i.e. the calendar kept growing faster than time advanced.
        const std::optional<sim::SimTime> next = simulator_.nextEventTime();
        if (next && *next <= until)
            throw std::logic_error(
                "DistLrgp::runFor: event budget exceeded (runaway event scheduling)");
    }
}

void DistLrgp::removeFlowAt(model::FlowId flow, sim::SimTime when) {
    if (options_.synchronous)
        throw std::logic_error(
            "DistLrgp::removeFlowAt: only supported in asynchronous mode; use the "
            "centralized LrgpOptimizer for synchronous recovery experiments");
    simulator_.scheduleAt(when, [this, flow] {
        if (!spec_.flowActive(flow)) return;
        spec_.setFlowActive(flow, false);
        sources_[flow.index()]->active = false;
        sources_[flow.index()]->latest_rate = 0.0;
        const model::FlowSpec& f = spec_.flow(flow);
        for (const model::FlowNodeHop& hop : f.nodes)
            node_agents_[hop.node.index()]->onFlowRemoved(flow);
    });
}

model::Allocation DistLrgp::snapshot() const {
    model::Allocation alloc;
    alloc.rates.assign(spec_.flowCount(), 0.0);
    alloc.populations.assign(spec_.classCount(), 0);
    for (const auto& src : sources_)
        alloc.rates[src->flow.index()] = (src->active && !src->down) ? src->latest_rate : 0.0;
    for (const auto& agent : node_agents_) {
        if (agent->down) continue;  // a crashed node serves no consumers
        for (const auto& [cls, n] : agent->latest_populations)
            alloc.populations[cls.index()] = spec_.flowActive(spec_.consumerClass(cls).flow)
                                                 ? n
                                                 : 0;
    }
    return alloc;
}

double DistLrgp::currentUtility() const { return model::total_utility(spec_, snapshot()); }

}  // namespace lrgp::dist
