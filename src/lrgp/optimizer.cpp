#include "lrgp/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/clock.hpp"

namespace lrgp::core {

LrgpOptimizer::LrgpOptimizer(model::ProblemSpec spec, LrgpOptions options)
    : spec_(std::move(spec)),
      options_(options),
      rate_allocator_(spec_, options.rate_solve),
      greedy_allocator_(spec_),
      allocation_(model::Allocation::minimal(spec_)),
      prices_(PriceVector::zeros(spec_.nodeCount(), spec_.linkCount())),
      detector_(options.convergence) {
    node_prices_.reserve(spec_.nodeCount());
    for (std::size_t b = 0; b < spec_.nodeCount(); ++b)
        node_prices_.emplace_back(options_.gamma, options_.initial_node_price,
                                  options_.node_price_rule);
    link_prices_.reserve(spec_.linkCount());
    for (std::size_t l = 0; l < spec_.linkCount(); ++l)
        link_prices_.emplace_back(options_.link_gamma, options_.initial_link_price);
    for (std::size_t b = 0; b < spec_.nodeCount(); ++b)
        prices_.node[b] = options_.initial_node_price;
    for (std::size_t l = 0; l < spec_.linkCount(); ++l)
        prices_.link[l] = options_.initial_link_price;
}

const IterationRecord& LrgpOptimizer::step() {
    // Observability bookkeeping (one branch per iteration when nothing
    // is attached).
    const bool obs_on = obs_attached_;
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    std::uint64_t rate_solves = 0;
    std::uint64_t node_moves = 0, link_moves = 0;
    long long admitted_total = 0;
    if (tracer_) tracer_->beginIteration(static_cast<std::uint64_t>(iteration_) + 1);
    if (obs_on) t0 = obs::monotonic_ns();

    // 1. Rate allocation at each active flow source (Algorithm 1): uses
    //    the previous iteration's populations and prices.
    for (const model::FlowSpec& f : spec_.flows()) {
        if (!f.active) continue;
        allocation_.rates[f.id.index()] =
            rate_allocator_.computeRate(f.id, allocation_.populations, prices_).rate;
        ++rate_solves;
    }
    if (obs_on) t1 = obs::monotonic_ns();

    // 2. Greedy consumer allocation at each node (Algorithm 2), and
    // 3. node price update (Eq. 12).
    for (const model::NodeSpec& b : spec_.nodes()) {
        const NodeAllocationResult result = greedy_allocator_.allocate(b.id, allocation_.rates);
        for (const auto& [cls, n] : result.populations) allocation_.populations[cls.index()] = n;
        prices_.node[b.id.index()] =
            node_prices_[b.id.index()].update(result.best_unmet_bc, result.used, b.capacity);
        if (obs_on && node_prices_[b.id.index()].lastMoved()) ++node_moves;
    }
    if (obs_on) t2 = obs::monotonic_ns();

    // 4. Link price update (Eq. 13) with the fresh rates.
    for (const model::LinkSpec& l : spec_.links()) {
        const double usage = model::link_usage(spec_, allocation_, l.id);
        prices_.link[l.id.index()] = link_prices_[l.id.index()].update(usage, l.capacity);
        if (obs_on && link_prices_[l.id.index()].lastMoved()) ++link_moves;
    }
    if (obs_on) t3 = obs::monotonic_ns();

    ++iteration_;
    last_record_.iteration = iteration_;
    last_record_.utility = model::total_utility(spec_, allocation_);
    last_record_.allocation = allocation_;
    last_record_.prices = prices_;
    trace_.append(last_record_.utility);
    detector_.addSample(last_record_.utility);

    if (obs_on) {
        const std::uint64_t t4 = obs::monotonic_ns();
        instr_.iterations->add(1);
        instr_.rate_solves->add(rate_solves);
        instr_.node_price_moves->add(node_moves);
        instr_.link_price_moves->add(link_moves);
        for (int n : allocation_.populations) admitted_total += n;
        instr_.admissions->add(static_cast<std::uint64_t>(admitted_total));
        instr_.utility->set(last_record_.utility);
        instr_.admitted_consumers->set(static_cast<double>(admitted_total));
        instr_.phase_rate->observe(static_cast<double>(t1 - t0) * 1e-9);
        instr_.phase_node->observe(static_cast<double>(t2 - t1) * 1e-9);
        instr_.phase_link->observe(static_cast<double>(t3 - t2) * 1e-9);
        instr_.phase_reduce->observe(static_cast<double>(t4 - t3) * 1e-9);
        instr_.iter_seconds->observe(static_cast<double>(t4 - t0) * 1e-9);
    }
    if (tracer_ && tracer_->sampling()) {
        const double origin = tracer_->nowMicros();
        const auto us = [&](std::uint64_t a, std::uint64_t b) {
            return static_cast<double>(b - a) * 1e-3;
        };
        const std::uint64_t t4 = obs_on ? obs::monotonic_ns() : 0;
        const double ts0 = origin - us(t0, t4);
        tracer_->complete("rate_phase", "lrgp", 0, ts0, us(t0, t1));
        tracer_->complete("node_phase", "lrgp", 0, ts0 + us(t0, t1), us(t1, t2));
        tracer_->complete("link_phase", "lrgp", 0, ts0 + us(t0, t2), us(t2, t3));
        tracer_->complete("iteration", "lrgp", 0, ts0, us(t0, t4),
                          {{"iteration", static_cast<double>(iteration_)},
                           {"utility", last_record_.utility},
                           {"admitted", static_cast<double>(admitted_total)}});
        tracer_->counterSample("utility", 0, origin, last_record_.utility);
    }
    return last_record_;
}

void LrgpOptimizer::attachObservability(obs::Registry* registry, obs::IterationTracer* tracer) {
    if (registry != nullptr) {
        instr_ = obs::SolverInstruments::resolve(*registry);
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

void LrgpOptimizer::noteConvergenceReset() {
    if (obs_attached_) instr_.convergence_resets->add(1);
    if (tracer_ && tracer_->sampling())
        tracer_->instant("convergence_reset", "lrgp", 0, tracer_->nowMicros());
}

const IterationRecord& LrgpOptimizer::run(int iterations) {
    if (iterations <= 0) throw std::invalid_argument("LrgpOptimizer::run: iterations must be > 0");
    for (int i = 0; i < iterations; ++i) step();
    return last_record_;
}

std::optional<int> LrgpOptimizer::runUntilConverged(int max_iterations) {
    if (max_iterations <= 0)
        throw std::invalid_argument("LrgpOptimizer::runUntilConverged: bad max_iterations");
    for (int i = 0; i < max_iterations; ++i) {
        step();
        if (detector_.converged()) return static_cast<int>(detector_.convergedAt());
    }
    return std::nullopt;
}

void LrgpOptimizer::removeFlow(model::FlowId flow) {
    if (!spec_.flowActive(flow)) throw std::logic_error("removeFlow: flow already inactive");
    spec_.setFlowActive(flow, false);
    allocation_.rates[flow.index()] = 0.0;
    for (model::ClassId j : spec_.classesOfFlow(flow)) allocation_.populations[j.index()] = 0;
    // Convergence restarts: the utility level shifts discontinuously.
    detector_.reset();
    noteConvergenceReset();
}

void LrgpOptimizer::restoreFlow(model::FlowId flow) {
    if (spec_.flowActive(flow)) throw std::logic_error("restoreFlow: flow already active");
    spec_.setFlowActive(flow, true);
    allocation_.rates[flow.index()] = spec_.flow(flow).rate_min;
    detector_.reset();
    noteConvergenceReset();
}

void LrgpOptimizer::setNodeCapacity(model::NodeId node, double capacity) {
    spec_.setNodeCapacity(node, capacity);
    detector_.reset();
    noteConvergenceReset();
}

void LrgpOptimizer::setLinkCapacity(model::LinkId link, double capacity) {
    spec_.setLinkCapacity(link, capacity);
    detector_.reset();
    noteConvergenceReset();
}

void LrgpOptimizer::setClassMaxConsumers(model::ClassId cls, int max_consumers) {
    spec_.setClassMaxConsumers(cls, max_consumers);
    // A shrunk ceiling must evict immediately so the allocation stays
    // within bounds even before the next greedy pass.
    auto& n = allocation_.populations.at(cls.index());
    n = std::min(n, max_consumers);
    detector_.reset();
    noteConvergenceReset();
}

void check_warm_start(const model::ProblemSpec& spec, const PriceVector& prices,
                      const std::vector<int>* populations) {
    if (prices.node.size() != spec.nodeCount() || prices.link.size() != spec.linkCount())
        throw std::invalid_argument("warmStart: price vector sized for another problem");
    const auto bad_price = [](double p) { return !(p >= 0.0) || !std::isfinite(p); };
    if (std::any_of(prices.node.begin(), prices.node.end(), bad_price) ||
        std::any_of(prices.link.begin(), prices.link.end(), bad_price))
        throw std::invalid_argument("warmStart: prices must be finite and >= 0");
    if (populations == nullptr) return;
    if (populations->size() != spec.classCount())
        throw std::invalid_argument("warmStart: populations sized for another problem");
    if (std::any_of(populations->begin(), populations->end(), [](int n) { return n < 0; }))
        throw std::invalid_argument("warmStart: populations must be >= 0");
}

void LrgpOptimizer::warmStart(const PriceVector& prices,
                              const std::vector<int>* populations) {
    check_warm_start(spec_, prices, populations);
    prices_ = prices;
    for (std::size_t b = 0; b < node_prices_.size(); ++b)
        node_prices_[b].reset(prices.node[b]);
    for (std::size_t l = 0; l < link_prices_.size(); ++l)
        link_prices_[l].reset(prices.link[l]);
    if (populations != nullptr) {
        for (const model::ClassSpec& c : spec_.classes())
            allocation_.populations[c.id.index()] =
                std::min((*populations)[c.id.index()], c.max_consumers);
    }
    detector_.reset();
    noteConvergenceReset();
}

double LrgpOptimizer::currentUtility() const { return model::total_utility(spec_, allocation_); }

double LrgpOptimizer::nodeGamma(model::NodeId node) const {
    return node_prices_.at(node.index()).currentGamma();
}

}  // namespace lrgp::core
