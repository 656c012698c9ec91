#include "lrgp/parallel_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "lrgp/greedy_allocator.hpp"
#include "model/allocation.hpp"
#include "obs/clock.hpp"
#include "utility/rate_objective.hpp"

namespace lrgp::core {

/// One benefit-cost candidate of a node's greedy ranking.
struct ParallelLrgpEngine::Cand {
    double ratio;      ///< BC_j (Eq. 10)
    double unit_cost;  ///< G_{b,j} * r_i
    double value;      ///< U_j(r_i), reused for the Eq. 1 term
    int max_consumers;
    std::uint32_t cls;
};

/// Per-worker greedy ranking buffer (phase 2).
struct ParallelLrgpEngine::NodeScratch {
    std::vector<Cand> cands;
};

ParallelLrgpEngine::ParallelLrgpEngine(model::ProblemSpec spec, LrgpOptions options,
                                       EngineConfig config)
    : spec_(std::move(spec)),
      options_(options),
      compiled_(spec_),
      pool_(std::make_unique<TaskPool>(config.threads)),
      collect_phase_times_(config.collect_phase_times),
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

    // Eq. 7 terms: utilities bound once, populations rewritten per solve.
    flow_terms_.resize(spec_.flowCount());
    for (const model::FlowSpec& f : spec_.flows()) {
        auto& terms = flow_terms_[f.id.index()];
        const auto& classes = spec_.classesOfFlow(f.id);
        terms.reserve(classes.size());
        for (model::ClassId j : classes)
            terms.push_back({0.0, spec_.consumerClass(j).utility});
    }
    flow_value_trans_.assign(spec_.flowCount(), 0.0);
    class_utility_term_.assign(spec_.classCount(), 0.0);

    node_scratch_.reserve(static_cast<std::size_t>(pool_->threadCount()));
    for (int w = 0; w < pool_->threadCount(); ++w) {
        node_scratch_.push_back(std::make_unique<NodeScratch>());
        node_scratch_.back()->cands.resize(compiled_.max_classes_at_node);
    }

    // Everything starts dirty so the first iteration is a full one.
    flow_dirty_.assign(compiled_.flowCount(), 1);
    node_dirty_.assign(compiled_.nodeCount(), 1);
    link_dirty_.assign(compiled_.linkCount(), 1);
    rate_moved_.assign(compiled_.flowCount(), 0);
    pop_moved_.assign(compiled_.classCount(), 0);
    node_price_moved_.assign(compiled_.nodeCount(), 0);
    link_price_moved_.assign(compiled_.linkCount(), 0);
    node_used_.assign(compiled_.nodeCount(), 0.0);
    node_unmet_bc_.assign(compiled_.nodeCount(), std::nullopt);
    link_usage_.assign(compiled_.linkCount(), 0.0);
}

ParallelLrgpEngine::~ParallelLrgpEngine() = default;

int ParallelLrgpEngine::threadCount() const noexcept { return pool_->threadCount(); }

const char* ParallelLrgpEngine::name() const noexcept { return "incremental"; }

void ParallelLrgpEngine::solveFlow(std::size_t f) {
    const CompiledProblem& cp = compiled_;
    const std::vector<int>& pops = allocation_.populations;

    // PL_i (Eq. 8): link hops in route order.
    double pl = 0.0;
    for (std::size_t h = cp.flow_link_begin[f]; h < cp.flow_link_begin[f + 1]; ++h)
        pl += cp.link_hop_cost[h] * prices_.link[cp.link_hop_link[h]];

    // PB_i (Eq. 9): node hops in route order, each with its class sub-span
    // in classesOfFlow order — the serial accumulation order exactly.
    double pb = 0.0;
    for (std::size_t h = cp.flow_node_begin[f]; h < cp.flow_node_begin[f + 1]; ++h) {
        double per_rate_cost = cp.node_hop_fcost[h];
        for (std::size_t e = cp.hop_class_begin[h]; e < cp.hop_class_begin[h + 1]; ++e)
            per_rate_cost += cp.hop_class_gcost[e] * pops[cp.hop_class_class[e]];
        pb += per_rate_cost * prices_.node[cp.node_hop_node[h]];
    }
    const double price = pl + pb;

    const double lo = cp.flow_rate_min[f];
    const double hi = cp.flow_rate_max[f];
    const SolveFamily family = cp.flow_family[f];

    double rate;
    if (family != SolveFamily::kGeneric && options_.rate_solve.allow_closed_form) {
        // Fast path: replicates utility::solve_rate_objective step by step
        // with the virtual dispatch and dynamic_cast family probing
        // replaced by the precompiled per-class weights.
        const std::size_t begin = cp.flow_class_begin[f];
        const std::size_t end = cp.flow_class_begin[f + 1];
        const double param = cp.flow_family_param[f];

        bool any_population = false;
        for (std::size_t e = begin; e < end; ++e)
            if (pops[cp.flow_class_class[e]] > 0) any_population = true;

        if (!any_population) {
            rate = price > 0.0 ? lo : hi;
            if (obs_attached_) alloc_instr_.rate_bound->add(1);
        } else {
            // sum_j n_j U_j'(r) - price at a bound, in term order; the
            // inlined derivative expressions mirror utility_function.cpp.
            const auto derivative_at = [&](double r) {
                const double pow_term =
                    family == SolveFamily::kPower ? std::pow(r, param - 1.0) : 0.0;
                double d = -price;
                for (std::size_t e = begin; e < end; ++e) {
                    const std::uint32_t cls = cp.flow_class_class[e];
                    const int n = pops[cls];
                    if (n <= 0) continue;
                    double du;
                    switch (family) {
                        case SolveFamily::kLog: du = cp.class_weight[cls] / (1.0 + r); break;
                        case SolveFamily::kPower: du = cp.class_dweight[cls] * pow_term; break;
                        default: du = cp.class_weight[cls] / (param + r); break;
                    }
                    d += n * du;
                }
                return d;
            };

            if (derivative_at(hi) >= 0.0) {
                rate = hi;
                if (obs_attached_) alloc_instr_.rate_bound->add(1);
            } else if (derivative_at(lo) <= 0.0) {
                rate = lo;
                if (obs_attached_) alloc_instr_.rate_bound->add(1);
            } else {
                // Combined closed form: W = sum_j n_j w_j in term order.
                double weight = 0.0;
                for (std::size_t e = begin; e < end; ++e) {
                    const std::uint32_t cls = cp.flow_class_class[e];
                    const int n = pops[cls];
                    if (n <= 0) continue;
                    weight += static_cast<double>(n) * cp.class_weight[cls];
                }
                double r;
                switch (family) {
                    case SolveFamily::kLog: r = weight / price - 1.0; break;
                    case SolveFamily::kPower:
                        r = std::pow(price / (weight * param), 1.0 / (param - 1.0));
                        break;
                    default: r = weight / price - param; break;
                }
                rate = std::clamp(r, lo, hi);
                if (obs_attached_) alloc_instr_.rate_closed_form->add(1);
            }
        }
    } else {
        // Reference path: same solver as the serial optimizer, fed from
        // the persistent terms buffer (no per-iteration allocation).
        auto& terms = flow_terms_[f];
        const std::size_t begin = cp.flow_class_begin[f];
        for (std::size_t e = begin; e < cp.flow_class_begin[f + 1]; ++e)
            terms[e - begin].population =
                static_cast<double>(pops[cp.flow_class_class[e]]);
        const utility::RateSolveResult result =
            utility::solve_rate_objective(terms, price, lo, hi, options_.rate_solve);
        rate = result.rate;
        if (obs_attached_) {
            switch (result.method) {
                case utility::RateSolveMethod::kClosedForm:
                    alloc_instr_.rate_closed_form->add(1);
                    break;
                case utility::RateSolveMethod::kNumeric:
                    alloc_instr_.rate_numeric->add(1);
                    break;
                default: alloc_instr_.rate_bound->add(1); break;
            }
        }
    }
    allocation_.rates[f] = rate;

    // One transcendental per flow; phase 2 turns it into per-class
    // U_j(r) = w_j * trans values (bitwise equal to the virtual calls).
    switch (family) {
        case SolveFamily::kLog: flow_value_trans_[f] = std::log1p(rate); break;
        case SolveFamily::kPower:
            flow_value_trans_[f] = std::pow(rate, cp.flow_family_param[f]);
            break;
        case SolveFamily::kShiftedLog:
            flow_value_trans_[f] = std::log1p(rate / cp.flow_family_param[f]);
            break;
        case SolveFamily::kGeneric: break;
    }
}

void ParallelLrgpEngine::ratePhase(std::size_t begin, std::size_t end) {
    for (std::size_t f = begin; f < end; ++f) {
        if (!compiled_.flow_active[f] || !flow_dirty_[f]) continue;
        // Dirty inputs: re-solve and record whether the rate actually
        // moved.  A clean flow's rate (and its cached transcendental) is a
        // deterministic function of bitwise-unchanged populations and
        // prices, so skipping the solve reproduces it exactly.
        const double old_rate = allocation_.rates[f];
        solveFlow(f);
        rate_moved_[f] = allocation_.rates[f] != old_rate ? 1 : 0;
    }
}

double ParallelLrgpEngine::nodeBaseUsage(std::size_t b) const {
    const CompiledProblem& cp = compiled_;
    const std::vector<double>& rates = allocation_.rates;
    // Resource consumed by the flows themselves (F_{b,i} * r_i).
    double base_usage = 0.0;
    for (std::size_t e = cp.node_flow_begin[b]; e < cp.node_flow_begin[b + 1]; ++e) {
        const std::uint32_t f = cp.node_flow_flow[e];
        if (!cp.flow_active[f]) continue;
        base_usage += cp.node_flow_fcost[e] * rates[f];
    }
    return base_usage;
}

std::uint32_t ParallelLrgpEngine::buildNodeCands(std::size_t b, Cand* out) {
    const CompiledProblem& cp = compiled_;
    const std::vector<double>& rates = allocation_.rates;
    std::uint32_t count = 0;
    for (std::size_t e = cp.node_class_begin[b]; e < cp.node_class_begin[b + 1]; ++e) {
        const std::uint32_t cls = cp.node_class_class[e];
        const std::uint32_t f = cp.class_flow[cls];
        const double rate = rates[f];
        const double unit_cost = cp.class_gcost[cls] * rate;
        // Mirrors GreedyConsumerAllocator::benefitCosts: a zero rate
        // makes BC_j = U_j(0)/0 an undefined 0/0 that must not reach
        // the ranking (bitwise parity with the serial allocator).
        if (!cp.flow_active[f] || cp.class_max_consumers[cls] == 0 || !(unit_cost > 0.0)) {
            // Unranked: no consumer is admitted.
            if (allocation_.populations[cls] != 0) pop_moved_[cls] = 1;
            allocation_.populations[cls] = 0;
            class_utility_term_[cls] = 0.0;
            continue;
        }
        const double value = cp.flow_family[f] == SolveFamily::kGeneric
                                 ? cp.class_utility[cls]->value(rate)
                                 : cp.class_weight[cls] * flow_value_trans_[f];
        out[count++] = {value / unit_cost, unit_cost, value, cp.class_max_consumers[cls], cls};
    }
    std::sort(out, out + count, BenefitCostOrder{});
    return count;
}

void ParallelLrgpEngine::admitNode(std::size_t b, const Cand* cands, std::uint32_t count,
                                   double base_usage) {
    const double capacity = compiled_.node_capacity[b];
    double remaining = capacity - base_usage;
    std::optional<double> best_unmet_bc;
    for (std::uint32_t i = 0; i < count; ++i) {
        const Cand& cand = cands[i];
        int admitted = 0;
        if (remaining > 0.0) {
            admitted = static_cast<int>(std::min(std::floor(remaining / cand.unit_cost),
                                                 static_cast<double>(cand.max_consumers)));
        }
        remaining -= admitted * cand.unit_cost;
        if (allocation_.populations[cand.cls] != admitted) pop_moved_[cand.cls] = 1;
        allocation_.populations[cand.cls] = admitted;
        class_utility_term_[cand.cls] = admitted > 0 ? admitted * cand.value : 0.0;
        if (admitted < cand.max_consumers && !best_unmet_bc) best_unmet_bc = cand.ratio;
    }
    node_used_[b] = capacity - remaining;
    node_unmet_bc_[b] = best_unmet_bc;
}

void ParallelLrgpEngine::nodePhase(std::size_t begin, std::size_t end, NodeScratch& scratch) {
    const CompiledProblem& cp = compiled_;
    // Chunk-local tallies, flushed to the shared atomics once at the end.
    std::uint64_t candidates = 0, price_moves = 0, rerun = 0;

    for (std::size_t b = begin; b < end; ++b) {
        if (node_dirty_[b]) {
            const double base_usage = nodeBaseUsage(b);
            const std::uint32_t count = buildNodeCands(b, scratch.cands.data());
            admitNode(b, scratch.cands.data(), count, base_usage);
            candidates += count;
            ++rerun;
        }
        // Eq. 12 always runs: the controller is stateful (adaptive gamma),
        // and a clean node's cached (BC(b,t), used_b) are bitwise the
        // values a re-admission would recompute.
        prices_.node[b] = node_prices_[b].update(node_unmet_bc_[b], node_used_[b],
                                                 cp.node_capacity[b]);
        node_price_moved_[b] = node_prices_[b].lastMoved() ? 1 : 0;
        if (node_prices_[b].lastMoved()) ++price_moves;
    }

    if (obs_attached_ && end > begin) {
        if (rerun > 0) {
            alloc_instr_.greedy_allocations->add(rerun);
            alloc_instr_.greedy_candidates->add(candidates);
        }
        instr_.node_price_moves->add(price_moves);
    }
}

void ParallelLrgpEngine::linkPhase(std::size_t begin, std::size_t end) {
    const CompiledProblem& cp = compiled_;
    const std::vector<double>& rates = allocation_.rates;
    std::uint64_t price_moves = 0;
    for (std::size_t l = begin; l < end; ++l) {
        if (link_dirty_[l]) {
            double usage = 0.0;
            for (std::size_t e = cp.link_flow_begin[l]; e < cp.link_flow_begin[l + 1]; ++e) {
                const std::uint32_t f = cp.link_flow_flow[e];
                if (!cp.flow_active[f]) continue;
                usage += cp.link_flow_cost[e] * rates[f];
            }
            link_usage_[l] = usage;
        }
        // Eq. 13 always runs on the (possibly cached) usage sum.
        prices_.link[l] = link_prices_[l].update(link_usage_[l], cp.link_capacity[l]);
        link_price_moved_[l] = link_prices_[l].lastMoved() ? 1 : 0;
        if (link_prices_[l].lastMoved()) ++price_moves;
    }
    if (obs_attached_ && price_moves > 0) instr_.link_price_moves->add(price_moves);
}

void ParallelLrgpEngine::seedDirtyFlows() {
    const CompiledProblem& cp = compiled_;

    // A population move dirties its own flow only: the hop-class spans of
    // PB_i (Eq. 9) and the Eq. 7 terms both range over flow i's own
    // classes, so no other flow reads n_j.
    for (std::size_t c = 0; c < pop_moved_.size(); ++c) {
        if (!pop_moved_[c]) continue;
        pop_moved_[c] = 0;
        flow_dirty_[cp.class_flow[c]] = 1;
    }
    // A node price move dirties every flow with a hop at the node (PB_i).
    for (std::size_t b = 0; b < node_price_moved_.size(); ++b) {
        if (!node_price_moved_[b]) continue;
        node_price_moved_[b] = 0;
        for (std::size_t e = cp.node_flow_begin[b]; e < cp.node_flow_begin[b + 1]; ++e)
            flow_dirty_[cp.node_flow_flow[e]] = 1;
    }
    // A link price move dirties every flow routed over the link (PL_i).
    for (std::size_t l = 0; l < link_price_moved_.size(); ++l) {
        if (!link_price_moved_[l]) continue;
        link_price_moved_[l] = 0;
        for (std::size_t e = cp.link_flow_begin[l]; e < cp.link_flow_begin[l + 1]; ++e)
            flow_dirty_[cp.link_flow_flow[e]] = 1;
    }

    dirty_flows_now_ = 0;
    skipped_solves_now_ = 0;
    for (std::size_t f = 0; f < flow_dirty_.size(); ++f) {
        if (!cp.flow_active[f]) continue;
        if (flow_dirty_[f]) ++dirty_flows_now_;
        else ++skipped_solves_now_;
    }
    stats_.dirty_flows += dirty_flows_now_;
    stats_.skipped_solves += skipped_solves_now_;
}

void ParallelLrgpEngine::propagateRateMoves() {
    const CompiledProblem& cp = compiled_;

    // A rate move invalidates the candidates, the base usage and the
    // admission outcome at every node the flow visits, plus the usage sum
    // of every link it is routed over.
    for (std::size_t f = 0; f < rate_moved_.size(); ++f) {
        if (!rate_moved_[f]) continue;
        rate_moved_[f] = 0;
        for (std::size_t h = cp.flow_node_begin[f]; h < cp.flow_node_begin[f + 1]; ++h)
            node_dirty_[cp.node_hop_node[h]] = 1;
        for (std::size_t h = cp.flow_link_begin[f]; h < cp.flow_link_begin[f + 1]; ++h)
            link_dirty_[cp.link_hop_link[h]] = 1;
    }

    dirty_nodes_now_ = 0;
    for (std::uint8_t d : node_dirty_) dirty_nodes_now_ += d;
    stats_.dirty_nodes += dirty_nodes_now_;
    stats_.node_cache_hits += node_dirty_.size() - dirty_nodes_now_;

    dirty_links_now_ = 0;
    for (std::uint8_t d : link_dirty_) dirty_links_now_ += d;
    stats_.dirty_links += dirty_links_now_;
}

void ParallelLrgpEngine::dirtyFlowCascade(model::FlowId flow) {
    const CompiledProblem& cp = compiled_;
    const std::size_t f = flow.index();
    // The flow's rate and/or populations were edited in place: re-solve
    // it, re-run every node it visits and re-sum every link it is routed
    // over.
    flow_dirty_[f] = 1;
    for (std::size_t h = cp.flow_node_begin[f]; h < cp.flow_node_begin[f + 1]; ++h)
        node_dirty_[cp.node_hop_node[h]] = 1;
    for (std::size_t h = cp.flow_link_begin[f]; h < cp.flow_link_begin[f + 1]; ++h)
        link_dirty_[cp.link_hop_link[h]] = 1;
}

void ParallelLrgpEngine::markAllDirty() {
    std::fill(flow_dirty_.begin(), flow_dirty_.end(), std::uint8_t{1});
    std::fill(node_dirty_.begin(), node_dirty_.end(), std::uint8_t{1});
    std::fill(link_dirty_.begin(), link_dirty_.end(), std::uint8_t{1});
}

const IterationRecord& ParallelLrgpEngine::step() {
    const bool obs_on = obs_attached_;
    bool timed = collect_phase_times_;
    if (tracer_) tracer_->beginIteration(static_cast<std::uint64_t>(iteration_) + 1);
    timed = timed || obs_on || (tracer_ && tracer_->sampling());
    std::uint64_t t0 = timed ? obs::monotonic_ns() : 0;

    // Serial pre-step: turn last iteration's moved bits into this
    // iteration's dirty flows (and count the sets for the stats).
    seedDirtyFlows();
    pool_->parallelFor(compiled_.flowCount(),
                       [this](std::size_t b, std::size_t e, int) { ratePhase(b, e); });
    std::fill(flow_dirty_.begin(), flow_dirty_.end(), std::uint8_t{0});
    // Serial inter-phase step: rate moves dirty the dependent nodes and
    // links before their phases consume the bits.
    propagateRateMoves();
    std::uint64_t t1 = timed ? obs::monotonic_ns() : 0;

    pool_->parallelFor(compiled_.nodeCount(), [this](std::size_t b, std::size_t e, int w) {
        nodePhase(b, e, *node_scratch_[static_cast<std::size_t>(w)]);
    });
    std::fill(node_dirty_.begin(), node_dirty_.end(), std::uint8_t{0});
    std::uint64_t t2 = timed ? obs::monotonic_ns() : 0;

    pool_->parallelFor(compiled_.linkCount(),
                       [this](std::size_t b, std::size_t e, int) { linkPhase(b, e); });
    std::fill(link_dirty_.begin(), link_dirty_.end(), std::uint8_t{0});
    std::uint64_t t3 = timed ? obs::monotonic_ns() : 0;

    // Serial epilogue: the Eq. 1 reduction in class-id order (skipped
    // classes hold an exact 0.0, so the sum is bitwise the serial scan).
    // When no node re-ran admission the terms are bitwise-unchanged, so
    // the cached sum is reused outright.
    if (dirty_nodes_now_ == 0) {
        ++stats_.utility_cache_hits;
    } else {
        double sum = 0.0;
        for (double term : class_utility_term_) sum += term;
        cached_utility_ = sum;
    }
    const double utility = cached_utility_;

    ++iteration_;
    last_record_.iteration = iteration_;
    last_record_.utility = utility;
    last_record_.allocation = allocation_;
    last_record_.prices = prices_;
    trace_.append(utility);
    detector_.addSample(utility);

    std::uint64_t t4 = 0;
    if (timed) {
        t4 = obs::monotonic_ns();
        if (collect_phase_times_) {
            phase_times_.rate_ns += t1 - t0;
            phase_times_.node_ns += t2 - t1;
            phase_times_.link_ns += t3 - t2;
            phase_times_.reduce_ns += t4 - t3;
            ++phase_times_.iterations;
        }
    }

    long long admitted_total = 0;
    if (obs_on || (tracer_ && tracer_->sampling()))
        for (int n : allocation_.populations) admitted_total += n;
    if (obs_on) {
        instr_.iterations->add(1);
        // The rate phase skips clean flows, so the solve count is the
        // serial pre-count.
        instr_.rate_solves->add(dirty_flows_now_);
        inc_instr_.dirty_flows->add(dirty_flows_now_);
        inc_instr_.skipped_solves->add(skipped_solves_now_);
        inc_instr_.dirty_nodes->add(dirty_nodes_now_);
        inc_instr_.node_cache_hits->add(node_dirty_.size() - dirty_nodes_now_);
        inc_instr_.dirty_links->add(dirty_links_now_);
        if (dirty_nodes_now_ == 0) inc_instr_.utility_cache_hits->add(1);
        instr_.admissions->add(static_cast<std::uint64_t>(admitted_total));
        alloc_instr_.greedy_admitted->add(static_cast<std::uint64_t>(admitted_total));
        instr_.utility->set(utility);
        instr_.admitted_consumers->set(static_cast<double>(admitted_total));
        instr_.phase_rate->observe(static_cast<double>(t1 - t0) * 1e-9);
        instr_.phase_node->observe(static_cast<double>(t2 - t1) * 1e-9);
        instr_.phase_link->observe(static_cast<double>(t3 - t2) * 1e-9);
        instr_.phase_reduce->observe(static_cast<double>(t4 - t3) * 1e-9);
        instr_.iter_seconds->observe(static_cast<double>(t4 - t0) * 1e-9);
    }
    if (tracer_ && tracer_->sampling()) {
        const double origin = tracer_->nowMicros();
        const auto us = [](std::uint64_t a, std::uint64_t b) {
            return static_cast<double>(b - a) * 1e-3;
        };
        const double ts0 = timed ? origin - us(t0, t4) : origin;
        tracer_->complete("rate_phase", "lrgp", 0, ts0, us(t0, t1));
        tracer_->complete("node_phase", "lrgp", 0, ts0 + us(t0, t1), us(t1, t2));
        tracer_->complete("link_phase", "lrgp", 0, ts0 + us(t0, t2), us(t2, t3));
        tracer_->complete("iteration", "lrgp", 0, ts0, us(t0, t4),
                          {{"iteration", static_cast<double>(iteration_)},
                           {"utility", utility},
                           {"admitted", static_cast<double>(admitted_total)}});
        tracer_->counterSample("utility", 0, origin, utility);
    }
    return last_record_;
}

void ParallelLrgpEngine::attachObservability(obs::Registry* registry,
                                             obs::IterationTracer* tracer) {
    if (registry != nullptr) {
        instr_ = obs::SolverInstruments::resolve(*registry);
        alloc_instr_ = obs::AllocatorInstruments::resolve(*registry);
        pool_instr_ = obs::PoolInstruments::resolve(*registry);
        inc_instr_ = obs::IncrementalInstruments::resolve(*registry);
        pool_->setInstruments(&pool_instr_);
        obs_attached_ = true;
    } else {
        pool_->setInstruments(nullptr);
        obs_attached_ = false;
    }
    tracer_ = tracer;
}

void ParallelLrgpEngine::noteConvergenceReset() {
    if (obs_attached_) instr_.convergence_resets->add(1);
    if (tracer_ && tracer_->sampling())
        tracer_->instant("convergence_reset", "lrgp", 0, tracer_->nowMicros());
}

const IterationRecord& ParallelLrgpEngine::run(int iterations) {
    if (iterations <= 0)
        throw std::invalid_argument("ParallelLrgpEngine::run: iterations must be > 0");
    for (int i = 0; i < iterations; ++i) step();
    return last_record_;
}

std::optional<int> ParallelLrgpEngine::runUntilConverged(int max_iterations) {
    if (max_iterations <= 0)
        throw std::invalid_argument("ParallelLrgpEngine::runUntilConverged: bad max_iterations");
    for (int i = 0; i < max_iterations; ++i) {
        step();
        if (detector_.converged()) return static_cast<int>(detector_.convergedAt());
    }
    return std::nullopt;
}

void ParallelLrgpEngine::removeFlow(model::FlowId flow) {
    if (!spec_.flowActive(flow)) throw std::logic_error("removeFlow: flow already inactive");
    spec_.setFlowActive(flow, false);
    compiled_.setFlowActive(flow, false);
    allocation_.rates[flow.index()] = 0.0;
    for (model::ClassId j : spec_.classesOfFlow(flow)) allocation_.populations[j.index()] = 0;
    // The rate and populations changed in place: every node the flow
    // visits must re-run (its candidates vanish, the base usage drops)
    // and every link must re-sum.
    dirtyFlowCascade(flow);
    detector_.reset();
    noteConvergenceReset();
}

void ParallelLrgpEngine::restoreFlow(model::FlowId flow) {
    if (spec_.flowActive(flow)) throw std::logic_error("restoreFlow: flow already active");
    spec_.setFlowActive(flow, true);
    compiled_.setFlowActive(flow, true);
    allocation_.rates[flow.index()] = spec_.flow(flow).rate_min;
    dirtyFlowCascade(flow);
    detector_.reset();
    noteConvergenceReset();
}

void ParallelLrgpEngine::setNodeCapacity(model::NodeId node, double capacity) {
    spec_.setNodeCapacity(node, capacity);
    compiled_.setNodeCapacity(node, capacity);
    // Only this node's admission reads the capacity: it re-ranks and
    // re-admits, and every other cached output stays valid.
    node_dirty_[node.index()] = 1;
    detector_.reset();
    noteConvergenceReset();
}

void ParallelLrgpEngine::setLinkCapacity(model::LinkId link, double capacity) {
    spec_.setLinkCapacity(link, capacity);
    compiled_.setLinkCapacity(link, capacity);
    // Link usage is a pure function of the rates and the price controller
    // update always runs, so no dirty bits are needed: the controller
    // reads the new capacity on the next iteration and publishes a moved
    // bit if the price reacts.
    detector_.reset();
    noteConvergenceReset();
}

void ParallelLrgpEngine::setClassMaxConsumers(model::ClassId cls, int max_consumers) {
    spec_.setClassMaxConsumers(cls, max_consumers);
    compiled_.setClassMaxConsumers(cls, max_consumers);
    auto& n = allocation_.populations.at(cls.index());
    n = std::min(n, max_consumers);
    // The ceiling bounds the class's admission, so its node re-runs; the
    // (possibly clamped) population feeds the owning flow's PB_i, so that
    // flow re-solves.
    node_dirty_[compiled_.class_node[cls.index()]] = 1;
    flow_dirty_[compiled_.class_flow[cls.index()]] = 1;
    detector_.reset();
    noteConvergenceReset();
}

void ParallelLrgpEngine::warmStart(const PriceVector& prices,
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
    // Prices were replaced wholesale and populations possibly overwritten:
    // every cached output is suspect, so the next iteration is a full one.
    markAllDirty();
    detector_.reset();
    noteConvergenceReset();
}

EngineSnapshot ParallelLrgpEngine::snapshot() const {
    EngineSnapshot s;
    s.flow_count = spec_.flowCount();
    s.class_count = spec_.classCount();
    s.node_count = spec_.nodeCount();
    s.link_count = spec_.linkCount();
    s.iteration = iteration_;
    s.last_utility = last_record_.utility;

    s.flow_active.reserve(spec_.flowCount());
    for (const model::FlowSpec& f : spec_.flows())
        s.flow_active.push_back(f.active ? 1 : 0);
    s.node_capacity.reserve(spec_.nodeCount());
    for (const model::NodeSpec& b : spec_.nodes()) s.node_capacity.push_back(b.capacity);
    s.link_capacity.reserve(spec_.linkCount());
    for (const model::LinkSpec& l : spec_.links()) s.link_capacity.push_back(l.capacity);
    s.class_max_consumers.reserve(spec_.classCount());
    for (const model::ClassSpec& c : spec_.classes())
        s.class_max_consumers.push_back(c.max_consumers);

    s.rates = allocation_.rates;
    s.populations.assign(allocation_.populations.begin(), allocation_.populations.end());
    s.node_price = prices_.node;
    s.link_price = prices_.link;

    s.node_controllers.reserve(node_prices_.size());
    for (const NodePriceController& c : node_prices_) s.node_controllers.push_back(c.state());
    s.link_controllers.reserve(link_prices_.size());
    for (const LinkPriceController& c : link_prices_) s.link_controllers.push_back(c.state());
    s.detector = detector_.state();
    return s;
}

void ParallelLrgpEngine::restore(const EngineSnapshot& s) {
    if (s.flow_count != spec_.flowCount() || s.class_count != spec_.classCount() ||
        s.node_count != spec_.nodeCount() || s.link_count != spec_.linkCount())
        throw std::invalid_argument(
            "ParallelLrgpEngine::restore: snapshot shape does not match the problem");
    if (s.node_controllers.size() != node_prices_.size() ||
        s.link_controllers.size() != link_prices_.size() ||
        s.rates.size() != spec_.flowCount() || s.populations.size() != spec_.classCount() ||
        s.node_price.size() != spec_.nodeCount() || s.link_price.size() != spec_.linkCount() ||
        s.flow_active.size() != spec_.flowCount() ||
        s.node_capacity.size() != spec_.nodeCount() ||
        s.link_capacity.size() != spec_.linkCount() ||
        s.class_max_consumers.size() != spec_.classCount())
        throw std::invalid_argument("ParallelLrgpEngine::restore: malformed snapshot");

    // Dynamic spec state: bring the local problem mirror in line with
    // the one the snapshot was taken from.
    for (std::size_t f = 0; f < s.flow_active.size(); ++f) {
        const model::FlowId id{static_cast<std::uint32_t>(f)};
        const bool active = s.flow_active[f] != 0;
        if (spec_.flowActive(id) != active) {
            spec_.setFlowActive(id, active);
            compiled_.setFlowActive(id, active);
        }
    }
    for (std::size_t b = 0; b < s.node_capacity.size(); ++b) {
        const model::NodeId id{static_cast<std::uint32_t>(b)};
        spec_.setNodeCapacity(id, s.node_capacity[b]);
        compiled_.setNodeCapacity(id, s.node_capacity[b]);
    }
    for (std::size_t l = 0; l < s.link_capacity.size(); ++l) {
        const model::LinkId id{static_cast<std::uint32_t>(l)};
        spec_.setLinkCapacity(id, s.link_capacity[l]);
        compiled_.setLinkCapacity(id, s.link_capacity[l]);
    }
    for (std::size_t c = 0; c < s.class_max_consumers.size(); ++c) {
        const model::ClassId id{static_cast<std::uint32_t>(c)};
        spec_.setClassMaxConsumers(id, s.class_max_consumers[c]);
        compiled_.setClassMaxConsumers(id, s.class_max_consumers[c]);
    }

    allocation_.rates = s.rates;
    allocation_.populations.assign(s.populations.begin(), s.populations.end());
    prices_.node = s.node_price;
    prices_.link = s.link_price;
    for (std::size_t b = 0; b < node_prices_.size(); ++b)
        node_prices_[b].restoreState(s.node_controllers[b]);
    for (std::size_t l = 0; l < link_prices_.size(); ++l)
        link_prices_[l].restoreState(s.link_controllers[l]);
    detector_.restoreState(s.detector);

    iteration_ = static_cast<int>(s.iteration);
    last_record_.iteration = iteration_;
    last_record_.utility = s.last_utility;
    last_record_.allocation = allocation_;
    last_record_.prices = prices_;

    // Every cached phase output is gone (or stale): the next iteration
    // is a full one.  Recomputation reproduces the cached values bitwise
    // because their inputs were restored bitwise.
    markAllDirty();
}

double ParallelLrgpEngine::currentUtility() const {
    return model::total_utility(spec_, allocation_);
}

double ParallelLrgpEngine::nodeGamma(model::NodeId node) const {
    return node_prices_.at(node.index()).currentGamma();
}

}  // namespace lrgp::core
