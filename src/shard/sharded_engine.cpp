#include "shard/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "lrgp/optimizer.hpp"
#include "obs/clock.hpp"
#include "shard/budget.hpp"

namespace lrgp::shard {

namespace {

/// The effective reconcile step is multiplied by this after every pass
/// that moved budget, so reconciliation terminates even when contended
/// boundary prices never equalize exactly (the member oscillations would
/// otherwise re-trigger transfers forever).  Any dynamic op (capacity,
/// flows, classes, warm start) resets the step to kReconcileStep: the
/// engine re-adapts at full strength after real changes.
constexpr double kReconcileStepDecay = 0.8;

}  // namespace

ShardedLrgpEngine::ShardedLrgpEngine(model::ProblemSpec spec, core::LrgpOptions options,
                                     ShardedConfig config)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      config_(config),
      detector_(options_.convergence) {
    if (config_.shards < 1)
        throw std::invalid_argument("ShardedLrgpEngine: shards must be >= 1");
    effective_step_ = kReconcileStep;

    PartitionOptions popts;
    popts.shards = config_.shards;
    popts.refine_passes = config_.refine_passes;
    popts.balance_slack = config_.balance_slack;
    SubproblemSet sub = build_subproblems(spec_, popts);
    partition_ = std::move(sub.partition);
    shard_of_flow_ = std::move(sub.shard_of_flow);
    flow_local_ = std::move(sub.flow_local);
    class_local_ = std::move(sub.class_local);
    boundary_node_budgets_ = std::move(sub.node_budgets);
    boundary_link_budgets_ = std::move(sub.link_budgets);
    node_boundary_index_ = std::move(sub.node_boundary_index);
    link_boundary_index_ = std::move(sub.link_boundary_index);
    buildMembers(std::move(sub.members));

    int threads = config_.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = std::min(config_.shards, static_cast<int>(hw == 0 ? 1 : hw));
    }
    if (threads < 1) throw std::invalid_argument("ShardedLrgpEngine: threads must be >= 0");
    pool_ = std::make_unique<core::TaskPool>(threads);

    allocation_ = model::Allocation::minimal(spec_);
    prices_ = core::PriceVector::zeros(spec_.nodeCount(), spec_.linkCount());
    for (double& p : prices_.node) p = options_.initial_node_price;
    for (double& p : prices_.link) p = options_.initial_link_price;
    // Seed the merged mirrors from the members' pre-step state so the
    // observers agree with the shards before the first iteration.
    for (std::size_t s = 0; s < members_.size(); ++s) mergeMember(s);
}

ShardedLrgpEngine::~ShardedLrgpEngine() = default;

void ShardedLrgpEngine::buildMembers(std::vector<MemberSpec> specs) {
    members_.resize(specs.size());
    for (std::size_t s = 0; s < specs.size(); ++s) {
        MemberSpec& ms = specs[s];
        Member member;
        member.flows = std::move(ms.flows);
        member.classes = std::move(ms.classes);
        member.nodes = std::move(ms.nodes);
        member.links = std::move(ms.links);
        member.node_local = std::move(ms.node_local);
        member.link_local = std::move(ms.link_local);
        member.own_nodes = std::move(ms.own_nodes);
        member.own_links = std::move(ms.own_links);
        if (ms.spec.has_value())
            member.engine = std::make_unique<core::ParallelLrgpEngine>(
                std::move(*ms.spec), options_, core::EngineConfig{.threads = 1});
        members_[s] = std::move(member);
    }
}

void ShardedLrgpEngine::mergeMember(std::size_t s) {
    Member& member = members_[s];
    if (!member.engine) return;
    const model::Allocation& alloc = member.engine->allocation();
    const core::PriceVector& prices = member.engine->prices();
    for (std::size_t i = 0; i < member.flows.size(); ++i)
        allocation_.rates[member.flows[i]] = alloc.rates[i];
    for (std::size_t i = 0; i < member.classes.size(); ++i)
        allocation_.populations[member.classes[i]] = alloc.populations[i];
    for (const auto& [local, global] : member.own_nodes) prices_.node[global] = prices.node[local];
    for (const auto& [local, global] : member.own_links) prices_.link[global] = prices.link[local];
}

void ShardedLrgpEngine::mergeBoundaryPrices() {
    for (const BoundaryBudget& entry : boundary_node_budgets_) {
        double num = 0.0, den = 0.0;
        for (std::size_t i = 0; i < entry.shards.size(); ++i) {
            const Member& member = members_[static_cast<std::size_t>(entry.shards[i])];
            num += entry.budget[i] * member.engine->prices().node[member.node_local[entry.id]];
            den += entry.budget[i];
        }
        prices_.node[entry.id] = den > 0.0 ? num / den : 0.0;
    }
    for (const BoundaryBudget& entry : boundary_link_budgets_) {
        double num = 0.0, den = 0.0;
        for (std::size_t i = 0; i < entry.shards.size(); ++i) {
            const Member& member = members_[static_cast<std::size_t>(entry.shards[i])];
            num += entry.budget[i] * member.engine->prices().link[member.link_local[entry.id]];
            den += entry.budget[i];
        }
        prices_.link[entry.id] = den > 0.0 ? num / den : 0.0;
    }
}

void ShardedLrgpEngine::publishRecord() {
    mergeBoundaryPrices();
    iteration_ = maxMemberIterations();
    double utility = 0.0;
    for (const Member& member : members_) utility += member.last_utility;
    last_record_.iteration = iteration_;
    last_record_.utility = utility;
    last_record_.allocation = allocation_;
    last_record_.prices = prices_;
    trace_.append(utility);
    detector_.addSample(utility);
    exportIterationCounters();
    if (tracer_ != nullptr && tracer_->sampling())
        tracer_->counterSample("sharded_utility", 0, tracer_->nowMicros(), utility);
}

void ShardedLrgpEngine::exportIterationCounters() {
    if (!obs_attached_) return;
    std::uint64_t delta_total = 0;
    for (std::size_t s = 0; s < members_.size(); ++s) {
        Member& member = members_[s];
        const std::uint64_t iters =
            member.engine ? static_cast<std::uint64_t>(member.engine->iterationsRun()) : 0;
        const std::uint64_t delta = iters - member.obs_iterations;
        member.obs_iterations = iters;
        if (s < instr_.iterations_by_shard.size()) instr_.iterations_by_shard[s]->add(delta);
        delta_total += delta;
    }
    instr_.steps->add(1);
    instr_.member_iterations->add(delta_total);
}

const core::IterationRecord& ShardedLrgpEngine::step() {
    pool_->forEachMergeOrdered(
        members_.size(),
        [this](std::size_t s, int) {
            Member& member = members_[s];
            if (!member.engine) return;
            member.last_utility = member.engine->step().utility;
        },
        [this](std::size_t s) { mergeMember(s); });
    publishRecord();
    if (++steps_since_reconcile_ >= kReconcileInterval) {
        bool moved = false;
        reconcile(moved);
        steps_since_reconcile_ = 0;
    }
    return last_record_;
}

const core::IterationRecord& ShardedLrgpEngine::run(int iterations) {
    if (iterations <= 0)
        throw std::invalid_argument("ShardedLrgpEngine::run: iterations must be positive");
    for (int i = 0; i < iterations; ++i) step();
    return last_record_;
}

std::optional<int> ShardedLrgpEngine::runUntilConverged(int max_iterations) {
    if (max_iterations <= 0)
        throw std::invalid_argument("ShardedLrgpEngine::runUntilConverged: bad max_iterations");
    int advanced = 0;
    while (advanced < max_iterations) {
        const int round = std::min(kReconcileInterval, max_iterations - advanced);
        pool_->forEachMergeOrdered(
            members_.size(),
            [this, round](std::size_t s, int) {
                Member& member = members_[s];
                if (!member.engine) return;
                if (member.engine->convergence().converged()) return;
                for (int i = 0; i < round; ++i) {
                    member.last_utility = member.engine->step().utility;
                    if (member.engine->convergence().converged()) break;
                }
            },
            [this](std::size_t s) { mergeMember(s); });
        publishRecord();
        bool moved = false;
        reconcile(moved);
        steps_since_reconcile_ = 0;
        advanced += round;
        if (allMembersConverged() && !moved) {
            // For K=1 this is exactly the monolithic engine's return value
            // (the shard's detector saw the same utility trajectory).
            if (members_.size() == 1 && members_[0].engine)
                return static_cast<int>(members_[0].engine->convergence().convergedAt());
            return iteration_;
        }
    }
    return std::nullopt;
}

void ShardedLrgpEngine::reconcile(bool& moved) {
    moved = false;
    std::uint64_t t0 = 0;
    if (obs_attached_) t0 = obs::monotonic_ns();
    std::uint64_t exchanges = 0, updates = 0, wakeups = 0;
    double pass_moved = 0.0;

    const auto process = [&](std::vector<BoundaryBudget>& entries, bool is_node) {
        std::vector<double> local_prices;
        for (BoundaryBudget& entry : entries) {
            const std::size_t m = entry.shards.size();
            local_prices.resize(m);
            for (std::size_t i = 0; i < m; ++i) {
                const Member& member = members_[static_cast<std::size_t>(entry.shards[i])];
                local_prices[i] =
                    is_node ? member.engine->prices().node[member.node_local[entry.id]]
                            : member.engine->prices().link[member.link_local[entry.id]];
            }
            exchanges += m;
            RebalanceResult result = rebalance_budgets(entry.capacity, entry.budget, entry.floor,
                                                       local_prices, effective_step_);
            if (result.moved <= kMinRebalanceFraction * entry.capacity) continue;
            for (std::size_t i = 0; i < m; ++i) {
                if (result.budget[i] == entry.budget[i]) continue;
                Member& member = members_[static_cast<std::size_t>(entry.shards[i])];
                if (member.engine->convergence().converged()) ++wakeups;
                if (is_node)
                    member.engine->setNodeCapacity(model::NodeId{member.node_local[entry.id]},
                                                   result.budget[i]);
                else
                    member.engine->setLinkCapacity(model::LinkId{member.link_local[entry.id]},
                                                   result.budget[i]);
                ++updates;
            }
            entry.budget = std::move(result.budget);
            pass_moved += result.moved;
            moved = true;
        }
    };
    process(boundary_node_budgets_, true);
    process(boundary_link_budgets_, false);

    // Geometric step decay guarantees termination: once moves shrink
    // below the hysteresis threshold, converged shards stay paused.
    if (moved) effective_step_ *= kReconcileStepDecay;

    stats_.passes += 1;
    stats_.price_exchanges += exchanges;
    stats_.budget_updates += updates;
    stats_.shard_wakeups += wakeups;
    stats_.budget_moved += pass_moved;
    if (obs_attached_) {
        instr_.reconciles->add(1);
        instr_.price_exchanges->add(exchanges);
        instr_.budget_updates->add(updates);
        instr_.wakeups->add(wakeups);
        instr_.budget_moved->set(stats_.budget_moved);
        instr_.reconcile_seconds->observe(static_cast<double>(obs::monotonic_ns() - t0) * 1e-9);
    }
}

bool ShardedLrgpEngine::reconcileNow() {
    bool moved = false;
    reconcile(moved);
    steps_since_reconcile_ = 0;
    return moved;
}

bool ShardedLrgpEngine::allMembersConverged() const {
    for (const Member& member : members_) {
        if (!member.engine) continue;  // empty shards have nothing to converge
        if (!member.engine->convergence().converged()) return false;
    }
    return true;
}

int ShardedLrgpEngine::maxMemberIterations() const {
    int iterations = 0;
    for (const Member& member : members_)
        if (member.engine) iterations = std::max(iterations, member.engine->iterationsRun());
    return iterations;
}

// -- dynamic workload changes ---------------------------------------------

void ShardedLrgpEngine::removeFlow(model::FlowId flow) {
    if (flow.index() >= spec_.flowCount())
        throw std::invalid_argument("ShardedLrgpEngine::removeFlow: unknown flow");
    const auto s = static_cast<std::size_t>(shard_of_flow_[flow.index()]);
    members_[s].engine->removeFlow(model::FlowId{flow_local_[flow.index()]});
    spec_.setFlowActive(flow, false);
    mergeMember(s);
    detector_.reset();
    effective_step_ = kReconcileStep;
}

void ShardedLrgpEngine::restoreFlow(model::FlowId flow) {
    if (flow.index() >= spec_.flowCount())
        throw std::invalid_argument("ShardedLrgpEngine::restoreFlow: unknown flow");
    const auto s = static_cast<std::size_t>(shard_of_flow_[flow.index()]);
    members_[s].engine->restoreFlow(model::FlowId{flow_local_[flow.index()]});
    spec_.setFlowActive(flow, true);
    mergeMember(s);
    detector_.reset();
    effective_step_ = kReconcileStep;
}

void ShardedLrgpEngine::setNodeCapacity(model::NodeId node, double capacity) {
    if (node.index() >= spec_.nodeCount())
        throw std::invalid_argument("ShardedLrgpEngine::setNodeCapacity: unknown node");
    spec_.setNodeCapacity(node, capacity);  // validates capacity > 0
    const std::uint32_t bi = node_boundary_index_[node.index()];
    if (bi == kAbsent) {
        const auto& owners = partition_.shards_of_node[node.index()];
        Member& member = members_[static_cast<std::size_t>(owners.empty() ? 0 : owners[0])];
        if (member.engine)
            member.engine->setNodeCapacity(model::NodeId{member.node_local[node.index()]},
                                           capacity);
    } else {
        // Re-split the new capacity proportionally to the current budgets
        // (they encode the reconciled demand balance), keeping the floors.
        BoundaryBudget& entry = boundary_node_budgets_[bi];
        entry.capacity = capacity;
        entry.budget = split_with_floors(capacity, entry.floor, entry.budget);
        for (std::size_t i = 0; i < entry.shards.size(); ++i) {
            Member& member = members_[static_cast<std::size_t>(entry.shards[i])];
            member.engine->setNodeCapacity(model::NodeId{member.node_local[entry.id]},
                                           entry.budget[i]);
        }
    }
    detector_.reset();
    effective_step_ = kReconcileStep;
}

void ShardedLrgpEngine::setLinkCapacity(model::LinkId link, double capacity) {
    if (link.index() >= spec_.linkCount())
        throw std::invalid_argument("ShardedLrgpEngine::setLinkCapacity: unknown link");
    spec_.setLinkCapacity(link, capacity);
    const std::uint32_t bi = link_boundary_index_[link.index()];
    if (bi == kAbsent) {
        const auto& owners = partition_.shards_of_link[link.index()];
        Member& member = members_[static_cast<std::size_t>(owners.empty() ? 0 : owners[0])];
        if (member.engine)
            member.engine->setLinkCapacity(model::LinkId{member.link_local[link.index()]},
                                           capacity);
    } else {
        BoundaryBudget& entry = boundary_link_budgets_[bi];
        entry.capacity = capacity;
        entry.budget = split_with_floors(capacity, entry.floor, entry.budget);
        for (std::size_t i = 0; i < entry.shards.size(); ++i) {
            Member& member = members_[static_cast<std::size_t>(entry.shards[i])];
            member.engine->setLinkCapacity(model::LinkId{member.link_local[entry.id]},
                                           entry.budget[i]);
        }
    }
    detector_.reset();
    effective_step_ = kReconcileStep;
}

void ShardedLrgpEngine::setClassMaxConsumers(model::ClassId cls, int max_consumers) {
    if (cls.index() >= spec_.classCount())
        throw std::invalid_argument("ShardedLrgpEngine::setClassMaxConsumers: unknown class");
    const auto s =
        static_cast<std::size_t>(shard_of_flow_[spec_.classes()[cls.index()].flow.index()]);
    members_[s].engine->setClassMaxConsumers(model::ClassId{class_local_[cls.index()]},
                                             max_consumers);
    spec_.setClassMaxConsumers(cls, max_consumers);
    mergeMember(s);
    detector_.reset();
    effective_step_ = kReconcileStep;
}

void ShardedLrgpEngine::warmStart(const core::PriceVector& prices,
                                  const std::vector<int>* populations) {
    core::check_warm_start(spec_, prices, populations);
    for (Member& member : members_) {
        if (!member.engine) continue;
        core::PriceVector local = core::PriceVector::zeros(member.nodes.size(),
                                                           member.links.size());
        for (std::size_t i = 0; i < member.nodes.size(); ++i)
            local.node[i] = prices.node[member.nodes[i]];
        for (std::size_t i = 0; i < member.links.size(); ++i)
            local.link[i] = prices.link[member.links[i]];
        if (populations != nullptr) {
            std::vector<int> pops(member.classes.size());
            for (std::size_t i = 0; i < member.classes.size(); ++i)
                pops[i] = (*populations)[member.classes[i]];
            member.engine->warmStart(local, &pops);
        } else {
            member.engine->warmStart(local, nullptr);
        }
    }
    prices_ = prices;
    if (populations != nullptr)
        for (const model::ClassSpec& c : spec_.classes())
            allocation_.populations[c.id.index()] =
                std::min((*populations)[c.id.index()], c.max_consumers);
    detector_.reset();
    effective_step_ = kReconcileStep;
}

// -- observability ----------------------------------------------------------

void ShardedLrgpEngine::attachObservability(obs::Registry* registry,
                                            obs::IterationTracer* tracer) {
    if (registry != nullptr) {
        instr_ = obs::ShardInstruments::resolve(*registry, shardCount());
        obs_attached_ = true;
        instr_.shard_count->set(static_cast<double>(shardCount()));
        instr_.boundary_nodes->set(static_cast<double>(partition_.boundary_nodes));
        instr_.boundary_links->set(static_cast<double>(partition_.boundary_links));
        instr_.budget_moved->set(stats_.budget_moved);
    } else {
        instr_ = obs::ShardInstruments{};
        obs_attached_ = false;
    }
    tracer_ = tracer;
}

// -- observers --------------------------------------------------------------

double ShardedLrgpEngine::currentUtility() const {
    return model::total_utility(spec_, allocation_);
}

double ShardedLrgpEngine::nodeGamma(model::NodeId node) const {
    if (node.index() >= spec_.nodeCount())
        throw std::invalid_argument("ShardedLrgpEngine::nodeGamma: unknown node");
    const auto& owners = partition_.shards_of_node[node.index()];
    const Member& member = members_[static_cast<std::size_t>(owners.empty() ? 0 : owners[0])];
    if (!member.engine) return 0.0;  // orphan node in a flowless shard
    return member.engine->nodeGamma(model::NodeId{member.node_local[node.index()]});
}

const core::Engine& ShardedLrgpEngine::shardEngine(int shard) const {
    if (shard < 0 || shard >= shardCount())
        throw std::out_of_range("ShardedLrgpEngine::shardEngine: shard out of range");
    const Member& member = members_[static_cast<std::size_t>(shard)];
    if (!member.engine)
        throw std::invalid_argument("ShardedLrgpEngine::shardEngine: shard has no flows");
    return *member.engine;
}

int ShardedLrgpEngine::shardOfFlow(model::FlowId flow) const {
    if (flow.index() >= spec_.flowCount())
        throw std::invalid_argument("ShardedLrgpEngine::shardOfFlow: unknown flow");
    return shard_of_flow_[flow.index()];
}

model::FlowId ShardedLrgpEngine::localFlowId(model::FlowId flow) const {
    if (flow.index() >= spec_.flowCount())
        throw std::invalid_argument("ShardedLrgpEngine::localFlowId: unknown flow");
    return model::FlowId{flow_local_[flow.index()]};
}

std::vector<ShardSummary> ShardedLrgpEngine::summaries() const {
    std::vector<ShardSummary> out(members_.size());
    for (std::size_t s = 0; s < members_.size(); ++s) {
        const Member& member = members_[s];
        ShardSummary& summary = out[s];
        summary.shard = static_cast<int>(s);
        summary.flows = member.flows.size();
        summary.classes = member.classes.size();
        summary.nodes = member.nodes.size();
        summary.links = member.links.size();
        for (std::uint32_t n : member.nodes)
            if (partition_.shards_of_node[n].size() >= 2) ++summary.boundary_nodes;
        for (std::uint32_t l : member.links)
            if (partition_.shards_of_link[l].size() >= 2) ++summary.boundary_links;
        summary.iterations = member.engine ? member.engine->iterationsRun() : 0;
        summary.converged = member.engine ? member.engine->convergence().converged() : true;
    }
    return out;
}

double ShardedLrgpEngine::boundaryNodeFraction() const noexcept {
    return spec_.nodeCount() == 0
               ? 0.0
               : static_cast<double>(partition_.boundary_nodes) /
                     static_cast<double>(spec_.nodeCount());
}

namespace {

using EngineBuilder = std::unique_ptr<core::Engine> (*)(model::ProblemSpec spec,
                                                        core::LrgpOptions options, int threads,
                                                        int shards);

// Every engine name make_engine accepts, in the order its error lists them.
constexpr std::pair<std::string_view, EngineBuilder> kEngines[] = {
    {"serial",
     [](model::ProblemSpec spec, core::LrgpOptions options, int,
        int) -> std::unique_ptr<core::Engine> {
         return std::make_unique<core::LrgpOptimizer>(std::move(spec), std::move(options));
     }},
    {"incremental",
     [](model::ProblemSpec spec, core::LrgpOptions options, int threads,
        int) -> std::unique_ptr<core::Engine> {
         return std::make_unique<core::ParallelLrgpEngine>(
             std::move(spec), std::move(options), core::EngineConfig{.threads = threads});
     }},
    {"sharded",
     [](model::ProblemSpec spec, core::LrgpOptions options, int threads,
        int shards) -> std::unique_ptr<core::Engine> {
         return std::make_unique<ShardedLrgpEngine>(
             std::move(spec), std::move(options),
             ShardedConfig{.shards = shards, .threads = threads});
     }},
};

}  // namespace

std::unique_ptr<core::Engine> make_engine(std::string_view name, model::ProblemSpec spec,
                                          core::LrgpOptions options, int threads, int shards) {
    for (const auto& [engine, build] : kEngines)
        if (engine == name) return build(std::move(spec), std::move(options), threads, shards);
    std::string accepted;
    for (const auto& [engine, build] : kEngines)
        accepted += (accepted.empty() ? "" : ", ") + std::string(engine);
    throw std::invalid_argument("make_engine: unknown engine '" + std::string(name) +
                                "' (accepted: " + accepted + ")");
}

}  // namespace lrgp::shard
