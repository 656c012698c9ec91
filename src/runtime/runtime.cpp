#include "runtime/runtime.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "shard/budget.hpp"

namespace lrgp::runtime {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Protocol timers, in runtime-clock seconds.

/// Agent loop period: every tick an agent drains its inbox, runs one
/// engine iteration and sends the digests that are due.
constexpr double kTickPeriod = 0.005;
/// Digest (= heartbeat) spacing per live peer.
constexpr double kDigestPeriod = 0.01;
/// A peer silent for longer than this is suspected.
constexpr double kHeartbeatTimeout = 0.25;
/// Digests older than this are rejected on receipt, and a coordinator
/// does not rebalance on a peer price older than this.
constexpr double kStalenessHorizon = 0.6;
/// Exponential backoff for sends to a suspected peer: the interval
/// starts at kBackoffMin, grows by kBackoffFactor per send up to
/// kBackoffMax, and each use is scaled by (1 + kBackoffJitter * u), u
/// drawn from the agent's deterministic stream.
constexpr double kBackoffMin = 0.05;
constexpr double kBackoffMax = 0.8;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffJitter = 0.2;
/// Engine snapshot spacing (the crash-recovery checkpoint interval).
constexpr double kSnapshotPeriod = 0.5;
/// Price quarantine after a degraded slice is restored: a price measured
/// against the floored capacity is meaningless for rebalancing until the
/// engine's price controller has decayed back, so it is not advertised
/// and its coordinator defers rebalancing.
constexpr double kPriceSettle = 0.5;

static_assert(kHeartbeatTimeout >= kDigestPeriod,
              "suspecting peers faster than they heartbeat would flap on every healthy gap");
static_assert(kStalenessHorizon >= kDigestPeriod,
              "a horizon below the heartbeat interval would reject healthy digests");
static_assert(kBackoffFactor > 1.0,
              "a factor <= 1 never backs off and keeps flooding a suspected peer");
static_assert(kBackoffMin <= kBackoffMax, "the backoff interval range is empty");
static_assert(kBackoffJitter >= 0.0 && kBackoffJitter < 1.0,
              "the backoff jitter fraction must lie in [0, 1)");

/// Per-agent deterministic stream (same family as the transport's).
std::uint64_t xorshift64(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

double uniform01(std::uint64_t& state) {
    return static_cast<double>(xorshift64(state) >> 11) * 0x1.0p-53;
}

void appendHex(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    out += buf;
}

void appendUint(std::string& out, std::uint64_t v) { out += std::to_string(v); }

}  // namespace

/// One boundary resource of the global problem, shared by >= 2 agents.
struct AsyncShardRuntime::Resource {
    bool node = true;            ///< node vs link
    std::uint32_t id = 0;        ///< global node/link index
    double capacity = 0.0;       ///< full global capacity
    std::vector<int> agents;     ///< incident agents, ascending
    std::vector<double> floor;   ///< guaranteed-feasible slice per rank
    std::vector<double> initial; ///< construction-time split per rank
    int coordinator = 0;         ///< lowest incident agent
};

struct AsyncShardRuntime::Agent {
    int id = 0;

    // -- local engine -----------------------------------------------------
    std::unique_ptr<core::ParallelLrgpEngine> engine;  ///< null when no flows
    model::ProblemSpec pristine;   ///< cold-restart copy of the subproblem
    bool has_engine = false;
    core::LrgpOptions engine_options;

    // -- entity maps (local <-> global) ----------------------------------
    std::vector<std::uint32_t> flows, classes, nodes, links;
    std::vector<std::uint32_t> node_local, link_local;  ///< global -> local

    // -- peer bookkeeping -------------------------------------------------
    struct Peer {
        bool neighbor = false;   ///< shares at least one boundary resource
        double last_heard = 0.0;
        bool suspected = false;
        std::uint64_t epoch = 0;    ///< highest digest (epoch, version) seen
        std::uint64_t version = 0;
        double next_send = 0.0;
        double backoff = 0.0;       ///< current backoff interval (suspected)
        bool resend_pending = false;  ///< last send hit backpressure
    };
    std::vector<Peer> peers;
    std::vector<int> neighbors;  ///< ids with peers[j].neighbor, ascending

    // -- boundary slices this agent holds ---------------------------------
    struct LocalBudget {
        std::size_t resource = 0;   ///< index into resources_
        std::uint32_t local_id = 0; ///< node/link index inside the subproblem
        std::size_t rank = 0;       ///< my rank in resources_[resource].agents
        double applied = 0.0;       ///< authoritative slice (coordinator's word)
        std::uint64_t epoch = 0;    ///< of the applied assignment
        std::uint64_t version = 0;
        bool degraded = false;      ///< clamped to floor while a peer is suspected
        double settle_until = 0.0;  ///< price quarantined until then after restore
    };
    std::vector<LocalBudget> budgets;

    // -- coordinator state (resources where coordinator == id) ------------
    struct Coordination {
        std::size_t resource = 0;
        std::size_t budget_index = 0;  ///< my LocalBudget for this resource
        std::vector<double> current;   ///< granted slices per rank (sum == capacity)
        std::vector<double> pending;   ///< target slices while shrinking
        std::uint64_t version = 0;
        bool shrinking = false;  ///< shrink published, grow withheld until acked
        std::vector<std::uint64_t> acked_version;  ///< per rank
        std::vector<std::uint64_t> acked_epoch;
        std::vector<double> peer_price;       ///< freshest boundary price per rank
        std::vector<double> peer_price_time;  ///< send_time of that price
        int ticks_since = 0;
    };
    std::vector<Coordination> coords;

    // -- liveness ----------------------------------------------------------
    bool down = false;
    std::uint64_t epoch = 0;  ///< membership epoch, bumped on every restart
    double restart_at = kInf;
    std::vector<faults::CrashEvent> crash_schedule;  ///< sorted by `at`
    std::size_t next_crash = 0;

    // -- crash-recovery checkpoint ----------------------------------------
    std::string snapshot_bytes;  ///< empty until the first snapshot
    double next_snapshot = 0.0;

    // -- misc --------------------------------------------------------------
    std::uint64_t digest_version = 0;  ///< monotone across all sends
    std::uint64_t rng = 0;             ///< jitter stream
    std::atomic<double> published{0.0};
    AgentCounters counters;
    std::string log;
    std::vector<Delivery> inbox;  ///< poll() scratch
};

// ---------------------------------------------------------------------------
// construction & validation
// ---------------------------------------------------------------------------

RuntimeOptions AsyncShardRuntime::validated(RuntimeOptions runtime) {
    const auto fail = [](const std::string& msg) {
        throw std::invalid_argument("AsyncShardRuntime: " + msg);
    };
    if (runtime.agents < 1) fail("agents must be >= 1 (one shard agent per thread)");
    if (!(runtime.latency_min > 0.0))
        fail("latency_min must be > 0 — zero-latency delivery would let a message arrive "
             "inside its own send tick and break the deterministic-mode contract");
    if (!(runtime.latency_max >= runtime.latency_min))
        fail("latency_max must be >= latency_min");
    if (runtime.queue_capacity < 1) fail("queue_capacity must be >= 1");
    if (!(runtime.sample_period > 0.0)) fail("sample_period must be > 0 seconds");

    runtime.fault_plan.validate();
    const auto agent_count = static_cast<std::uint32_t>(runtime.agents);
    const auto check_ref = [&](const faults::AgentRef& ref, const char* what) {
        if (ref.index >= agent_count)
            fail(std::string("fault plan ") + what + " references agent index " +
                 std::to_string(ref.index) + " but the runtime has only " +
                 std::to_string(agent_count) + " agents (indices 0.." +
                 std::to_string(agent_count - 1) + ")");
    };
    const auto check_opt = [&](const std::optional<faults::AgentRef>& ref, const char* what) {
        if (ref.has_value()) check_ref(*ref, what);
    };
    for (const auto& l : runtime.fault_plan.losses) {
        check_opt(l.from, "loss burst sender");
        check_opt(l.to, "loss burst receiver");
    }
    for (const auto& d : runtime.fault_plan.delay_spikes) {
        check_opt(d.from, "delay spike sender");
        check_opt(d.to, "delay spike receiver");
    }
    for (const auto& p : runtime.fault_plan.partitions)
        for (const auto& ref : p.island) check_ref(ref, "partition island member");
    for (const auto& p : runtime.fault_plan.asymmetric_partitions)
        for (const auto& ref : p.island) check_ref(ref, "asymmetric partition island member");
    for (const auto& c : runtime.fault_plan.crashes) check_ref(c.agent, "crash event");
    for (const auto& c : runtime.fault_plan.corruptions)
        check_opt(c.from, "price corruption sender");
    return runtime;
}

AsyncShardRuntime::AsyncShardRuntime(model::ProblemSpec spec, core::LrgpOptions options,
                                     RuntimeOptions runtime)
    : spec_(std::move(spec)), runtime_(validated(std::move(runtime))) {
    shard::SubproblemSet sub = shard::build_subproblems(spec_, {.shards = runtime_.agents});

    buildResources(sub);
    buildAgents(std::move(sub), options);

    TransportOptions topts;
    topts.latency_min = runtime_.latency_min;
    topts.latency_max = runtime_.latency_max;
    topts.queue_capacity = runtime_.queue_capacity;
    topts.seed = runtime_.seed;
    topts.fault_plan = runtime_.fault_plan;
    transport_ = std::make_unique<ChannelTransport>(runtime_.agents, std::move(topts));

    next_sample_ = runtime_.sample_period;
}

AsyncShardRuntime::~AsyncShardRuntime() = default;

void AsyncShardRuntime::buildResources(const shard::SubproblemSet& sub) {
    node_resource_.assign(spec_.nodes().size(), shard::kAbsent);
    link_resource_.assign(spec_.links().size(), shard::kAbsent);
    resources_.reserve(sub.node_budgets.size() + sub.link_budgets.size());
    const auto add = [this](const shard::BoundaryBudget& b, bool node) {
        Resource r;
        r.node = node;
        r.id = b.id;
        r.capacity = b.capacity;
        r.agents = b.shards;
        r.floor = b.floor;
        r.initial = b.budget;
        r.coordinator = b.shards.front();  // incident list is ascending
        (node ? node_resource_ : link_resource_)[b.id] =
            static_cast<std::uint32_t>(resources_.size());
        resources_.push_back(std::move(r));
    };
    for (const shard::BoundaryBudget& b : sub.node_budgets) add(b, true);
    for (const shard::BoundaryBudget& b : sub.link_budgets) add(b, false);
}

void AsyncShardRuntime::buildAgents(shard::SubproblemSet sub, const core::LrgpOptions& options) {
    const int count = runtime_.agents;
    agents_.reserve(static_cast<std::size_t>(count));
    for (int s = 0; s < count; ++s) {
        auto agent = std::make_unique<Agent>();
        agent->id = s;
        agent->engine_options = options;
        shard::MemberSpec& ms = sub.members[static_cast<std::size_t>(s)];
        agent->flows = std::move(ms.flows);
        agent->classes = std::move(ms.classes);
        agent->nodes = std::move(ms.nodes);
        agent->links = std::move(ms.links);
        agent->node_local = std::move(ms.node_local);
        agent->link_local = std::move(ms.link_local);
        if (ms.spec.has_value()) {
            agent->pristine = *ms.spec;  // cold-restart copy
            agent->has_engine = true;
            agent->engine = std::make_unique<core::ParallelLrgpEngine>(
                std::move(*ms.spec), options, core::EngineConfig{.threads = 1});
            agent->published.store(agent->engine->currentUtility(), std::memory_order_relaxed);
        }
        agent->peers.resize(static_cast<std::size_t>(count));
        agent->rng = 0xC3A5C85C97CB3127ull ^
                     (static_cast<std::uint64_t>(runtime_.seed + 104729u *
                                                 static_cast<std::uint32_t>(s + 1)) *
                      0x9E3779B97F4A7C15ull);
        agent->next_snapshot = kSnapshotPeriod;

        for (const faults::CrashEvent& ev : runtime_.fault_plan.crashes)
            if (ev.agent.index == static_cast<std::uint32_t>(s))
                agent->crash_schedule.push_back(ev);
        std::stable_sort(agent->crash_schedule.begin(), agent->crash_schedule.end(),
                         [](const faults::CrashEvent& a, const faults::CrashEvent& b) {
                             return a.at < b.at;
                         });
        agents_.push_back(std::move(agent));
    }

    // Boundary incidence: budgets, coordinator state and the peer graph.
    for (std::size_t ri = 0; ri < resources_.size(); ++ri) {
        const Resource& r = resources_[ri];
        for (std::size_t rank = 0; rank < r.agents.size(); ++rank) {
            Agent& agent = *agents_[static_cast<std::size_t>(r.agents[rank])];
            Agent::LocalBudget lb;
            lb.resource = ri;
            lb.local_id = r.node ? agent.node_local[r.id] : agent.link_local[r.id];
            lb.rank = rank;
            lb.applied = r.initial[rank];
            agent.budgets.push_back(lb);
            if (agent.id == r.coordinator) {
                Agent::Coordination c;
                c.resource = ri;
                c.budget_index = agent.budgets.size() - 1;
                c.current = r.initial;
                c.version = 1;
                c.acked_version.assign(r.agents.size(), 0);
                c.acked_epoch.assign(r.agents.size(), 0);
                c.peer_price.assign(r.agents.size(), 0.0);
                c.peer_price_time.assign(r.agents.size(), -kInf);
                agent.coords.push_back(std::move(c));
            }
            for (int other : r.agents)
                if (other != agent.id) agent.peers[static_cast<std::size_t>(other)].neighbor = true;
        }
    }
    for (auto& agent : agents_)
        for (int j = 0; j < count; ++j)
            if (agent->peers[static_cast<std::size_t>(j)].neighbor) agent->neighbors.push_back(j);
}

// ---------------------------------------------------------------------------
// quiescent dynamic workload ops
// ---------------------------------------------------------------------------

void AsyncShardRuntime::applyFlowActive(model::FlowId flow, bool active) {
    if (!flow.valid() || flow.index() >= spec_.flowCount())
        throw std::invalid_argument("AsyncShardRuntime: flow id out of range");
    spec_.setFlowActive(flow, active);
    for (auto& agent : agents_) {
        for (std::size_t i = 0; i < agent->flows.size(); ++i) {
            if (agent->flows[i] != flow.value) continue;
            const model::FlowId local{static_cast<std::uint32_t>(i)};
            agent->pristine.setFlowActive(local, active);
            if (agent->has_engine) {
                if (active)
                    agent->engine->restoreFlow(local);
                else
                    agent->engine->removeFlow(local);
            }
            return;
        }
    }
    throw std::logic_error("AsyncShardRuntime: flow not owned by any agent");
}

void AsyncShardRuntime::removeFlow(model::FlowId flow) { applyFlowActive(flow, false); }

void AsyncShardRuntime::restoreFlow(model::FlowId flow) { applyFlowActive(flow, true); }

void AsyncShardRuntime::setClassMaxConsumers(model::ClassId cls, int max_consumers) {
    if (!cls.valid() || cls.index() >= spec_.classCount())
        throw std::invalid_argument("AsyncShardRuntime: class id out of range");
    spec_.setClassMaxConsumers(cls, max_consumers);
    for (auto& agent : agents_) {
        for (std::size_t i = 0; i < agent->classes.size(); ++i) {
            if (agent->classes[i] != cls.value) continue;
            const model::ClassId local{static_cast<std::uint32_t>(i)};
            agent->pristine.setClassMaxConsumers(local, max_consumers);
            if (agent->has_engine) agent->engine->setClassMaxConsumers(local, max_consumers);
            return;
        }
    }
    throw std::logic_error("AsyncShardRuntime: class not owned by any agent");
}

// ---------------------------------------------------------------------------
// drivers
// ---------------------------------------------------------------------------

void AsyncShardRuntime::runFor(double seconds) {
    if (!(seconds > 0.0))
        throw std::invalid_argument("AsyncShardRuntime: runFor seconds must be > 0");
    if (runtime_.deterministic)
        runVirtual(seconds);
    else
        runReal(seconds);
    exportCounters();
}

void AsyncShardRuntime::runVirtual(double seconds) {
    auto ticks = static_cast<std::uint64_t>(std::llround(seconds / kTickPeriod));
    if (ticks == 0) ticks = 1;

    // Two barrier phases per tick: every agent ticks between them, the
    // driver samples after them.  latency_min > 0 guarantees a tick's
    // sends are invisible to the same tick's polls, so the single tick
    // barrier already makes message visibility schedule-independent.
    std::barrier gate(static_cast<std::ptrdiff_t>(agents_.size()) + 1);
    std::vector<std::thread> threads;
    threads.reserve(agents_.size());
    for (auto& owned : agents_) {
        Agent* agent = owned.get();
        threads.emplace_back([this, agent, &gate, ticks] {
            for (std::uint64_t t = 0; t < ticks; ++t) {
                gate.arrive_and_wait();
                tickAgent(*agent, base_time_ + static_cast<double>(t + 1) * kTickPeriod);
                gate.arrive_and_wait();
            }
        });
    }
    for (std::uint64_t t = 0; t < ticks; ++t) {
        gate.arrive_and_wait();
        gate.arrive_and_wait();
        const double now = base_time_ + static_cast<double>(t + 1) * kTickPeriod;
        while (next_sample_ <= now + 1e-12) {
            sampleUtility();
            next_sample_ += runtime_.sample_period;
        }
    }
    for (std::thread& th : threads) th.join();
    base_time_ += static_cast<double>(ticks) * kTickPeriod;
}

void AsyncShardRuntime::runReal(double seconds) {
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    const double base = base_time_;
    const auto to_duration = [](double s) {
        return std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(s));
    };

    std::vector<std::thread> threads;
    threads.reserve(agents_.size());
    for (auto& owned : agents_) {
        Agent* agent = owned.get();
        threads.emplace_back([this, agent, start, base, seconds, to_duration] {
            for (std::uint64_t t = 0;; ++t) {
                const double offset = static_cast<double>(t + 1) * kTickPeriod;
                if (offset > seconds) break;
                std::this_thread::sleep_until(start + to_duration(offset));
                const double now =
                    base + std::chrono::duration<double>(clock::now() - start).count();
                tickAgent(*agent, now);
            }
        });
    }
    while (next_sample_ <= base + seconds + 1e-12) {
        std::this_thread::sleep_until(start + to_duration(next_sample_ - base));
        sampleUtility();
        next_sample_ += runtime_.sample_period;
    }
    for (std::thread& th : threads) th.join();
    base_time_ = base + seconds;
}

void AsyncShardRuntime::sampleUtility() {
    double total = 0.0;
    for (const auto& agent : agents_) total += agent->published.load(std::memory_order_relaxed);
    published_total_.store(total, std::memory_order_relaxed);
    trace_.append(total);
}

// ---------------------------------------------------------------------------
// agent tick pipeline
// ---------------------------------------------------------------------------

void AsyncShardRuntime::tickAgent(Agent& agent, double now) {
    if (agent.down) {
        if (now < agent.restart_at) return;  // inbox keeps filling: backpressure
        restartAgent(agent, now);
    }
    if (agent.next_crash < agent.crash_schedule.size() &&
        agent.crash_schedule[agent.next_crash].at <= now) {
        agent.restart_at = agent.crash_schedule[agent.next_crash].restart_at;
        ++agent.next_crash;
        crashAgent(agent);
        return;
    }
    receiveDigests(agent, now);
    detectFailures(agent, now);
    if (agent.engine != nullptr) {
        agent.published.store(agent.engine->step().utility, std::memory_order_relaxed);
        ++agent.counters.engine_iterations;
    }
    coordinate(agent, now);
    sendDigests(agent, now);
    maybeSnapshot(agent, now);
}

void AsyncShardRuntime::crashAgent(Agent& agent) {
    // Full live-state loss: in-flight coordination, peer bookkeeping and
    // the engine's warm state die with the process.  Only the snapshot
    // (stable storage) survives; the inbox keeps queuing like a kernel
    // socket buffer for a dead process, so senders feel backpressure.
    agent.down = true;
    ++agent.counters.crashes;
    agent.published.store(0.0, std::memory_order_relaxed);
}

void AsyncShardRuntime::restartAgent(Agent& agent, double now) {
    agent.down = false;
    agent.restart_at = kInf;
    ++agent.epoch;  // peers reject pre-crash digests still in flight
    ++agent.counters.restarts;

    if (agent.has_engine) {
        if (!agent.snapshot_bytes.empty()) {
            agent.engine->restore(core::EngineSnapshot::deserialize(agent.snapshot_bytes));
            ++agent.counters.snapshot_restores;
        } else {
            // No checkpoint yet: cold start from the pristine subproblem.
            agent.engine = std::make_unique<core::ParallelLrgpEngine>(
                agent.pristine, agent.engine_options, core::EngineConfig{.threads = 1});
        }
        agent.published.store(agent.engine->currentUtility(), std::memory_order_relaxed);
    }

    // Fresh process: nobody suspected, every peer gets a full grace
    // period, sends resume immediately.
    for (Agent::Peer& p : agent.peers) {
        p.last_heard = now;
        p.suspected = false;
        p.backoff = 0.0;
        p.next_send = now;
        p.resend_pending = false;
        p.epoch = 0;
        p.version = 0;
    }

    // Applied slices restart from what the restored engine holds; the
    // (epoch, version) reset makes the coordinator's idempotent
    // re-publication re-sync them.
    for (Agent::LocalBudget& lb : agent.budgets) {
        lb.degraded = false;
        lb.epoch = 0;
        lb.version = 0;
        if (agent.engine != nullptr) {
            const Resource& r = resources_[lb.resource];
            lb.applied = r.node
                             ? agent.engine->problem().nodes()[lb.local_id].capacity
                             : agent.engine->problem().links()[lb.local_id].capacity;
        }
    }

    // Coordinator state was lost: reset grants to the floor split —
    // floors are <= any slice ever granted, so the reset can only
    // shrink and the capacity invariant holds without a handshake.
    // The normal rebalance path regrows toward the prices.
    for (Agent::Coordination& c : agent.coords) {
        const Resource& r = resources_[c.resource];
        c.current = r.floor;
        c.pending.clear();
        c.version = 1;
        c.shrinking = false;
        std::fill(c.acked_version.begin(), c.acked_version.end(), 0);
        std::fill(c.acked_epoch.begin(), c.acked_epoch.end(), 0);
        std::fill(c.peer_price.begin(), c.peer_price.end(), 0.0);
        std::fill(c.peer_price_time.begin(), c.peer_price_time.end(), -kInf);
        c.ticks_since = 0;
        applySlice(agent, c.budget_index, c.current[agent.budgets[c.budget_index].rank]);
    }
    agent.next_snapshot = now + kSnapshotPeriod;
}

void AsyncShardRuntime::receiveDigests(Agent& agent, double now) {
    agent.inbox.clear();
    const std::size_t depth = transport_->poll(agent.id, now, agent.inbox);
    if (obs_attached_ && instr_.queue_depth != nullptr)
        instr_.queue_depth->observe(static_cast<double>(depth));
    for (const Delivery& delivery : agent.inbox) applyDigest(agent, delivery, now);
}

void AsyncShardRuntime::applyDigest(Agent& agent, const Delivery& delivery, double now) {
    const Digest& d = delivery.digest;
    ++agent.counters.digests_received;

    // Bounded staleness: a digest older than the horizon reflects a
    // world the receiver must not act on.
    if (now - d.send_time > kStalenessHorizon) {
        ++agent.counters.digests_rejected_stale;
        return;
    }
    Agent::Peer& peer = agent.peers[static_cast<std::size_t>(d.from)];
    // Replay/reorder protection: accept only strictly newer (epoch,
    // version) pairs from each sender.
    if (d.epoch < peer.epoch || (d.epoch == peer.epoch && d.version <= peer.version)) {
        ++agent.counters.digests_rejected_stale;
        return;
    }
    peer.epoch = d.epoch;
    peer.version = d.version;
    peer.last_heard = now;
    if (peer.suspected) unsuspectPeer(agent, d.from, now);
    if (obs_attached_ && instr_.digest_age != nullptr)
        instr_.digest_age->observe(now - d.send_time);

    // Boundary prices feed the coordinator's rebalance decisions.
    for (const PriceEntry& entry : d.prices) {
        const std::uint32_t ri =
            entry.node ? node_resource_[entry.id] : link_resource_[entry.id];
        if (ri == shard::kAbsent) continue;
        for (Agent::Coordination& c : agent.coords) {
            if (c.resource != ri) continue;
            const Resource& r = resources_[ri];
            if (!shard::shard_incident(r.agents, d.from)) break;
            const std::size_t rank = shard::shard_rank(r.agents, d.from);
            if (d.send_time > c.peer_price_time[rank]) {
                c.peer_price[rank] = entry.price;
                c.peer_price_time[rank] = d.send_time;
            }
            break;
        }
    }

    // Capacity assignments from the resource's coordinator.
    for (const BudgetAssignment& a : d.assignments) {
        const std::uint32_t ri = a.node ? node_resource_[a.id] : link_resource_[a.id];
        if (ri == shard::kAbsent || resources_[ri].coordinator != d.from) continue;
        for (std::size_t bi = 0; bi < agent.budgets.size(); ++bi) {
            Agent::LocalBudget& lb = agent.budgets[bi];
            if (lb.resource != ri) continue;
            if (a.epoch > lb.epoch || (a.epoch == lb.epoch && a.version > lb.version)) {
                lb.epoch = a.epoch;
                lb.version = a.version;
                applySlice(agent, bi, a.slice);
            }
            break;
        }
    }

    // Acks gate the coordinator's shrink-before-grow handshake.
    for (const BudgetAck& ack : d.acks) {
        const std::uint32_t ri = ack.node ? node_resource_[ack.id] : link_resource_[ack.id];
        if (ri == shard::kAbsent) continue;
        for (Agent::Coordination& c : agent.coords) {
            if (c.resource != ri) continue;
            const Resource& r = resources_[ri];
            if (!shard::shard_incident(r.agents, d.from)) break;
            const std::size_t rank = shard::shard_rank(r.agents, d.from);
            if (ack.epoch == agent.epoch && ack.version > c.acked_version[rank]) {
                c.acked_epoch[rank] = ack.epoch;
                c.acked_version[rank] = ack.version;
            }
            break;
        }
    }
}

void AsyncShardRuntime::detectFailures(Agent& agent, double now) {
    for (int j : agent.neighbors) {
        Agent::Peer& p = agent.peers[static_cast<std::size_t>(j)];
        if (!p.suspected && now - p.last_heard > kHeartbeatTimeout)
            suspectPeer(agent, j, now);
    }
}

void AsyncShardRuntime::suspectPeer(Agent& agent, int peer, double now) {
    Agent::Peer& p = agent.peers[static_cast<std::size_t>(peer)];
    p.suspected = true;
    p.backoff = kBackoffMin;
    p.next_send = now + jitteredBackoff(agent, p.backoff);
    ++agent.counters.suspicions;

    // Graceful degradation: clamp every slice shared with the suspected
    // peer to its guaranteed-feasible floor.  The floor is safe under
    // ANY assignment the (possibly partitioned-away) coordinator makes,
    // so the global capacity constraint holds while the overlay heals.
    for (std::size_t bi = 0; bi < agent.budgets.size(); ++bi) {
        Agent::LocalBudget& lb = agent.budgets[bi];
        const Resource& r = resources_[lb.resource];
        if (lb.degraded || !shard::shard_incident(r.agents, peer)) continue;
        lb.degraded = true;
        ++agent.counters.degradations;
        setEngineCapacity(agent, bi, r.floor[lb.rank]);
    }
}

void AsyncShardRuntime::unsuspectPeer(Agent& agent, int peer, double now) {
    Agent::Peer& p = agent.peers[static_cast<std::size_t>(peer)];
    p.suspected = false;
    p.backoff = 0.0;
    p.next_send = now;  // resume the normal digest cadence immediately
    ++agent.counters.recoveries;

    for (std::size_t bi = 0; bi < agent.budgets.size(); ++bi) {
        Agent::LocalBudget& lb = agent.budgets[bi];
        const Resource& r = resources_[lb.resource];
        if (!lb.degraded || !shard::shard_incident(r.agents, peer)) continue;
        bool any_suspected = false;
        for (int other : r.agents)
            if (other != agent.id && agent.peers[static_cast<std::size_t>(other)].suspected)
                any_suspected = true;
        if (any_suspected) continue;
        lb.degraded = false;
        // The engine measured this resource's price against the floored
        // capacity; quarantine it until the controller has decayed back.
        lb.settle_until = now + kPriceSettle;
        setEngineCapacity(agent, bi, lb.applied);
    }
}

void AsyncShardRuntime::applySlice(Agent& agent, std::size_t budget_index, double slice) {
    Agent::LocalBudget& lb = agent.budgets[budget_index];
    if (slice == lb.applied) return;  // idempotent re-publication
    lb.applied = slice;
    ++agent.counters.budget_updates;
    if (!lb.degraded) setEngineCapacity(agent, budget_index, slice);
}

double AsyncShardRuntime::localPrice(const Agent& agent, std::size_t resource_index) const {
    if (agent.engine == nullptr) return 0.0;
    const Resource& r = resources_[resource_index];
    return r.node ? agent.engine->prices().node[agent.node_local[r.id]]
                  : agent.engine->prices().link[agent.link_local[r.id]];
}

void AsyncShardRuntime::setEngineCapacity(Agent& agent, std::size_t budget_index,
                                          double capacity) {
    if (agent.engine == nullptr) return;
    const Agent::LocalBudget& lb = agent.budgets[budget_index];
    if (resources_[lb.resource].node)
        agent.engine->setNodeCapacity(model::NodeId(lb.local_id), capacity);
    else
        agent.engine->setLinkCapacity(model::LinkId(lb.local_id), capacity);
}

double AsyncShardRuntime::jitteredBackoff(Agent& agent, double interval) const {
    return interval * (1.0 + kBackoffJitter * uniform01(agent.rng));
}

void AsyncShardRuntime::coordinate(Agent& agent, double now) {
    for (Agent::Coordination& c : agent.coords) {
        const Resource& r = resources_[c.resource];
        const std::size_t my_rank = agent.budgets[c.budget_index].rank;

        if (c.shrinking) {
            // Grow only after every live peer acknowledged the shrink.
            // A suspected peer stalls the grant (never the runtime):
            // the transaction completes via idempotent re-publication
            // once the peer recovers or restarts.
            bool all_acked = true;
            for (std::size_t i = 0; i < r.agents.size(); ++i) {
                if (r.agents[i] == agent.id) continue;
                const Agent::Peer& p = agent.peers[static_cast<std::size_t>(r.agents[i])];
                if (p.suspected || c.acked_epoch[i] != agent.epoch ||
                    c.acked_version[i] < c.version) {
                    all_acked = false;
                    break;
                }
            }
            if (all_acked) {
                c.current = c.pending;
                ++c.version;
                c.shrinking = false;
                c.ticks_since = 0;
                applySlice(agent, c.budget_index, c.current[my_rank]);
            }
            continue;
        }

        if (++c.ticks_since < shard::kReconcileInterval) continue;
        c.ticks_since = 0;

        // A rebalance needs a fresh price from every incident agent; a
        // suspected or silent peer defers it (degradation covers us).
        // The coordinator's own price is no better while its own slice
        // is degraded or inside the post-restore quarantine.
        const Agent::LocalBudget& own = agent.budgets[c.budget_index];
        bool fresh = agent.engine != nullptr && !own.degraded && now >= own.settle_until;
        std::vector<double> prices(r.agents.size(), 0.0);
        for (std::size_t i = 0; fresh && i < r.agents.size(); ++i) {
            if (r.agents[i] == agent.id) {
                prices[i] = localPrice(agent, c.resource);
                continue;
            }
            const Agent::Peer& p = agent.peers[static_cast<std::size_t>(r.agents[i])];
            if (p.suspected || now - c.peer_price_time[i] > kStalenessHorizon)
                fresh = false;
            else
                prices[i] = c.peer_price[i];
        }
        if (!fresh) continue;

        shard::RebalanceResult result = shard::rebalance_budgets(
            r.capacity, c.current, r.floor, prices, shard::kReconcileStep);
        // Significance gate: skip only when the transfer is negligible
        // both in absolute mass and relative to every individual slice.
        // The multiplicative step moves in proportion to the slice it
        // moves, so a collapsed slice's regrowth starts with transfers
        // far below any capacity-scaled threshold.
        double relative = 0.0;
        for (std::size_t i = 0; i < r.agents.size(); ++i)
            relative = std::max(relative, std::abs(result.budget[i] - c.current[i]) /
                                              std::max(c.current[i], 1e-12));
        if (result.moved <= shard::kMinRebalanceFraction * r.capacity &&
            relative <= shard::kMinRebalanceFraction)
            continue;

        // Shrink-before-grow: publish version v whose per-rank slice is
        // min(current, pending) — everyone's reductions happen first —
        // and withhold the grants until v is universally acked.
        c.pending = std::move(result.budget);
        ++c.version;
        c.shrinking = true;
        applySlice(agent, c.budget_index, std::min(c.current[my_rank], c.pending[my_rank]));
    }
}

void AsyncShardRuntime::sendDigests(Agent& agent, double now) {
    for (int j : agent.neighbors) {
        Agent::Peer& p = agent.peers[static_cast<std::size_t>(j)];
        if (now < p.next_send) continue;
        Digest digest = buildDigest(agent, j, now);
        if (runtime_.keep_digest_log) logDigest(agent, j, digest);
        const SendResult result = transport_->send(agent.id, j, now, std::move(digest));
        ++agent.counters.digests_sent;
        if (p.suspected || p.resend_pending) ++agent.counters.retries;
        p.resend_pending = false;
        if (result == SendResult::kQueueFull) {
            // Backpressure is visible (unlike fault drops): note the
            // failure and retry on the next tick.
            ++agent.counters.send_failures;
            p.resend_pending = true;
            p.next_send = now + kTickPeriod;
            continue;
        }
        if (p.suspected) {
            p.backoff = std::min(p.backoff * kBackoffFactor, kBackoffMax);
            p.next_send = now + jitteredBackoff(agent, p.backoff);
        } else {
            p.next_send = now + kDigestPeriod;
        }
    }
}

Digest AsyncShardRuntime::buildDigest(Agent& agent, int to, double now) {
    Digest d;
    d.from = agent.id;
    d.version = ++agent.digest_version;
    d.epoch = agent.epoch;
    d.send_time = now;
    for (const Agent::LocalBudget& lb : agent.budgets) {
        const Resource& r = resources_[lb.resource];
        if (!shard::shard_incident(r.agents, to)) continue;
        // A degraded slice's price reflects the floor, not the grant;
        // advertising it would feed the coordinator garbage.  Staying
        // silent instead lets the stored price age past the staleness
        // horizon, which defers rebalancing until honest data returns.
        if (!lb.degraded && now >= lb.settle_until)
            d.prices.push_back({r.node, r.id, localPrice(agent, lb.resource)});
        if (r.coordinator == to) d.acks.push_back({r.node, r.id, lb.epoch, lb.version});
    }
    for (const Agent::Coordination& c : agent.coords) {
        const Resource& r = resources_[c.resource];
        if (!shard::shard_incident(r.agents, to)) continue;
        const std::size_t rank = shard::shard_rank(r.agents, to);
        const double slice =
            c.shrinking ? std::min(c.current[rank], c.pending[rank]) : c.current[rank];
        d.assignments.push_back({r.node, r.id, agent.epoch, c.version, slice});
    }
    return d;
}

void AsyncShardRuntime::logDigest(Agent& agent, int to, const Digest& digest) {
    std::string& out = agent.log;
    out += "t=";
    appendHex(out, digest.send_time);
    out += " to=";
    appendUint(out, static_cast<std::uint64_t>(to));
    out += " ver=";
    appendUint(out, digest.version);
    out += " epoch=";
    appendUint(out, digest.epoch);
    out += " prices=[";
    for (std::size_t i = 0; i < digest.prices.size(); ++i) {
        if (i != 0) out += ',';
        out += digest.prices[i].node ? 'n' : 'l';
        appendUint(out, digest.prices[i].id);
        out += ':';
        appendHex(out, digest.prices[i].price);
    }
    out += "] assigns=[";
    for (std::size_t i = 0; i < digest.assignments.size(); ++i) {
        const BudgetAssignment& a = digest.assignments[i];
        if (i != 0) out += ',';
        out += a.node ? 'n' : 'l';
        appendUint(out, a.id);
        out += ':';
        appendUint(out, a.epoch);
        out += '/';
        appendUint(out, a.version);
        out += ':';
        appendHex(out, a.slice);
    }
    out += "] acks=[";
    for (std::size_t i = 0; i < digest.acks.size(); ++i) {
        const BudgetAck& a = digest.acks[i];
        if (i != 0) out += ',';
        out += a.node ? 'n' : 'l';
        appendUint(out, a.id);
        out += ':';
        appendUint(out, a.epoch);
        out += '/';
        appendUint(out, a.version);
    }
    out += "]\n";
}

void AsyncShardRuntime::maybeSnapshot(Agent& agent, double now) {
    if (agent.engine == nullptr || now < agent.next_snapshot) return;
    agent.snapshot_bytes = agent.engine->snapshot().serialize();
    ++agent.counters.snapshots;
    while (agent.next_snapshot <= now) agent.next_snapshot += kSnapshotPeriod;
}

// ---------------------------------------------------------------------------
// observers
// ---------------------------------------------------------------------------

double AsyncShardRuntime::currentUtility() const {
    return published_total_.load(std::memory_order_relaxed);
}

bool AsyncShardRuntime::agentDown(int agent) const {
    return agents_.at(static_cast<std::size_t>(agent))->down;
}

std::vector<AgentSummary> AsyncShardRuntime::summaries() const {
    std::vector<AgentSummary> out;
    out.reserve(agents_.size());
    for (const auto& agent : agents_) {
        AgentSummary s;
        s.agent = agent->id;
        s.flows = agent->flows.size();
        s.classes = agent->classes.size();
        s.nodes = agent->nodes.size();
        s.links = agent->links.size();
        s.down = agent->down;
        s.epoch = agent->epoch;
        s.utility = agent->published.load(std::memory_order_relaxed);
        s.counters = agent->counters;
        out.push_back(std::move(s));
    }
    return out;
}

namespace {
AgentCounters sumCounters(const std::vector<AgentSummary>& summaries) {
    AgentCounters t;
    for (const AgentSummary& s : summaries) {
        t.engine_iterations += s.counters.engine_iterations;
        t.digests_sent += s.counters.digests_sent;
        t.digests_received += s.counters.digests_received;
        t.digests_rejected_stale += s.counters.digests_rejected_stale;
        t.send_failures += s.counters.send_failures;
        t.retries += s.counters.retries;
        t.suspicions += s.counters.suspicions;
        t.recoveries += s.counters.recoveries;
        t.crashes += s.counters.crashes;
        t.restarts += s.counters.restarts;
        t.snapshots += s.counters.snapshots;
        t.snapshot_restores += s.counters.snapshot_restores;
        t.budget_updates += s.counters.budget_updates;
        t.degradations += s.counters.degradations;
    }
    return t;
}
}  // namespace

RuntimeStats AsyncShardRuntime::stats() const {
    RuntimeStats stats;
    stats.totals = sumCounters(summaries());
    stats.messages_sent = transport_->messagesSent();
    stats.dropped_fault = transport_->droppedFault();
    stats.dropped_backpressure = transport_->droppedBackpressure();
    stats.fault_stats = transport_->faultStats();
    // Crash/restart bookkeeping lives in the runtime, not the injector.
    stats.fault_stats.crashes = stats.totals.crashes;
    stats.fault_stats.restarts = stats.totals.restarts;
    return stats;
}

const std::string& AsyncShardRuntime::digestLog(int agent) const {
    return agents_.at(static_cast<std::size_t>(agent))->log;
}

const core::ParallelLrgpEngine* AsyncShardRuntime::agentEngine(int agent) const {
    return agents_.at(static_cast<std::size_t>(agent))->engine.get();
}

void AsyncShardRuntime::attachObservability(obs::Registry* registry) {
    if (registry == nullptr) {
        obs_attached_ = false;
        instr_ = {};
        return;
    }
    instr_ = obs::RuntimeInstruments::resolve(*registry);
    obs_attached_ = true;
    instr_.agents->set(static_cast<double>(agents_.size()));
}

void AsyncShardRuntime::exportCounters() {
    if (!obs_attached_) return;
    const AgentCounters totals = sumCounters(summaries());
    const auto push = [](obs::Counter* counter, std::uint64_t total, std::uint64_t& exported) {
        if (total > exported) counter->add(total - exported);
        exported = total;
    };
    push(instr_.digests_sent, totals.digests_sent, exported_.digests_sent);
    push(instr_.digests_received, totals.digests_received, exported_.digests_received);
    push(instr_.rejected_stale, totals.digests_rejected_stale, exported_.digests_rejected_stale);
    push(instr_.send_failures, totals.send_failures, exported_.send_failures);
    push(instr_.retries, totals.retries, exported_.retries);
    push(instr_.suspicions, totals.suspicions, exported_.suspicions);
    push(instr_.recoveries, totals.recoveries, exported_.recoveries);
    push(instr_.crashes, totals.crashes, exported_.crashes);
    push(instr_.restarts, totals.restarts, exported_.restarts);
    push(instr_.snapshots, totals.snapshots, exported_.snapshots);
    push(instr_.snapshot_restores, totals.snapshot_restores, exported_.snapshot_restores);
    push(instr_.budget_updates, totals.budget_updates, exported_.budget_updates);
    push(instr_.degradations, totals.degradations, exported_.degradations);
    push(instr_.dropped_fault, transport_->droppedFault(), exported_fault_);
    push(instr_.dropped_backpressure, transport_->droppedBackpressure(), exported_backpressure_);
    instr_.utility->set(published_total_.load(std::memory_order_relaxed));
    instr_.agents->set(static_cast<double>(agents_.size()));
    exported_sent_ = transport_->messagesSent();
}

}  // namespace lrgp::runtime
