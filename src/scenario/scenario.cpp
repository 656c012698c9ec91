#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "utility/utility_function.hpp"

namespace lrgp::scenario {

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Stage-salted RNG seeds so editing one generation stage never shifts
/// the draws of another.
constexpr std::uint64_t kSaltWorkload = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kSaltTraffic = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kSaltCalibration = 0x94D049BB133111EBULL;

struct FlowPlan {
    std::uint32_t source = 0;
    double rate_min = 0.0;
    double rate_max = 0.0;
    std::vector<std::uint32_t> consumer_nodes;
    std::map<std::uint32_t, double> node_cost;  ///< route node -> F cost
    /// Directed overlay hops (from, to) -> L cost; direction is
    /// source-to-consumer along the BFS tree.
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_cost;
};

struct ClassPlan {
    std::uint32_t flow = 0;
    std::uint32_t node = 0;
    int base_population = 0;
    double consumer_cost = 0.0;
    std::shared_ptr<const utility::UtilityFunction> utility;
};

Overlay buildOverlay(const ScenarioOptions& o) {
    if (o.topology == "fat_tree") return make_fat_tree({o.fat_tree_k});
    if (o.topology == "scale_free") return make_scale_free({o.overlay_nodes, o.ba_attach, o.seed});
    if (o.topology == "small_world")
        return make_small_world({o.overlay_nodes, o.ws_ring_degree, o.ws_beta, o.seed});
    throw std::invalid_argument("build_scenario: unknown topology '" + o.topology + "'");
}

/// Candidate flow sources: edge switches for the fat-tree (hosts hang
/// off the leaf tier), every node otherwise.
std::vector<std::uint32_t> sourcePool(const ScenarioOptions& o, const Overlay& overlay) {
    std::vector<std::uint32_t> pool;
    if (o.topology == "fat_tree") {
        const int half = o.fat_tree_k / 2;
        const int cores = half * half;
        for (int pod = 0; pod < o.fat_tree_k; ++pod)
            for (int j = 0; j < half; ++j)
                pool.push_back(static_cast<std::uint32_t>(cores + pod * o.fat_tree_k + half + j));
    } else {
        for (std::uint32_t v = 0; v < overlay.nodeCount(); ++v) pool.push_back(v);
    }
    return pool;
}

/// BFS parents from `source` over the sorted adjacency (deterministic
/// shortest-path tree with smallest-id tie-breaking).
std::vector<std::uint32_t> bfsParents(
    const std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>& adj,
    std::uint32_t source) {
    constexpr std::uint32_t kNone = UINT32_MAX;
    std::vector<std::uint32_t> parent(adj.size(), kNone);
    std::vector<std::uint32_t> queue{source};
    parent[source] = source;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::uint32_t u = queue[head];
        for (const auto& [v, e] : adj[u]) {
            if (parent[v] == kNone) {
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    return parent;
}

std::shared_ptr<const utility::UtilityFunction> makeUtility(const ScenarioOptions& o,
                                                            std::size_t class_index,
                                                            double rate_min, double rate_max,
                                                            std::mt19937_64& rng) {
    auto real = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const double weight = real(5.0, 20.0);
    // Non-concave mixes interleave: odd classes get the sigmoid/step,
    // even classes keep the paper's shifted-log baseline.
    const bool nonconcave_slot = (o.utility != "shifted_log") && (class_index % 2 == 1);
    if (!nonconcave_slot) {
        if (o.utility != "shifted_log" && o.utility != "sigmoid" && o.utility != "step")
            throw std::invalid_argument("build_scenario: unknown utility mix '" + o.utility + "'");
        return std::make_shared<utility::ShiftedLogUtility>(weight, real(1.0, 6.0));
    }
    const double span = rate_max - rate_min;
    const double midpoint = rate_min + real(0.35, 0.7) * span;
    const double steepness = (o.utility == "step" ? real(24.0, 40.0) : real(4.0, 8.0)) / span;
    return std::make_shared<utility::SigmoidUtility>(weight, midpoint, steepness);
}

}  // namespace

const char* op_kind_name(OpKind kind) {
    switch (kind) {
        case OpKind::kSetClassMaxConsumers: return "set_class_max_consumers";
        case OpKind::kRemoveFlow: return "remove_flow";
        case OpKind::kRestoreFlow: return "restore_flow";
        case OpKind::kSetNodeCapacity: return "set_node_capacity";
        case OpKind::kSetLinkCapacity: return "set_link_capacity";
    }
    return "unknown";
}

ScenarioSpec build_scenario(const ScenarioOptions& options) {
    if (options.flows < 1) throw std::invalid_argument("build_scenario: flows must be >= 1");
    if (options.classes_per_flow < 1)
        throw std::invalid_argument("build_scenario: classes_per_flow must be >= 1");
    if (!(options.duration > 0.0))
        throw std::invalid_argument("build_scenario: duration must be positive");
    if (!(options.headroom_utilization > 0.0 && options.headroom_utilization < 1.0))
        throw std::invalid_argument("build_scenario: headroom_utilization must be in (0, 1)");
    if (!(options.overdrive_factor > 0.0 && options.overdrive_factor < 1.0))
        throw std::invalid_argument("build_scenario: overdrive_factor must be in (0, 1)");

    ScenarioSpec out;
    out.options = options;
    out.overlay = buildOverlay(options);
    const Overlay& overlay = out.overlay;
    const auto adj = overlay.adjacency();

    std::mt19937_64 rng(options.seed ^ kSaltWorkload);
    auto real = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto integer = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };

    // ---- flows: sources, consumer nodes, BFS routes, costs -------------
    const std::vector<std::uint32_t> sources = sourcePool(options, overlay);
    std::vector<FlowPlan> flows(static_cast<std::size_t>(options.flows));
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowPlan& plan = flows[f];
        plan.source = sources[static_cast<std::size_t>(
            integer(0, static_cast<int>(sources.size()) - 1))];
        plan.rate_min = real(0.5, 1.0);
        plan.rate_max = real(4.0, 10.0);

        std::vector<std::uint32_t> pool;
        for (std::uint32_t v = 0; v < overlay.nodeCount(); ++v)
            if (v != plan.source) pool.push_back(v);
        std::shuffle(pool.begin(), pool.end(), rng);
        const std::size_t wanted =
            std::min<std::size_t>(static_cast<std::size_t>(options.classes_per_flow), pool.size());
        plan.consumer_nodes.assign(pool.begin(), pool.begin() + static_cast<long>(wanted));
        std::sort(plan.consumer_nodes.begin(), plan.consumer_nodes.end());

        const auto parent = bfsParents(adj, plan.source);
        plan.node_cost.emplace(plan.source, real(0.5, 1.5));
        for (const std::uint32_t consumer : plan.consumer_nodes) {
            // Walk consumer -> source, recording nodes and directed hops
            // (direction is source-to-consumer).
            std::uint32_t v = consumer;
            while (v != plan.source) {
                const std::uint32_t p = parent[v];
                if (!plan.node_cost.count(v)) plan.node_cost.emplace(v, real(0.5, 1.5));
                if (!plan.link_cost.count({p, v}))
                    plan.link_cost.emplace(std::make_pair(p, v), real(0.5, 1.5));
                v = p;
            }
        }
    }

    // ---- classes: placement, base populations, utility mix -------------
    std::vector<ClassPlan> classes;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        for (int c = 0; c < options.classes_per_flow; ++c) {
            ClassPlan cls;
            cls.flow = static_cast<std::uint32_t>(f);
            cls.node = flows[f].consumer_nodes[static_cast<std::size_t>(c) %
                                               flows[f].consumer_nodes.size()];
            cls.base_population = integer(4, 16);
            cls.consumer_cost = real(0.05, 0.2);
            cls.utility = makeUtility(options, classes.size(), flows[f].rate_min,
                                      flows[f].rate_max, rng);
            classes.push_back(std::move(cls));
        }
    }
    if (options.traffic == "heavy_tail") {
        // Zipf(1.1) populations over a seeded rank shuffle.
        std::vector<std::size_t> order(classes.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t rank = 0; rank < order.size(); ++rank) {
            const double zipf = 28.0 / std::pow(static_cast<double>(rank + 1), 1.1);
            classes[order[rank]].base_population = std::max(1, static_cast<int>(std::lround(zipf)));
        }
    }

    // ---- traffic program: the dynamic-op schedule ----------------------
    std::mt19937_64 trng(options.seed ^ kSaltTraffic);
    auto treal = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(trng);
    };
    std::vector<DynamicOp>& schedule = out.schedule;
    // Node-capacity ops are emitted as *fractions* of the calibrated
    // capacity and resolved after calibration below.
    std::vector<std::size_t> capacity_fraction_ops;

    if (options.traffic == "diurnal") {
        const double period = options.duration / 2.0;
        std::vector<double> phase(classes.size());
        for (double& p : phase) p = treal(0.0, 2.0 * kPi);
        std::vector<int> last(classes.size());
        for (std::size_t j = 0; j < classes.size(); ++j) last[j] = classes[j].base_population;
        for (double t = 0.5; t <= options.duration * 0.75 + 1e-9; t += 0.5) {
            for (std::size_t j = 0; j < classes.size(); ++j) {
                const double wave = 1.0 + 0.5 * std::sin(2.0 * kPi * t / period + phase[j]);
                const int n = std::max(
                    0, static_cast<int>(std::lround(classes[j].base_population * wave)));
                if (n != last[j]) {
                    schedule.push_back({t, OpKind::kSetClassMaxConsumers,
                                        static_cast<std::uint32_t>(j),
                                        static_cast<double>(n)});
                    last[j] = n;
                }
            }
        }
        out.principal_disturbance = 0.5;
    } else if (options.traffic == "flash_crowd") {
        const double t0 = options.duration / 3.0;
        const double t1 = t0 + options.duration * 0.125;
        const double t2 = t0 + options.duration * 0.25;
        std::vector<std::size_t> crowd;
        for (std::size_t j = 0; j < classes.size(); ++j)
            if (treal(0.0, 1.0) < 0.25) crowd.push_back(j);
        if (crowd.empty()) crowd.push_back(0);
        for (const std::size_t j : crowd) {
            const int base = classes[j].base_population;
            schedule.push_back({t0, OpKind::kSetClassMaxConsumers, static_cast<std::uint32_t>(j),
                                static_cast<double>(base * 4)});
            schedule.push_back({t1, OpKind::kSetClassMaxConsumers, static_cast<std::uint32_t>(j),
                                static_cast<double>(base * 2)});
            schedule.push_back({t2, OpKind::kSetClassMaxConsumers, static_cast<std::uint32_t>(j),
                                static_cast<double>(base)});
        }
        // Brownout: one node loses a quarter of its capacity for the
        // duration of the crowd (value = fraction, resolved post-calibration).
        const std::uint32_t victim = classes[crowd[0]].node;
        schedule.push_back({t0, OpKind::kSetNodeCapacity, victim, 0.75});
        capacity_fraction_ops.push_back(schedule.size() - 1);
        schedule.push_back({t2, OpKind::kSetNodeCapacity, victim, 1.0});
        capacity_fraction_ops.push_back(schedule.size() - 1);
        out.principal_disturbance = t0;
    } else if (options.traffic == "churn") {
        // Distinct flows depart and return, so a removal never targets an
        // already-removed flow (asserted by the property suite).
        std::vector<std::uint32_t> order(flows.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), trng);
        const std::size_t events = std::min<std::size_t>(flows.size() / 2, 5);
        double first_leave = options.duration;
        for (std::size_t e = 0; e < events; ++e) {
            const double leave = treal(0.2, 0.45) * options.duration;
            const double dwell = treal(0.15, 0.3) * options.duration;
            schedule.push_back({leave, OpKind::kRemoveFlow, order[e], 0.0});
            schedule.push_back({leave + dwell, OpKind::kRestoreFlow, order[e], 0.0});
            first_leave = std::min(first_leave, leave);
        }
        for (int e = 0; e < 6; ++e) {
            const auto j = static_cast<std::uint32_t>(std::uniform_int_distribution<std::size_t>(
                0, classes.size() - 1)(trng));
            const double t = treal(0.1, 0.7) * options.duration;
            const int n = std::max(
                0, static_cast<int>(std::lround(classes[j].base_population * treal(0.5, 1.5))));
            schedule.push_back({t, OpKind::kSetClassMaxConsumers, j, static_cast<double>(n)});
        }
        out.principal_disturbance = first_leave;
    } else if (options.traffic != "heavy_tail") {
        throw std::invalid_argument("build_scenario: unknown traffic program '" + options.traffic +
                                    "'");
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const DynamicOp& a, const DynamicOp& b) { return a.time < b.time; });
    // Re-locate fraction ops after the sort.
    capacity_fraction_ops.clear();
    for (std::size_t i = 0; i < schedule.size(); ++i)
        if (schedule[i].kind == OpKind::kSetNodeCapacity) capacity_fraction_ops.push_back(i);

    // ---- capacity calibration at schedule-peak demand ------------------
    std::vector<int> peak(classes.size());
    for (std::size_t j = 0; j < classes.size(); ++j) peak[j] = classes[j].base_population;
    for (const DynamicOp& op : schedule)
        if (op.kind == OpKind::kSetClassMaxConsumers)
            peak[op.target] = std::max(peak[op.target], static_cast<int>(op.value));

    std::vector<double> node_demand(overlay.nodeCount(), 0.0);
    std::vector<double> node_floor(overlay.nodeCount(), 0.0);
    for (const FlowPlan& plan : flows) {
        for (const auto& [node, cost] : plan.node_cost) {
            node_demand[node] += plan.rate_max * cost;
            node_floor[node] += plan.rate_min * cost;
        }
    }
    for (std::size_t j = 0; j < classes.size(); ++j) {
        const FlowPlan& plan = flows[classes[j].flow];
        node_demand[classes[j].node] +=
            plan.rate_max * classes[j].consumer_cost * static_cast<double>(peak[j]);
    }
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_demand;
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_floor;
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_weight;
    for (const FlowPlan& plan : flows) {
        for (const auto& [hop, cost] : plan.link_cost) {
            link_demand[hop] += plan.rate_max * cost;
            link_floor[hop] += plan.rate_min * cost;
        }
    }
    for (const OverlayEdge& e : overlay.edges) {
        if (link_demand.count({e.a, e.b})) link_weight[{e.a, e.b}] = e.weight;
        if (link_demand.count({e.b, e.a})) link_weight[{e.b, e.a}] = e.weight;
    }

    double max_node_weight = 1.0;
    for (const double w : overlay.node_weight) max_node_weight = std::max(max_node_weight, w);
    double max_link_weight = 1.0;
    for (const auto& [hop, w] : link_weight) max_link_weight = std::max(max_link_weight, w);

    std::mt19937_64 crng(options.seed ^ kSaltCalibration);
    auto creal = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(crng);
    };
    // Both modes calibrate the *believed* capacities with headroom: an
    // overdrive cell's planner problem is identical to its headroom
    // twin's, and only physical_capacity_scale below differs.
    auto calibrate = [&](double demand, double floor, double weight, double max_weight) {
        // Relative topology weight modulates capacity within +-10%.
        const double wfactor = 0.9 + 0.2 * weight / max_weight;
        if (demand <= 0.0) return 1.0;  // untouched resource; any positive capacity
        return std::max(demand / options.headroom_utilization * wfactor * creal(0.98, 1.02),
                        floor * 1.02);
    };

    std::vector<double> node_capacity(overlay.nodeCount());
    for (std::size_t b = 0; b < overlay.nodeCount(); ++b)
        node_capacity[b] =
            calibrate(node_demand[b], node_floor[b], overlay.node_weight[b], max_node_weight);
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> link_capacity;
    for (const auto& [hop, demand] : link_demand)
        link_capacity[hop] =
            calibrate(demand, link_floor[hop], link_weight.count(hop) ? link_weight[hop] : 1.0,
                      max_link_weight);

    for (const std::size_t i : capacity_fraction_ops)
        schedule[i].value *= node_capacity[schedule[i].target];

    out.physical_capacity_scale = options.overdrive ? options.overdrive_factor : 1.0;

    // ---- assemble the ProblemSpec (one deterministic pass) -------------
    model::ProblemBuilder builder;
    std::vector<model::NodeId> node_ids;
    node_ids.reserve(overlay.nodeCount());
    for (std::size_t b = 0; b < overlay.nodeCount(); ++b)
        node_ids.push_back(builder.addNode("n" + std::to_string(b), node_capacity[b]));
    std::map<std::pair<std::uint32_t, std::uint32_t>, model::LinkId> link_ids;
    for (const auto& [hop, capacity] : link_capacity)
        link_ids.emplace(hop, builder.addLink("l" + std::to_string(hop.first) + "_" +
                                                  std::to_string(hop.second),
                                              node_ids[hop.first], node_ids[hop.second],
                                              capacity));
    std::vector<model::FlowId> flow_ids;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowPlan& plan = flows[f];
        const model::FlowId id = builder.addFlow("f" + std::to_string(f), node_ids[plan.source],
                                                 plan.rate_min, plan.rate_max);
        flow_ids.push_back(id);
        for (const auto& [node, cost] : plan.node_cost)
            builder.routeThroughNode(id, node_ids[node], cost);
        for (const auto& [hop, cost] : plan.link_cost)
            builder.routeOverLink(id, link_ids.at(hop), cost);
    }
    for (std::size_t j = 0; j < classes.size(); ++j) {
        const ClassPlan& cls = classes[j];
        const std::size_t slot = j % static_cast<std::size_t>(options.classes_per_flow);
        builder.addClass("f" + std::to_string(cls.flow) + "_c" + std::to_string(slot),
                         flow_ids[cls.flow], node_ids[cls.node], cls.base_population,
                         cls.consumer_cost, cls.utility);
    }
    out.problem = builder.build();
    return out;
}

io::JsonValue ScenarioSpec::manifest() const {
    io::JsonObject root;
    root.emplace("name", options.name.empty() ? std::string("ad_hoc") : options.name);
    root.emplace("seed", static_cast<double>(options.seed));
    root.emplace("traffic", options.traffic);
    root.emplace("utility_mix", options.utility);
    root.emplace("overdrive", options.overdrive);
    root.emplace("duration", options.duration);

    io::JsonObject topo;
    topo.emplace("family", overlay.family);
    topo.emplace("overlay_nodes", static_cast<double>(overlay.nodeCount()));
    topo.emplace("overlay_edges", static_cast<double>(overlay.edges.size()));
    root.emplace("topology", io::JsonValue(std::move(topo)));

    io::JsonObject counts;
    counts.emplace("nodes", static_cast<double>(problem.nodeCount()));
    counts.emplace("links", static_cast<double>(problem.linkCount()));
    counts.emplace("flows", static_cast<double>(problem.flowCount()));
    counts.emplace("classes", static_cast<double>(problem.classCount()));
    root.emplace("counts", io::JsonValue(std::move(counts)));

    io::JsonObject sched;
    sched.emplace("ops", static_cast<double>(schedule.size()));
    std::map<std::string, double> by_kind;
    for (const DynamicOp& op : schedule) by_kind[op_kind_name(op.kind)] += 1.0;
    io::JsonObject kinds;
    for (const auto& [kind, count] : by_kind) kinds.emplace(kind, count);
    sched.emplace("by_kind", io::JsonValue(std::move(kinds)));
    if (!schedule.empty()) {
        sched.emplace("first_time", schedule.front().time);
        sched.emplace("last_time", schedule.back().time);
    }
    sched.emplace("principal_disturbance", principal_disturbance);
    root.emplace("schedule", io::JsonValue(std::move(sched)));

    io::JsonObject calib;
    calib.emplace("mode", options.overdrive ? std::string("overdrive") : std::string("headroom"));
    calib.emplace("target", options.overdrive ? options.overdrive_factor
                                              : options.headroom_utilization);
    calib.emplace("physical_capacity_scale", physical_capacity_scale);
    double node_total = 0.0, link_total = 0.0;
    for (const model::NodeSpec& n : problem.nodes()) node_total += n.capacity;
    for (const model::LinkSpec& l : problem.links()) link_total += l.capacity;
    calib.emplace("node_capacity_total", node_total);
    calib.emplace("link_capacity_total", link_total);
    root.emplace("calibration", io::JsonValue(std::move(calib)));

    return io::JsonValue(std::move(root));
}

std::string ScenarioSpec::manifestString() const { return manifest().dump(true) + "\n"; }

const std::vector<ScenarioOptions>& scenario_catalog() {
    static const std::vector<ScenarioOptions> catalog = [] {
        std::vector<ScenarioOptions> cells;
        auto add = [&](const std::string& topology, const std::string& traffic,
                       const std::string& utility, bool overdrive, std::uint64_t seed) {
            ScenarioOptions o;
            o.name = topology + "_" + traffic + "_" + utility + (overdrive ? "_overdrive" : "");
            o.topology = topology;
            o.traffic = traffic;
            o.utility = utility;
            o.overdrive = overdrive;
            o.seed = seed;
            cells.push_back(std::move(o));
        };
        add("fat_tree", "diurnal", "shifted_log", false, 101);
        add("fat_tree", "flash_crowd", "sigmoid", false, 102);
        add("fat_tree", "heavy_tail", "shifted_log", false, 103);
        add("fat_tree", "heavy_tail", "shifted_log", true, 103);  // headroom twin's seed
        add("fat_tree", "churn", "step", false, 105);
        add("scale_free", "diurnal", "sigmoid", false, 106);
        add("scale_free", "flash_crowd", "shifted_log", false, 107);
        add("scale_free", "heavy_tail", "step", false, 108);
        add("scale_free", "churn", "shifted_log", false, 109);
        add("scale_free", "heavy_tail", "shifted_log", true, 110);
        add("small_world", "diurnal", "step", false, 111);
        add("small_world", "flash_crowd", "step", false, 112);
        add("small_world", "heavy_tail", "sigmoid", false, 113);
        add("small_world", "churn", "sigmoid", false, 114);
        return cells;
    }();
    return catalog;
}

ScenarioOptions find_scenario(const std::string& name) {
    for (const ScenarioOptions& o : scenario_catalog())
        if (o.name == name) return o;
    std::string known;
    for (const ScenarioOptions& o : scenario_catalog()) {
        if (!known.empty()) known += ", ";
        known += o.name;
    }
    throw std::invalid_argument("find_scenario: unknown scenario '" + name + "' (known: " + known +
                                ")");
}

model::ProblemSpec end_state_problem(const ScenarioSpec& scenario) {
    model::ProblemSpec spec = scenario.problem;
    for (const DynamicOp& op : scenario.schedule) {
        switch (op.kind) {
            case OpKind::kSetClassMaxConsumers:
                spec.setClassMaxConsumers(model::ClassId(op.target), static_cast<int>(op.value));
                break;
            case OpKind::kRemoveFlow:
                spec.setFlowActive(model::FlowId(op.target), false);
                break;
            case OpKind::kRestoreFlow:
                spec.setFlowActive(model::FlowId(op.target), true);
                break;
            case OpKind::kSetNodeCapacity:
                spec.setNodeCapacity(model::NodeId(op.target), op.value);
                break;
            case OpKind::kSetLinkCapacity:
                spec.setLinkCapacity(model::LinkId(op.target), op.value);
                break;
        }
    }
    return spec;
}

}  // namespace lrgp::scenario
