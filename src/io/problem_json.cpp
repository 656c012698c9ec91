#include "io/problem_json.hpp"

#include <stdexcept>
#include <unordered_map>

namespace lrgp::io {

namespace {

JsonValue utilityToJson(const utility::UtilityFunction& fn) {
    if (const auto* log_u = dynamic_cast<const utility::LogUtility*>(&fn)) {
        JsonObject obj;
        obj.emplace("type", "log");
        obj.emplace("weight", log_u->weight());
        return JsonValue(std::move(obj));
    }
    if (const auto* pow_u = dynamic_cast<const utility::PowerUtility*>(&fn)) {
        JsonObject obj;
        obj.emplace("type", "power");
        obj.emplace("weight", pow_u->weight());
        obj.emplace("exponent", pow_u->exponent());
        return JsonValue(std::move(obj));
    }
    if (const auto* shifted = dynamic_cast<const utility::ShiftedLogUtility*>(&fn)) {
        JsonObject obj;
        obj.emplace("type", "shifted_log");
        obj.emplace("weight", shifted->weight());
        obj.emplace("scale", shifted->scale());
        return JsonValue(std::move(obj));
    }
    if (const auto* sig = dynamic_cast<const utility::SigmoidUtility*>(&fn)) {
        JsonObject obj;
        obj.emplace("type", "sigmoid");
        obj.emplace("weight", sig->weight());
        obj.emplace("midpoint", sig->midpoint());
        obj.emplace("steepness", sig->steepness());
        return JsonValue(std::move(obj));
    }
    if (const auto* scaled = dynamic_cast<const utility::ScaledUtility*>(&fn)) {
        JsonObject obj;
        obj.emplace("type", "scaled");
        obj.emplace("factor", scaled->factor());
        obj.emplace("base", utilityToJson(scaled->base()));
        return JsonValue(std::move(obj));
    }
    throw std::runtime_error("problem_to_json: unserializable utility type: " + fn.describe());
}

std::shared_ptr<const utility::UtilityFunction> utilityFromJson(const JsonValue& json) {
    const std::string& type = json.at("type").asString();
    if (type == "log") return std::make_shared<utility::LogUtility>(json.at("weight").asNumber());
    if (type == "power")
        return std::make_shared<utility::PowerUtility>(json.at("weight").asNumber(),
                                                       json.at("exponent").asNumber());
    if (type == "shifted_log")
        return std::make_shared<utility::ShiftedLogUtility>(json.at("weight").asNumber(),
                                                            json.at("scale").asNumber());
    if (type == "sigmoid")
        return std::make_shared<utility::SigmoidUtility>(json.at("weight").asNumber(),
                                                         json.at("midpoint").asNumber(),
                                                         json.at("steepness").asNumber());
    if (type == "scaled")
        return std::make_shared<utility::ScaledUtility>(json.at("factor").asNumber(),
                                                        utilityFromJson(json.at("base")));
    throw std::runtime_error("problem_from_json: unknown utility type '" + type + "'");
}

}  // namespace

JsonValue problem_to_json(const model::ProblemSpec& spec) {
    JsonObject root;

    JsonArray nodes;
    for (const model::NodeSpec& n : spec.nodes()) {
        JsonObject obj;
        obj.emplace("name", n.name);
        obj.emplace("capacity", n.capacity);
        nodes.emplace_back(std::move(obj));
    }
    root.emplace("nodes", std::move(nodes));

    JsonArray links;
    for (const model::LinkSpec& l : spec.links()) {
        JsonObject obj;
        obj.emplace("name", l.name);
        obj.emplace("from", spec.node(l.from).name);
        obj.emplace("to", spec.node(l.to).name);
        obj.emplace("capacity", l.capacity);
        links.emplace_back(std::move(obj));
    }
    root.emplace("links", std::move(links));

    JsonArray flows;
    for (const model::FlowSpec& f : spec.flows()) {
        JsonObject obj;
        obj.emplace("name", f.name);
        obj.emplace("source", spec.node(f.source).name);
        obj.emplace("rate_min", f.rate_min);
        obj.emplace("rate_max", f.rate_max);
        obj.emplace("active", f.active);
        JsonArray hops;
        for (const model::FlowNodeHop& hop : f.nodes) {
            JsonObject h;
            h.emplace("node", spec.node(hop.node).name);
            h.emplace("cost", hop.flow_node_cost);
            hops.emplace_back(std::move(h));
        }
        obj.emplace("nodes", std::move(hops));
        JsonArray lhops;
        for (const model::FlowLinkHop& hop : f.links) {
            JsonObject h;
            h.emplace("link", spec.link(hop.link).name);
            h.emplace("cost", hop.link_cost);
            lhops.emplace_back(std::move(h));
        }
        obj.emplace("links", std::move(lhops));
        flows.emplace_back(std::move(obj));
    }
    root.emplace("flows", std::move(flows));

    JsonArray classes;
    for (const model::ClassSpec& c : spec.classes()) {
        JsonObject obj;
        obj.emplace("name", c.name);
        obj.emplace("flow", spec.flow(c.flow).name);
        obj.emplace("node", spec.node(c.node).name);
        obj.emplace("max_consumers", static_cast<double>(c.max_consumers));
        obj.emplace("consumer_cost", c.consumer_cost);
        obj.emplace("utility", utilityToJson(*c.utility));
        classes.emplace_back(std::move(obj));
    }
    root.emplace("classes", std::move(classes));

    return JsonValue(std::move(root));
}

std::string problem_to_json_string(const model::ProblemSpec& spec, bool pretty) {
    return problem_to_json(spec).dump(pretty);
}

model::ProblemSpec problem_from_json(const JsonValue& json) {
    model::ProblemBuilder builder;
    std::unordered_map<std::string, model::NodeId> node_ids;
    std::unordered_map<std::string, model::LinkId> link_ids;
    std::unordered_map<std::string, model::FlowId> flow_ids;

    auto lookup = [](const auto& map, const std::string& name, const char* kind) {
        auto it = map.find(name);
        if (it == map.end())
            throw std::runtime_error(std::string("problem_from_json: unknown ") + kind + " '" +
                                     name + "'");
        return it->second;
    };

    for (const JsonValue& n : json.at("nodes").asArray()) {
        const std::string& name = n.at("name").asString();
        if (node_ids.count(name))
            throw std::runtime_error("problem_from_json: duplicate node '" + name + "'");
        node_ids.emplace(name, builder.addNode(name, n.at("capacity").asNumber()));
    }
    if (json.has("links")) {
        for (const JsonValue& l : json.at("links").asArray()) {
            const std::string& name = l.at("name").asString();
            if (link_ids.count(name))
                throw std::runtime_error("problem_from_json: duplicate link '" + name + "'");
            link_ids.emplace(name, builder.addLink(name,
                                                   lookup(node_ids, l.at("from").asString(), "node"),
                                                   lookup(node_ids, l.at("to").asString(), "node"),
                                                   l.at("capacity").asNumber()));
        }
    }
    std::vector<std::pair<model::FlowId, bool>> flow_active;
    for (const JsonValue& f : json.at("flows").asArray()) {
        const std::string& name = f.at("name").asString();
        if (flow_ids.count(name))
            throw std::runtime_error("problem_from_json: duplicate flow '" + name + "'");
        const model::FlowId id =
            builder.addFlow(name, lookup(node_ids, f.at("source").asString(), "node"),
                            f.at("rate_min").asNumber(), f.at("rate_max").asNumber());
        flow_ids.emplace(name, id);
        flow_active.emplace_back(id, !f.has("active") || f.at("active").asBool());
        for (const JsonValue& hop : f.at("nodes").asArray())
            builder.routeThroughNode(id, lookup(node_ids, hop.at("node").asString(), "node"),
                                     hop.at("cost").asNumber());
        if (f.has("links")) {
            for (const JsonValue& hop : f.at("links").asArray())
                builder.routeOverLink(id, lookup(link_ids, hop.at("link").asString(), "link"),
                                      hop.at("cost").asNumber());
        }
    }
    for (const JsonValue& c : json.at("classes").asArray()) {
        builder.addClass(c.at("name").asString(),
                         lookup(flow_ids, c.at("flow").asString(), "flow"),
                         lookup(node_ids, c.at("node").asString(), "node"),
                         c.at("max_consumers").asInt(),
                         c.at("consumer_cost").asNumber(), utilityFromJson(c.at("utility")));
    }

    model::ProblemSpec spec = builder.build();
    for (const auto& [id, active] : flow_active)
        if (!active) spec.setFlowActive(id, false);
    return spec;
}

model::ProblemSpec problem_from_json_string(const std::string& text) {
    return problem_from_json(parse_json(text));
}

JsonValue allocation_to_json(const model::ProblemSpec& spec, const model::Allocation& alloc) {
    if (alloc.rates.size() != spec.flowCount() || alloc.populations.size() != spec.classCount())
        throw std::invalid_argument("allocation_to_json: allocation sized for another problem");
    JsonObject rates;
    for (const model::FlowSpec& f : spec.flows())
        rates.emplace(f.name, alloc.rates[f.id.index()]);
    JsonObject populations;
    for (const model::ClassSpec& c : spec.classes())
        populations.emplace(c.name, static_cast<double>(alloc.populations[c.id.index()]));
    JsonObject root;
    root.emplace("rates", std::move(rates));
    root.emplace("populations", std::move(populations));
    return JsonValue(std::move(root));
}

model::Allocation allocation_from_json(const model::ProblemSpec& spec, const JsonValue& json) {
    model::Allocation alloc;
    alloc.rates.assign(spec.flowCount(), 0.0);
    alloc.populations.assign(spec.classCount(), 0);
    for (const model::FlowSpec& f : spec.flows())
        alloc.rates[f.id.index()] = json.at("rates").at(f.name).asNumber();
    for (const model::ClassSpec& c : spec.classes())
        alloc.populations[c.id.index()] = json.at("populations").at(c.name).asInt();
    return alloc;
}

}  // namespace lrgp::io
