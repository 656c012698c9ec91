#include "model/analysis.hpp"

#include <algorithm>
#include <cmath>

namespace lrgp::model {

double jain_index(const std::vector<double>& values) {
    double sum = 0.0, sum_sq = 0.0;
    for (double v : values) {
        sum += v;
        sum_sq += v * v;
    }
    const auto n = static_cast<double>(values.size());
    if (!std::isfinite(sum * sum) || !std::isfinite(n * sum_sq)) {
        // Large values overflow the plain sums.  The index is scale-free,
        // so recompute it over the values divided by their largest
        // magnitude; inputs that do not overflow keep the plain formula.
        double scale = 0.0;
        for (double v : values) scale = std::max(scale, std::abs(v));
        sum = 0.0;
        sum_sq = 0.0;
        for (double v : values) {
            sum += v / scale;
            sum_sq += (v / scale) * (v / scale);
        }
    }
    if (values.empty() || sum_sq == 0.0) return 0.0;
    return (sum * sum) / (n * sum_sq);
}

AllocationSummary summarize(const ProblemSpec& spec, const Allocation& alloc) {
    AllocationSummary summary;
    summary.total_utility = total_utility(spec, alloc);

    std::vector<double> aggregate_utilities;
    aggregate_utilities.reserve(spec.classCount());
    for (const ClassSpec& c : spec.classes()) {
        ClassService service;
        service.cls = c.id;
        service.max_consumers = c.max_consumers;
        const bool active = spec.flowActive(c.flow);
        service.admitted = active ? alloc.populations.at(c.id.index()) : 0;
        if (c.max_consumers > 0)
            service.admission_ratio =
                static_cast<double>(service.admitted) / c.max_consumers;
        if (active && service.admitted > 0) {
            const double rate = alloc.rates.at(c.flow.index());
            service.per_consumer_utility = c.utility->value(rate);
            service.aggregate_utility = service.admitted * service.per_consumer_utility;
        }
        if (c.max_consumers > 0) {
            if (service.admitted == c.max_consumers) ++summary.classes_fully_admitted;
            else if (service.admitted > 0) ++summary.classes_partially_admitted;
            else ++summary.classes_denied;
        }
        aggregate_utilities.push_back(service.aggregate_utility);
        summary.classes.push_back(service);
    }
    summary.jain_fairness = jain_index(aggregate_utilities);

    summary.node_utilization.reserve(spec.nodeCount());
    for (const NodeSpec& b : spec.nodes())
        summary.node_utilization.push_back(node_usage(spec, alloc, b.id) / b.capacity);
    summary.link_utilization.reserve(spec.linkCount());
    for (const LinkSpec& l : spec.links())
        summary.link_utilization.push_back(link_usage(spec, alloc, l.id) / l.capacity);
    return summary;
}

}  // namespace lrgp::model
