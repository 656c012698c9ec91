#include "dataplane/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace lrgp::dataplane {

QueueServer::QueueServer(sim::Simulator& simulator, double capacity, std::size_t queue_limit,
                         CostFn cost, CompleteFn on_complete)
    : simulator_(simulator),
      capacity_(capacity),
      queue_limit_(queue_limit),
      cost_(std::move(cost)),
      on_complete_(std::move(on_complete)) {
    if (!(capacity > 0.0)) throw std::invalid_argument("QueueServer: capacity must be > 0");
    if (queue_limit < 1) throw std::invalid_argument("QueueServer: queue_limit must be >= 1");
    if (!cost_) throw std::invalid_argument("QueueServer: null cost callback");
    if (!on_complete_) throw std::invalid_argument("QueueServer: null completion callback");
}

bool QueueServer::arrive(const DataMessage& message) {
    ++stats_.arrivals;
    if (queue_.size() >= queue_limit_) {
        ++stats_.dropped;
        return false;
    }
    queue_.push_back(message);
    stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
    if (!busy_) startService();
    return true;
}

void QueueServer::setCapacity(double capacity) {
    if (!std::isfinite(capacity) || !(capacity > 0.0)) {
        throw std::invalid_argument("QueueServer::setCapacity: capacity must be finite and > 0");
    }
    capacity_ = capacity;
}

void QueueServer::startService() {
    busy_ = true;
    const double service_time = cost_(queue_.front()) / capacity_;
    stats_.busy_seconds += service_time;
    simulator_.schedule(service_time, [this] { completeService(); });
}

void QueueServer::completeService() {
    const DataMessage message = queue_.front();
    queue_.pop_front();
    ++stats_.served;
    if (!queue_.empty()) {
        startService();
    } else {
        busy_ = false;
    }
    on_complete_(message);
}

}  // namespace lrgp::dataplane
