// A bounded-FIFO, work-conserving queueing server — the dataplane's
// stand-in for a broker node's CPU or a link's NIC, in the spirit of a
// BESS module: messages arrive, wait in a bounded queue, and are served
// one at a time at a rate derived from the entity's capacity.
//
// The service time of a message is cost(message) / capacity seconds,
// where the cost callback evaluates the paper's resource model at
// dequeue time (L[l,i] on links; F[b,i] + sum_j G[b,j]*n_j at nodes, so
// enacting a new population mid-run immediately changes service times).
// Arrivals to a full queue are dropped and counted — the measured
// analogue of the optimizer's capacity constraints going infeasible.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "dataplane/message.hpp"
#include "sim/simulator.hpp"

namespace lrgp::dataplane {

struct ServerStats {
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;       ///< bounded-queue overflow
    double busy_seconds = 0.0;       ///< total service time spent
    std::size_t peak_queue = 0;      ///< deepest queue observed (incl. in service)
};

class QueueServer {
public:
    using CostFn = std::function<double(const DataMessage&)>;
    using CompleteFn = std::function<void(const DataMessage&)>;

    /// `capacity` in resource units/second (> 0); `queue_limit` bounds
    /// the FIFO including the message in service (>= 1).  `cost` maps a
    /// message to resource units; `on_complete` receives each served
    /// message.  Throws std::invalid_argument on bad arguments.
    QueueServer(sim::Simulator& simulator, double capacity, std::size_t queue_limit, CostFn cost,
                CompleteFn on_complete);

    /// Enqueues the message or drops it when the queue is full.
    /// Returns true when accepted.
    bool arrive(const DataMessage& message);

    /// Mirrors a capacity change (fault injection); affects messages
    /// served after the one currently in service.  Throws
    /// std::invalid_argument unless `capacity` is finite and > 0.
    void setCapacity(double capacity);

    [[nodiscard]] double capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t queueDepth() const noexcept { return queue_.size(); }
    [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }

private:
    void startService();
    void completeService();

    sim::Simulator& simulator_;
    double capacity_;
    std::size_t queue_limit_;
    CostFn cost_;
    CompleteFn on_complete_;

    std::deque<DataMessage> queue_;  ///< front = in service when busy_
    bool busy_ = false;
    ServerStats stats_;
};

}  // namespace lrgp::dataplane
