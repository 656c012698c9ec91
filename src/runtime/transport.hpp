// In-process message transport with live fault injection.
//
// ChannelTransport gives every agent a bounded inbox and routes digests
// between agents, which tick on different pool threads, with a
// per-message network latency.  The fault catalog (faults::FaultPlan)
// is embedded *live*: every send consults a FaultInjector, so loss
// bursts, delay spikes, reorder storms and (asymmetric) partitions
// happen in runtime clock time while the agents are running — not in a
// discrete-event replay.
//
// Determinism contract (the virtual-time loop of runtime.hpp relies on
// it): each sender draws latency and fault decisions from its own
// private streams, in its own program order, so what happens to a
// message depends only on (seed, sender, send index, clock) — never on
// thread interleaving.  poll() returns deliverable messages sorted by
// the schedule-independent key (deliver_time, from, seq), so receivers
// observe an identical sequence on every rerun even though senders race
// on the inbox mutex.  The minimum latency is positive: a message sent
// in tick t then cannot be delivered before tick t+1, which is what
// lets runFor join once per tick.
//
// The design is socket-shaped on purpose: send() can fail with
// backpressure (the sender sees it and retries), fault drops are
// silent (the sender does NOT learn about them — real networks don't
// tell you), and all cross-thread state is confined to the per-inbox
// mutexes.  Backpressure is a per-channel in-flight window (like a
// sender-side TCP window): a send is rejected when the sender already
// has a full window of messages to that receiver — the inbox capacity
// split evenly among the K-1 possible senders — whose deliver_time is
// still in the future.  Checking the *total* inbox size instead would
// make the rejection depend on which racing sender grabbed the inbox
// mutex first — schedule-dependent, breaking the determinism contract
// exactly when inboxes saturate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "faults/fault_plan.hpp"
#include "runtime/message.hpp"

namespace lrgp::runtime {

/// The message latencies and the inbox capacity are constants in
/// transport.cpp.
struct TransportOptions {
    std::uint32_t seed = 1;
    /// Live fault schedule (empty = clean network).  Runtime agent i is
    /// faults::AgentRef{kNode, i} for message matching; crashes are
    /// handled by the runtime itself (matched by index, any kind).
    faults::FaultPlan fault_plan;
};

enum class SendResult {
    kSent,       ///< accepted (possibly silently dropped by a fault)
    kQueueFull,  ///< receiver inbox full — backpressure, caller retries
};

class ChannelTransport {
public:
    /// Validates the agent count and the fault plan; throws
    /// std::invalid_argument.
    ChannelTransport(int agents, const TransportOptions& options);

    ChannelTransport(const ChannelTransport&) = delete;
    ChannelTransport& operator=(const ChannelTransport&) = delete;

    /// Routes one digest.  Thread-safe; callable concurrently for every
    /// agent (a sender's own sends must stay in program order, which they
    /// do because one agent's tick runs on one thread).
    SendResult send(int from, int to, double now, Digest digest);

    /// Appends every message deliverable at `now` (deliver_time <= now)
    /// to `out`, sorted by (deliver_time, from, seq); returns the inbox
    /// depth *before* the drain.  Thread-safe per receiver.
    std::size_t poll(int to, double now, std::vector<Delivery>& out);

    /// Messages currently queued for `to` (delivered or in flight).
    [[nodiscard]] std::size_t queueDepth(int to) const;

    [[nodiscard]] int agentCount() const noexcept { return static_cast<int>(senders_.size()); }

    /// Messages accepted by send() so far.
    [[nodiscard]] std::uint64_t messagesSent() const noexcept;
    /// Silent fault drops (loss bursts, partitions).
    [[nodiscard]] std::uint64_t droppedFault() const noexcept;
    /// Backpressure rejections (bounded inbox full).
    [[nodiscard]] std::uint64_t droppedBackpressure() const noexcept;

    /// Aggregated injector counters across all senders.  Only call while
    /// no agent is sending (e.g. between runFor calls).
    [[nodiscard]] faults::FaultStats faultStats() const;

private:
    struct Sender {
        std::mutex mutex;  ///< serializes this sender's draws
        std::unique_ptr<faults::FaultInjector> injector;  ///< null = clean
        std::uint64_t latency_rng = 0;
        std::uint64_t seq = 0;
    };
    struct Inbox {
        mutable std::mutex mutex;
        std::vector<Delivery> pending;
    };

    std::size_t link_capacity_ = 1;  ///< per-(sender, receiver) in-flight window
    std::vector<std::unique_ptr<Sender>> senders_;
    std::vector<std::unique_ptr<Inbox>> inboxes_;
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> dropped_fault_{0};
    std::atomic<std::uint64_t> dropped_backpressure_{0};
};

}  // namespace lrgp::runtime
