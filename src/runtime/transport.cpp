#include "runtime/transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace lrgp::runtime {

namespace {

/// Per-message latency, drawn uniformly from [kLatencyMin, kLatencyMax]
/// seconds.
constexpr double kLatencyMin = 0.001;
constexpr double kLatencyMax = 0.004;
/// Bounded inbox capacity per agent while it polls, divided evenly into
/// per-sender in-flight windows of kInboxCapacity / (K-1) messages.
constexpr std::size_t kInboxCapacity = 64;

static_assert(kLatencyMin > 0.0,
              "zero-latency delivery would let a message arrive inside its own send tick "
              "and break the determinism contract");
static_assert(kLatencyMax >= kLatencyMin, "the latency range is empty");
static_assert(kInboxCapacity >= 1, "an inbox must hold at least one message");

/// xorshift64 step (same generator family as faults::FaultInjector);
/// each sender owns one stream so draws are interleaving-independent.
std::uint64_t xorshift64(std::uint64_t& state) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

double uniform01(std::uint64_t& state) {
    return static_cast<double>(xorshift64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

ChannelTransport::ChannelTransport(int agents, const TransportOptions& options) {
    if (agents < 1)
        throw std::invalid_argument("ChannelTransport: agents must be >= 1");
    options.fault_plan.validate();

    senders_.reserve(static_cast<std::size_t>(agents));
    inboxes_.reserve(static_cast<std::size_t>(agents));
    for (int a = 0; a < agents; ++a) {
        auto sender = std::make_unique<Sender>();
        // Distinct deterministic streams per sender: mix the agent id
        // into both the latency stream and the injector seed.
        const auto mixed =
            static_cast<std::uint32_t>(options.seed + 7919u * static_cast<std::uint32_t>(a + 1));
        sender->latency_rng = 0x9E6C63D0876A9A35ull ^
                              (static_cast<std::uint64_t>(mixed) * 0x9E3779B97F4A7C15ull);
        if (!options.fault_plan.empty())
            sender->injector = std::make_unique<faults::FaultInjector>(options.fault_plan, mixed);
        senders_.push_back(std::move(sender));
        inboxes_.push_back(std::make_unique<Inbox>());
    }
    // kInboxCapacity bounds the whole inbox of a polling receiver; each
    // of the K-1 possible senders gets an equal in-flight window slice.
    link_capacity_ = agents > 1
                         ? std::max<std::size_t>(
                               1, kInboxCapacity / static_cast<std::size_t>(agents - 1))
                         : kInboxCapacity;
}

SendResult ChannelTransport::send(int from, int to, double now, Digest digest) {
    Sender& sender = *senders_[static_cast<std::size_t>(from)];
    Delivery delivery;
    delivery.from = from;
    delivery.to = to;
    delivery.send_time = now;
    {
        std::lock_guard<std::mutex> lock(sender.mutex);
        delivery.seq = sender.seq++;
        const double latency =
            kLatencyMin + uniform01(sender.latency_rng) * (kLatencyMax - kLatencyMin);
        delivery.deliver_time = now + latency;
        if (sender.injector != nullptr) {
            const faults::MessageContext ctx{
                {faults::AgentKind::kNode, static_cast<std::uint32_t>(from)},
                {faults::AgentKind::kNode, static_cast<std::uint32_t>(to)},
                faults::MessageKind::kNodeReport};
            const faults::FaultDecision decision = sender.injector->onMessage(ctx, now);
            if (decision.drop) {
                // Silent loss: the sender believes the message left.
                dropped_fault_.fetch_add(1, std::memory_order_relaxed);
                sent_.fetch_add(1, std::memory_order_relaxed);
                return SendResult::kSent;
            }
            delivery.deliver_time += decision.extra_delay;
            if (decision.price_factor != 1.0)
                for (PriceEntry& entry : digest.prices) entry.price *= decision.price_factor;
        }
    }
    delivery.digest = std::move(digest);

    Inbox& inbox = *inboxes_[static_cast<std::size_t>(to)];
    std::lock_guard<std::mutex> lock(inbox.mutex);
    // Backpressure is a per-channel in-flight window, NOT a check on the
    // total inbox size: whether a racing peer's message landed first
    // depends on mutex order, but the sender's own in-flight count
    // (deliver_time still in the future) depends only on its program
    // order and the clock — polls remove only deliver_time <= now
    // messages.  That keeps rejection decisions byte-identical across
    // thread schedules even with the inbox near capacity.
    std::size_t in_flight = 0;
    for (const Delivery& d : inbox.pending)
        if (d.from == from && d.deliver_time > now) ++in_flight;
    if (in_flight >= link_capacity_) {
        dropped_backpressure_.fetch_add(1, std::memory_order_relaxed);
        return SendResult::kQueueFull;
    }
    inbox.pending.push_back(std::move(delivery));
    sent_.fetch_add(1, std::memory_order_relaxed);
    return SendResult::kSent;
}

std::size_t ChannelTransport::poll(int to, double now, std::vector<Delivery>& out) {
    Inbox& inbox = *inboxes_[static_cast<std::size_t>(to)];
    std::lock_guard<std::mutex> lock(inbox.mutex);
    const std::size_t depth = inbox.pending.size();
    auto split = std::partition(inbox.pending.begin(), inbox.pending.end(),
                                [now](const Delivery& d) { return d.deliver_time > now; });
    const auto first = static_cast<std::size_t>(split - inbox.pending.begin());
    std::sort(inbox.pending.begin() + static_cast<std::ptrdiff_t>(first), inbox.pending.end(),
              [](const Delivery& a, const Delivery& b) {
                  if (a.deliver_time != b.deliver_time) return a.deliver_time < b.deliver_time;
                  if (a.from != b.from) return a.from < b.from;
                  return a.seq < b.seq;
              });
    for (std::size_t i = first; i < inbox.pending.size(); ++i)
        out.push_back(std::move(inbox.pending[i]));
    inbox.pending.resize(first);
    return depth;
}

std::size_t ChannelTransport::queueDepth(int to) const {
    const Inbox& inbox = *inboxes_[static_cast<std::size_t>(to)];
    std::lock_guard<std::mutex> lock(inbox.mutex);
    return inbox.pending.size();
}

std::uint64_t ChannelTransport::messagesSent() const noexcept {
    return sent_.load(std::memory_order_relaxed);
}

std::uint64_t ChannelTransport::droppedFault() const noexcept {
    return dropped_fault_.load(std::memory_order_relaxed);
}

std::uint64_t ChannelTransport::droppedBackpressure() const noexcept {
    return dropped_backpressure_.load(std::memory_order_relaxed);
}

faults::FaultStats ChannelTransport::faultStats() const {
    faults::FaultStats total;
    for (const auto& sender : senders_) {
        if (sender->injector == nullptr) continue;
        std::lock_guard<std::mutex> lock(sender->mutex);
        const faults::FaultStats& s = sender->injector->stats();
        total.messages_dropped += s.messages_dropped;
        total.messages_delayed += s.messages_delayed;
        total.messages_reordered += s.messages_reordered;
        total.prices_corrupted += s.prices_corrupted;
        total.crashes += s.crashes;
        total.restarts += s.restarts;
    }
    return total;
}

}  // namespace lrgp::runtime
