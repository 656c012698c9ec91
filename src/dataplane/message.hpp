// The unit of traffic in the message-level dataplane.
//
// A DataMessage is deliberately tiny — flow identity, sequence number,
// emission timestamp, the position in the flow's link chain, and (for a
// copy fanned out to a node) its node slot in the shared cost table —
// so millions of copies per simulated run stay cheap.  Content-based
// filtering lives in src/broker; the dataplane measures *capacity and
// timing*, which depend only on the cost model, not on payloads.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"

namespace lrgp::dataplane {

struct DataMessage {
    std::uint32_t flow = 0;        ///< FlowId value
    std::uint32_t node_slot = 0;   ///< NodeCostTable slot, set at node fan-out
    std::uint64_t sequence = 0;    ///< per-flow, assigned at emission
    sim::SimTime emitted_at = 0.0; ///< source emission time (latency origin)
    std::uint32_t link_stage = 0;  ///< next index into the flow's link chain
};
static_assert(sizeof(DataMessage) == 32, "DataMessage must stay 32 bytes");

}  // namespace lrgp::dataplane
