// Message batches: the unit of work flowing through the fastpath's
// gate graph.  A batch is a cohort of up to kBatchSize messages of one
// flow emitted in the same quantum — the BESS packet-batch analog.
// Gates charge and serve whole cohorts (counts), never individual
// messages, which is where the fastpath's throughput comes from.
#pragma once

#include <cstdint>

namespace lrgp::fastpath {

inline constexpr std::uint32_t kBatchSize = 32;

/// Number of batches needed for `messages` at kBatchSize per batch.
[[nodiscard]] constexpr std::uint64_t batch_count(std::uint64_t messages) noexcept {
    return (messages + kBatchSize - 1) / kBatchSize;
}

}  // namespace lrgp::fastpath
