// The monotonic clock behind every obs timing: phase histograms, span
// durations and tracer timestamps all read it.
#pragma once

#include <chrono>
#include <cstdint>

namespace lrgp::obs {

[[nodiscard]] inline std::uint64_t monotonic_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace lrgp::obs
