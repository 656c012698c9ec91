// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lrgp/optimizer.hpp"
#include "metrics/time_series.hpp"

namespace lrgp::bench {

/// Prints aligned multi-series data (one row per iteration) so figures
/// can be eyeballed in a terminal or re-plotted from the CSV block.
inline void print_series(const std::string& title, const std::vector<std::string>& names,
                         const std::vector<const metrics::TimeSeries*>& series,
                         std::size_t stride = 1) {
    std::printf("\n# %s\n", title.c_str());
    std::printf("%10s", "iteration");
    for (const auto& n : names) std::printf(" %16s", n.c_str());
    std::printf("\n");
    std::size_t len = 0;
    for (const auto* s : series) len = std::max(len, s->size());
    for (std::size_t i = 0; i < len; i += stride) {
        std::printf("%10zu", i + 1);
        for (const auto* s : series) {
            if (i < s->size()) std::printf(" %16.1f", (*s)[i]);
            else std::printf(" %16s", "-");
        }
        std::printf("\n");
    }
}

/// Environment-variable override for step budgets etc., so the default
/// bench run stays fast while full paper-scale runs remain possible.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    if (const char* v = std::getenv(name)) {
        const unsigned long long parsed = std::strtoull(v, nullptr, 10);
        if (parsed > 0) return parsed;
    }
    return fallback;
}

/// First iteration where a trailing 10-sample window of the trace swings
/// less than `threshold` relative to its mean; 0 if never.
inline std::size_t settle_iteration(const metrics::TimeSeries& trace, double threshold) {
    constexpr std::size_t kWindow = 10;
    for (std::size_t end = kWindow; end <= trace.size(); ++end) {
        double lo = (trace)[end - kWindow], hi = lo, sum = 0.0;
        for (std::size_t k = end - kWindow; k < end; ++k) {
            lo = std::min(lo, trace[k]);
            hi = std::max(hi, trace[k]);
            sum += trace[k];
        }
        const double mean = sum / kWindow;
        if (mean > 0.0 && (hi - lo) / mean < threshold) return end;
    }
    return 0;
}

}  // namespace lrgp::bench
