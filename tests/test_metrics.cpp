#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "metrics/histogram.hpp"
#include "metrics/table_writer.hpp"
#include "metrics/time_series.hpp"

namespace {

using lrgp::metrics::Cell;
using lrgp::metrics::TableWriter;
using lrgp::metrics::TimeSeries;

TEST(TimeSeries, StartsEmpty) {
    TimeSeries ts;
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.size(), 0u);
}

TEST(TimeSeries, AppendAndIndex) {
    TimeSeries ts;
    ts.append(1.0);
    ts.append(2.0);
    ts.append(3.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts[0], 1.0);
    EXPECT_DOUBLE_EQ(ts[2], 3.0);
    EXPECT_DOUBLE_EQ(ts.back(), 3.0);
}

TEST(TimeSeries, StatsOnKnownData) {
    TimeSeries ts({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(ts.min(), 2.0);
    EXPECT_DOUBLE_EQ(ts.max(), 9.0);
    EXPECT_DOUBLE_EQ(ts.mean(), 5.0);
    EXPECT_DOUBLE_EQ(ts.stddev(), 2.0);
}

TEST(TimeSeries, StatsThrowOnEmpty) {
    TimeSeries ts;
    EXPECT_THROW((void)ts.min(), std::logic_error);
    EXPECT_THROW((void)ts.max(), std::logic_error);
    EXPECT_THROW((void)ts.mean(), std::logic_error);
    EXPECT_THROW((void)ts.stddev(), std::logic_error);
}

TEST(TimeSeries, TrailingAmplitudeUsesOnlyWindow) {
    TimeSeries ts({100.0, 0.0, 5.0, 6.0, 7.0});
    // Window of 3 ignores the 100 and 0 at the front.
    EXPECT_DOUBLE_EQ(ts.trailingAmplitude(3), 2.0);
    EXPECT_DOUBLE_EQ(ts.trailingMean(3), 6.0);
    EXPECT_NEAR(ts.trailingRelativeAmplitude(3), 2.0 / 6.0, 1e-12);
}

TEST(TimeSeries, TrailingWindowValidation) {
    TimeSeries ts({1.0, 2.0});
    EXPECT_THROW((void)ts.trailingAmplitude(0), std::invalid_argument);
    EXPECT_THROW((void)ts.trailingAmplitude(3), std::invalid_argument);
}

TEST(TimeSeries, RelativeAmplitudeZeroMean) {
    TimeSeries flat({0.0, 0.0, 0.0});
    EXPECT_DOUBLE_EQ(flat.trailingRelativeAmplitude(3), 0.0);
    TimeSeries mixed({-1.0, 1.0});
    EXPECT_TRUE(std::isinf(mixed.trailingRelativeAmplitude(2)));
}

TEST(TableWriter, RejectsEmptyColumns) {
    EXPECT_THROW(TableWriter({}), std::invalid_argument);
}

TEST(TableWriter, RejectsRowSizeMismatch) {
    TableWriter t({"a", "b"});
    EXPECT_THROW(t.addRow({Cell{std::string{"x"}}}), std::invalid_argument);
}

TEST(TableWriter, RendersAlignedTable) {
    TableWriter t({"name", "value"});
    t.addRow({Cell{std::string{"alpha"}}, Cell{1.5}});
    t.addRow({Cell{std::string{"b"}}, Cell{static_cast<long long>(42)}});
    const std::string s = t.toTableString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(TableWriter, CsvEscapesSpecials) {
    TableWriter t({"x"});
    t.addRow({Cell{std::string{"a,b"}}});
    t.addRow({Cell{std::string{"q\"u"}}});
    const std::string s = t.toCsvString();
    EXPECT_NE(s.find("\"a,b\""), std::string::npos);
    EXPECT_NE(s.find("\"q\"\"u\""), std::string::npos);
}

TEST(TableWriter, FloatPrecisionHonored) {
    TableWriter t({"v"}, 4);
    t.addRow({Cell{3.14159265}});
    EXPECT_NE(t.toCsvString().find("3.1416"), std::string::npos);
}

TEST(TableWriter, RowCount) {
    TableWriter t({"v"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({Cell{1.0}});
    EXPECT_EQ(t.rowCount(), 1u);
}

TEST(BucketHistogram, CountsSumAndExactExtrema) {
    lrgp::metrics::BucketHistogram h({1.0, 10.0, 100.0});
    h.observe(0.5);
    h.observe(3.0);
    h.observe(42.0);
    h.observe(500.0);  // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 545.5);
    EXPECT_DOUBLE_EQ(h.minObserved(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxObserved(), 500.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);  // overflow
}

TEST(BucketHistogram, QuantilesInterpolateAndClampToObservations) {
    lrgp::metrics::BucketHistogram h({1.0, 2.0, 4.0});
    for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in (1, 2]
    // Every rank crosses the same bucket; clamping pins the tails to the
    // exact extrema rather than the bucket bounds.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);
    EXPECT_GE(h.quantile(0.5), 1.0);
    EXPECT_LE(h.quantile(0.5), 2.0);
    EXPECT_THROW((void)h.quantile(1.5), std::invalid_argument);
}

TEST(BucketHistogram, OverflowQuantileReportsObservedMax) {
    lrgp::metrics::BucketHistogram h({1.0});
    h.observe(7.0);
    h.observe(9.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 9.0);
}

TEST(BucketHistogram, EveryObservationLandsInTheLowerBoundBucket) {
    // observe() reuses its previous bucket when x still falls in it; the
    // pick must be lower_bound's for every x, the bounds themselves,
    // both infinities and NaN included, in any order.
    const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> xs = {3.0, 3.5, 4.0, 4.0, 4.5, 2.0, 0.5, 0.5, -1.0, 8.0, 9.0,
                                    inf, 9.0, -inf, 1.0, std::nan(""), 1.5, std::nan(""), 9.0};
    lrgp::metrics::BucketHistogram h(bounds);
    std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
    for (const double x : xs) {
        h.observe(x, 2);
        ++expected[static_cast<std::size_t>(
            std::lower_bound(bounds.begin(), bounds.end(), x) - bounds.begin())];
        for (std::size_t b = 0; b < expected.size(); ++b) {
            ASSERT_EQ(h.bucketCount(b), 2 * expected[b]) << "after x=" << x << ", bucket " << b;
        }
    }
}

TEST(BucketHistogram, ValidatesBounds) {
    using lrgp::metrics::BucketHistogram;
    EXPECT_THROW(BucketHistogram({}), std::invalid_argument);
    EXPECT_THROW(BucketHistogram({1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(BucketHistogram({-1.0, 1.0}), std::invalid_argument);
}

TEST(BucketHistogram, ExponentialBoundsCoverTheRequestedRange) {
    const std::vector<double> bounds = lrgp::metrics::exponential_bounds(1e-3, 10.0, 5);
    ASSERT_FALSE(bounds.empty());
    EXPECT_DOUBLE_EQ(bounds.front(), 1e-3);
    EXPECT_GE(bounds.back(), 10.0);
    for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
    EXPECT_THROW((void)lrgp::metrics::exponential_bounds(1.0, 0.5), std::invalid_argument);
}

}  // namespace
