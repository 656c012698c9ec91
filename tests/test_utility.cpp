#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "utility/utility_function.hpp"

namespace {

using lrgp::utility::LogUtility;
using lrgp::utility::PowerUtility;
using lrgp::utility::ScaledUtility;
using lrgp::utility::UtilityFunction;

TEST(LogUtility, ValueAndDerivative) {
    LogUtility u(20.0);
    EXPECT_DOUBLE_EQ(u.value(0.0), 0.0);
    EXPECT_NEAR(u.value(9.0), 20.0 * std::log(10.0), 1e-12);
    EXPECT_NEAR(u.derivative(9.0), 2.0, 1e-12);
}

TEST(LogUtility, InverseDerivativeRoundTrip) {
    LogUtility u(50.0);
    for (double r : {0.5, 1.0, 10.0, 100.0, 999.0}) {
        const auto inverse = u.inverseDerivative(u.derivative(r));
        ASSERT_TRUE(inverse.has_value());
        EXPECT_NEAR(*inverse, r, 1e-9 * (1.0 + r));
    }
}

TEST(LogUtility, RejectsNonPositiveWeight) {
    EXPECT_THROW(LogUtility(0.0), std::invalid_argument);
    EXPECT_THROW(LogUtility(-1.0), std::invalid_argument);
}

TEST(PowerUtility, ValueAndDerivative) {
    PowerUtility u(10.0, 0.5);
    EXPECT_NEAR(u.value(4.0), 20.0, 1e-12);
    EXPECT_NEAR(u.derivative(4.0), 10.0 * 0.5 * std::pow(4.0, -0.5), 1e-12);
}

TEST(PowerUtility, InverseDerivativeRoundTrip) {
    PowerUtility u(3.0, 0.25);
    for (double r : {0.5, 1.0, 10.0, 500.0}) {
        const auto inverse = u.inverseDerivative(u.derivative(r));
        ASSERT_TRUE(inverse.has_value());
        EXPECT_NEAR(*inverse, r, 1e-9 * (1.0 + r));
    }
}

TEST(PowerUtility, RejectsBadParameters) {
    EXPECT_THROW(PowerUtility(-1.0, 0.5), std::invalid_argument);
    EXPECT_THROW(PowerUtility(1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(PowerUtility(1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(PowerUtility(1.0, 1.5), std::invalid_argument);
}

TEST(ScaledUtility, ScalesValueDerivativeAndInverse) {
    auto base = std::make_shared<LogUtility>(4.0);
    ScaledUtility u(5.0, base);
    EXPECT_NEAR(u.value(9.0), 5.0 * base->value(9.0), 1e-12);
    EXPECT_NEAR(u.derivative(9.0), 5.0 * base->derivative(9.0), 1e-12);
    const auto inverse = u.inverseDerivative(u.derivative(7.0));
    ASSERT_TRUE(inverse.has_value());
    EXPECT_NEAR(*inverse, 7.0, 1e-9);
}

TEST(ScaledUtility, RejectsBadConstruction) {
    auto base = std::make_shared<LogUtility>(1.0);
    EXPECT_THROW(ScaledUtility(0.0, base), std::invalid_argument);
    EXPECT_THROW(ScaledUtility(1.0, nullptr), std::invalid_argument);
}

TEST(UtilityClone, ClonesAreIndependentAndEqual) {
    LogUtility log_u(20.0);
    PowerUtility pow_u(5.0, 0.75);
    const auto log_clone = log_u.clone();
    const auto pow_clone = pow_u.clone();
    EXPECT_DOUBLE_EQ(log_clone->value(10.0), log_u.value(10.0));
    EXPECT_DOUBLE_EQ(pow_clone->value(10.0), pow_u.value(10.0));
}

TEST(UtilityDescribe, MentionsShape) {
    EXPECT_NE(LogUtility(2.0).describe().find("log"), std::string::npos);
    EXPECT_NE(PowerUtility(2.0, 0.5).describe().find("r^"), std::string::npos);
}

// ---- property sweeps: increasing + strictly concave on [r_min, r_max] ----

// The printed parameter becomes part of each ctest name, so it prints a fixed
// label; a printed shared_ptr would embed a heap address that differs per run.
struct Shape {
    const char* name;
    std::shared_ptr<UtilityFunction> u;
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

class UtilityProperties : public ::testing::TestWithParam<Shape> {};

TEST_P(UtilityProperties, IsIncreasing) {
    const auto& u = *GetParam().u;
    double prev = u.value(10.0);
    for (double r = 20.0; r <= 1000.0; r += 10.0) {
        const double v = u.value(r);
        EXPECT_GT(v, prev) << "not increasing at r=" << r;
        prev = v;
    }
}

TEST_P(UtilityProperties, DerivativeIsPositiveAndStrictlyDecreasing) {
    const auto& u = *GetParam().u;
    double prev = u.derivative(10.0);
    EXPECT_GT(prev, 0.0);
    for (double r = 20.0; r <= 1000.0; r += 10.0) {
        const double d = u.derivative(r);
        EXPECT_GT(d, 0.0);
        EXPECT_LT(d, prev) << "derivative not strictly decreasing at r=" << r;
        prev = d;
    }
}

TEST_P(UtilityProperties, DerivativeMatchesFiniteDifference) {
    const auto& u = *GetParam().u;
    for (double r : {10.0, 55.0, 200.0, 900.0}) {
        const double h = 1e-6 * r;
        const double fd = (u.value(r + h) - u.value(r - h)) / (2.0 * h);
        EXPECT_NEAR(u.derivative(r), fd, 1e-5 * std::abs(fd));
    }
}

TEST_P(UtilityProperties, MidpointConcavity) {
    const auto& u = *GetParam().u;
    for (double a = 10.0; a < 900.0; a += 111.0) {
        const double b = a + 100.0;
        EXPECT_GT(u.value(0.5 * (a + b)), 0.5 * (u.value(a) + u.value(b)))
            << "not strictly concave on [" << a << "," << b << "]";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UtilityProperties,
    ::testing::Values(Shape{"log_w1", std::make_shared<LogUtility>(1.0)},
                      Shape{"log_w100", std::make_shared<LogUtility>(100.0)},
                      Shape{"power_w1_e0.25", std::make_shared<PowerUtility>(1.0, 0.25)},
                      Shape{"power_w10_e0.5", std::make_shared<PowerUtility>(10.0, 0.5)},
                      Shape{"power_w40_e0.75", std::make_shared<PowerUtility>(40.0, 0.75)},
                      Shape{"scaled3_log_w7", std::make_shared<ScaledUtility>(
                                                  3.0, std::make_shared<LogUtility>(7.0))}));

// ---- sigmoid / step utilities (non-concave sensitivity classes) --------

TEST(SigmoidUtility, NormalizedLogistic) {
    using lrgp::utility::SigmoidUtility;
    SigmoidUtility u(12.0, 5.0, 2.0);
    // U(0) = 0 by normalization; saturates at the weight.
    EXPECT_DOUBLE_EQ(u.value(0.0), 0.0);
    // Saturates at the weight (exactly, once the exponential underflows).
    EXPECT_LE(u.value(100.0), 12.0);
    EXPECT_NEAR(u.value(100.0), 12.0, 1e-6);
    EXPECT_LT(u.value(8.0), 12.0);
    // Monotone increasing, steepest around the midpoint.
    double prev = u.value(0.0);
    for (double r = 0.5; r <= 12.0; r += 0.5) {
        EXPECT_GT(u.value(r), prev);
        prev = u.value(r);
    }
    EXPECT_GT(u.derivative(5.0), u.derivative(1.0));
    EXPECT_GT(u.derivative(5.0), u.derivative(9.0));
}

TEST(SigmoidUtility, DerivativeMatchesFiniteDifference) {
    using lrgp::utility::SigmoidUtility;
    SigmoidUtility u(7.0, 4.0, 1.5);
    for (double r : {0.5, 2.0, 4.0, 6.5, 10.0}) {
        const double h = 1e-6 * (1.0 + r);
        const double fd = (u.value(r + h) - u.value(r - h)) / (2.0 * h);
        EXPECT_NEAR(u.derivative(r), fd, 1e-5 * (std::abs(fd) + 1e-9));
    }
}

TEST(SigmoidUtility, ReportsNonConcaveAndScaledForwards) {
    using lrgp::utility::SigmoidUtility;
    const auto s = std::make_shared<SigmoidUtility>(10.0, 3.0, 2.0);
    EXPECT_FALSE(s->concave());
    EXPECT_TRUE(LogUtility(5.0).concave());
    EXPECT_TRUE(PowerUtility(5.0, 0.5).concave());
    EXPECT_FALSE(ScaledUtility(2.0, s).concave());
    EXPECT_TRUE(ScaledUtility(2.0, std::make_shared<LogUtility>(5.0)).concave());
}

TEST(SigmoidUtility, CloneAndDescribe) {
    using lrgp::utility::SigmoidUtility;
    SigmoidUtility u(9.0, 2.5, 4.0);
    const auto clone = u.clone();
    EXPECT_DOUBLE_EQ(clone->value(3.0), u.value(3.0));
    EXPECT_FALSE(clone->concave());
    EXPECT_NE(u.describe().find("sigmoid"), std::string::npos);
}

TEST(SigmoidUtility, RejectsBadParameters) {
    using lrgp::utility::SigmoidUtility;
    EXPECT_THROW(SigmoidUtility(0.0, 1.0, 1.0), std::invalid_argument);
    EXPECT_THROW(SigmoidUtility(1.0, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(SigmoidUtility(1.0, 1.0, 0.0), std::invalid_argument);
}

}  // namespace
