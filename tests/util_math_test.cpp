#include "util/math.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace braidio::util {
namespace {

TEST(Linspace, EndpointsAndSpacing) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Linspace, SinglePointAndErrors) {
  const auto v = linspace(3.0, 9.0, 1);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
}

TEST(QFunction, KnownValues) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.158655, 1e-6);
  EXPECT_NEAR(q_function(3.0), 1.349898e-3, 1e-8);
  EXPECT_NEAR(q_function(-1.0), 1.0 - 0.158655, 1e-6);
}

TEST(BesselI0, MatchesSeriesValues) {
  EXPECT_NEAR(bessel_i0(0.0), 1.0, 1e-9);
  EXPECT_NEAR(bessel_i0(1.0), 1.2660658, 1e-6);
  EXPECT_NEAR(bessel_i0(5.0), 27.239871, 2e-4);
  // Symmetry.
  EXPECT_DOUBLE_EQ(bessel_i0(2.5), bessel_i0(-2.5));
}

TEST(MarcumQ, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(marcum_q1(1.0, 0.0), 1.0);
  // Q1(0, b) reduces to a Rayleigh tail exp(-b^2/2).
  for (double b : {0.5, 1.0, 2.0, 3.0}) {
    EXPECT_NEAR(marcum_q1(0.0, b), std::exp(-b * b / 2.0), 1e-10);
  }
  EXPECT_THROW(marcum_q1(-1.0, 1.0), std::domain_error);
}

TEST(MarcumQ, MonotoneInArguments) {
  // Increasing a raises the envelope -> higher exceedance probability.
  EXPECT_GT(marcum_q1(2.0, 2.0), marcum_q1(1.0, 2.0));
  // Increasing the threshold lowers it.
  EXPECT_LT(marcum_q1(2.0, 3.0), marcum_q1(2.0, 2.0));
}

TEST(MarcumQ, LargeArgumentNormalApproximation) {
  // For large a*b, Q1(a,b) ~ Q(b-a); continuity across the switch point.
  const double v1 = marcum_q1(24.0, 25.0);  // a*b = 600, series side
  const double v2 = marcum_q1(24.2, 25.0);  // just across the cutoff
  EXPECT_NEAR(v1, q_function(1.0), 0.02);
  EXPECT_GT(v2, v1);
}

class MarcumVsMonteCarlo : public ::testing::TestWithParam<double> {};

TEST_P(MarcumVsMonteCarlo, MatchesRiceTailProbability) {
  // Q1(a,b) = P(|a + CN(0,2)| > b) with unit-variance components.
  const double a = GetParam();
  const double b = 1.5 * a + 0.5;
  // Deterministic LCG-free check via fine numeric integration of the Rice
  // pdf: f(r) = r exp(-(r^2+a^2)/2) I0(ar).
  double tail = 0.0;
  const double dr = 1e-4;
  for (double r = b; r < b + 40.0; r += dr) {
    tail += r * std::exp(-(r * r + a * a) / 2.0) * bessel_i0(a * r) * dr;
  }
  EXPECT_NEAR(marcum_q1(a, b), tail, 5e-4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MarcumVsMonteCarlo,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace braidio::util
