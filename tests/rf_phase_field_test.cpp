#include "rf/phase_field.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "rf/constants.hpp"
#include "support/cancellation_angle.hpp"
#include "util/units.hpp"

namespace braidio::rf {
namespace {

PhaseField make_field() { return PhaseField{}; }

TEST(PhaseField, PropagationAmplitudeAndPhase) {
  const auto field = make_field();
  const double lambda = util::wavelength_m(915e6);
  const Vec2 from{0.0, 0.0};
  const Vec2 to{1.0, 0.0};
  const auto h = field.propagate(from, to);
  EXPECT_NEAR(std::abs(h), lambda / (4.0 * std::numbers::pi), 1e-12);
  // Phase advances with distance: half a wavelength flips the sign.
  const auto h2 = field.propagate(from, {1.0 + lambda / 2.0, 0.0});
  const double phase_diff =
      std::arg(h2) - std::arg(h);
  EXPECT_NEAR(std::cos(phase_diff), -1.0, 1e-6);
}

TEST(PhaseField, EnvelopeAmplitudeSmallForOrthogonalGeometry) {
  const auto field = make_field();
  // Scan tags along a line and verify the envelope amplitude collapses
  // exactly where the cancellation angle crosses pi/2.
  double worst_amp = 1e300;
  double angle_at_worst = 0.0;
  for (double x = 0.2; x <= 1.8; x += 0.001) {
    const Vec2 tag{x, 1.0};
    const double a =
        field.envelope_amplitude(tag, field.config().receive_antenna);
    if (a < worst_amp) {
      worst_amp = a;
      angle_at_worst = cancellation_angle(field, tag,
                                          field.config().receive_antenna);
    }
  }
  EXPECT_NEAR(angle_at_worst, std::numbers::pi / 2.0, 0.05);
}

TEST(PhaseField, EnvelopeMatchesLinearizedProjection) {
  const auto field = make_field();
  // |Vbg| >> |Vtag| here, so A ~ 2 |Vtag| cos(theta).
  const Vec2 tag{1.4, 0.8};
  const Vec2 rx = field.config().receive_antenna;
  const double a = field.envelope_amplitude(tag, rx);
  const double vt = std::abs(field.tag_vector(tag, rx));
  const double theta = cancellation_angle(field, tag, rx);
  EXPECT_NEAR(a, 2.0 * vt * std::cos(theta), 0.05 * 2.0 * vt + 1e-12);
}

TEST(PhaseField, SnrFallsWithDistanceOnAverage) {
  const auto field = make_field();
  // Compare median SNR in a near band vs a far band (medians are robust to
  // the interference nulls).
  auto median_snr = [&](double x_lo, double x_hi) {
    std::vector<double> v;
    for (double x = x_lo; x < x_hi; x += 0.01) {
      v.push_back(field.snr_db({x, 0.5}, field.config().receive_antenna));
    }
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median_snr(1.3, 1.6), median_snr(2.6, 2.9) + 6.0);
}

TEST(PhaseField, DiversityNeverWorseThanSingleAntenna) {
  const auto field = make_field();
  const double lambda = util::wavelength_m(915e6);
  const auto pair =
      make_diversity_pair(field.config().receive_antenna, lambda / 8.0);
  for (double x = 0.3; x <= 2.0; x += 0.05) {
    const Vec2 tag{x, 0.5};
    // Selection combining picks the better antenna, which can only help
    // relative to the worse of the two.
    const double best = field.snr_db_diversity(tag, pair);
    EXPECT_GE(best + 1e-9, field.snr_db(tag, pair[0].position));
    EXPECT_GE(best + 1e-9, field.snr_db(tag, pair[1].position));
  }
  EXPECT_THROW(field.snr_db_diversity({1, 1}, {}), std::invalid_argument);
}

TEST(PhaseField, Figure6DiversityRescuesNulls) {
  // The paper's microbenchmark: the tag moves 0.5 m - 2 m away from the
  // device (i.e. beyond the antenna pair); without diversity the SNR at
  // null points collapses, with two antennas lambda/8 apart the nulls stay
  // above ~5 dB while typical SNR is ~30 dB.
  const auto field = make_field();
  const double lambda = util::wavelength_m(915e6);
  const double rx_x = field.config().receive_antenna.x;
  const auto line =
      field.sample_line(rx_x + 0.5, rx_x + 2.0, 0.5, 400, lambda / 8.0);
  double min_single = 1e300, min_div = 1e300, max_single = -1e300;
  for (const auto& s : line) {
    min_single = std::min(min_single, s.snr_single_db);
    min_div = std::min(min_div, s.snr_diversity_db);
    max_single = std::max(max_single, s.snr_single_db);
  }
  EXPECT_LT(min_single, 8.0);       // deep nulls exist without diversity
  EXPECT_GT(min_div, min_single);   // diversity lifts them
  EXPECT_GT(min_div, 5.0);          // paper: "still higher than 5dB"
  EXPECT_GT(max_single, 25.0);      // typical SNR ~30 dB
}

TEST(PhaseField, GridSamplingShapeAndDarkSpots) {
  const auto field = make_field();
  const auto grid = field.sample_grid(0.0, 2.0, 0.0, 2.0, 40, 40);
  ASSERT_EQ(grid.size(), 1600u);
  // Fig. 4(b): dark (weak) regions exist even close to the radios.
  double lo = 1e300, hi = -1e300;
  for (const auto& s : grid) {
    const double d_tx = distance(s.position, field.config().carrier_antenna);
    if (d_tx < 1.0) {
      lo = std::min(lo, s.level_db);
      hi = std::max(hi, s.level_db);
    }
  }
  EXPECT_GT(hi - lo, 25.0);  // strong contrast near the devices
  EXPECT_THROW(field.sample_grid(0, 1, 0, 1, 1, 5), std::invalid_argument);
}

TEST(PhaseField, ConfigValidation) {
  PhaseFieldConfig bad;
  bad.freq_hz = 0.0;
  EXPECT_THROW(PhaseField{bad}, std::invalid_argument);
  PhaseFieldConfig bad2;
  bad2.noise_amplitude = 0.0;
  EXPECT_THROW(PhaseField{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace braidio::rf
