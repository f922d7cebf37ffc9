#include "phy/modulation.hpp"

#include <gtest/gtest.h>

#include "phy/link_mode.hpp"

namespace braidio::phy {
namespace {

TEST(LinkMode, NamesAndRates) {
  EXPECT_STREQ(to_string(LinkMode::Active), "active");
  EXPECT_STREQ(to_string(LinkMode::PassiveRx), "passive");
  EXPECT_STREQ(to_string(LinkMode::Backscatter), "backscatter");
  EXPECT_STREQ(to_string(Bitrate::k10), "10k");
  EXPECT_STREQ(to_string(Bitrate::M1), "1M");
  EXPECT_DOUBLE_EQ(bitrate_bps(Bitrate::k10), 10e3);
  EXPECT_DOUBLE_EQ(bitrate_bps(Bitrate::k100), 100e3);
  EXPECT_DOUBLE_EQ(bitrate_bps(Bitrate::M1), 1e6);
}

TEST(Manchester, EncodesIeeeConvention) {
  const auto enc = manchester_encode({0, 1, 1, 0});
  const std::vector<std::uint8_t> expected{1, 0, 0, 1, 0, 1, 1, 0};
  EXPECT_EQ(enc, expected);
}

TEST(Manchester, RoundTripRandomPayloads) {
  // Every bit becomes the pair {!b, b}: the second half-bit recovers it.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto bits = random_bits(257, seed);
    const auto enc = manchester_encode(bits);
    ASSERT_EQ(enc.size(), 2 * bits.size()) << "seed " << seed;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(enc[2 * i + 1], bits[i]) << "seed " << seed;
      EXPECT_NE(enc[2 * i], enc[2 * i + 1]) << "seed " << seed;
    }
  }
}

TEST(Manchester, IsDcBalanced) {
  const auto bits = random_bits(1000, 7);
  const auto enc = manchester_encode(bits);
  std::size_t ones = 0;
  for (auto b : enc) ones += b;
  EXPECT_EQ(ones, enc.size() / 2);  // exactly half ones, by construction
}

TEST(OokModulate, ExpandsSamplesPerBit) {
  OokModulatorConfig cfg;
  cfg.samples_per_bit = 4;
  cfg.on_amplitude = 2.0;
  cfg.off_amplitude = 0.5;
  const auto wave = ook_modulate({1, 0}, cfg);
  const std::vector<double> expected{2.0, 2.0, 2.0, 2.0, 0.5, 0.5, 0.5, 0.5};
  EXPECT_EQ(wave, expected);
  OokModulatorConfig bad;
  bad.samples_per_bit = 0;
  EXPECT_THROW(ook_modulate({1}, bad), std::invalid_argument);
}

TEST(OokDemodulate, MidpointSamplingRoundTrip) {
  OokModulatorConfig cfg;
  cfg.samples_per_bit = 8;
  const auto bits = random_bits(500, 3);
  const auto wave = ook_modulate(bits, cfg);
  const auto out = ook_demodulate_midpoint(wave, 8, 0.5);
  EXPECT_EQ(out, bits);
  EXPECT_THROW(ook_demodulate_midpoint(wave, 0, 0.5), std::invalid_argument);
}

TEST(OokDemodulate, IgnoresTrailingPartialBit) {
  const std::vector<double> wave{1.0, 1.0, 1.0, 0.0};  // 1 bit + 1 stray
  const auto out = ook_demodulate_midpoint(wave, 3, 0.5);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
}

TEST(RandomBits, DeterministicAndBalanced) {
  const auto a = random_bits(10'000, 42);
  const auto b = random_bits(10'000, 42);
  EXPECT_EQ(a, b);
  std::size_t ones = 0;
  for (auto bit : a) ones += bit;
  EXPECT_NEAR(static_cast<double>(ones) / 10'000.0, 0.5, 0.02);
  EXPECT_NE(random_bits(100, 1), random_bits(100, 2));
}

}  // namespace
}  // namespace braidio::phy
