#include "mac/fec.hpp"

#include <gtest/gtest.h>

#include "phy/modulation.hpp"
#include "util/rng.hpp"

namespace braidio::mac {
namespace {

TEST(Hamming74, EncodeExpandsSevenFourths) {
  const auto coded = Hamming74::encode(std::vector<std::uint8_t>(16, 1));
  EXPECT_EQ(coded.size(), 28u);
  // Padding: 5 data bits pad to 8 -> 14 coded.
  EXPECT_EQ(Hamming74::encode(std::vector<std::uint8_t>(5, 0)).size(), 14u);
  EXPECT_DOUBLE_EQ(Hamming74::code_rate(), 4.0 / 7.0);
}

TEST(Hamming74, CleanRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto data = phy::random_bits(64, seed);
    const auto coded = Hamming74::encode(data);
    const auto decoded = Hamming74::decode(coded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->bits, data);
    EXPECT_EQ(decoded->corrected, 0u);
  }
}

TEST(Hamming74, CorrectsEverySingleBitError) {
  const auto data = phy::random_bits(4, 99);
  const auto coded = Hamming74::encode(data);
  ASSERT_EQ(coded.size(), 7u);
  for (std::size_t flip = 0; flip < 7; ++flip) {
    auto corrupted = coded;
    corrupted[flip] ^= 1u;
    const auto decoded = Hamming74::decode(corrupted);
    ASSERT_TRUE(decoded.has_value()) << "flip " << flip;
    EXPECT_EQ(decoded->bits, data) << "flip " << flip;
    EXPECT_EQ(decoded->corrected, 1u) << "flip " << flip;
  }
}

TEST(Hamming74, DoubleErrorsMiscorrect) {
  // Hamming(7,4) cannot correct two errors; it must still return *some*
  // decode (miscorrected), not crash.
  const auto data = phy::random_bits(4, 5);
  auto coded = Hamming74::encode(data);
  coded[0] ^= 1u;
  coded[3] ^= 1u;
  const auto decoded = Hamming74::decode(coded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_NE(decoded->bits, data);
}

TEST(Hamming74, RejectsBadLength) {
  EXPECT_FALSE(Hamming74::decode(std::vector<std::uint8_t>(6)).has_value());
}

TEST(ResidualBer, ImprovesOnChannelAndIsMonotone) {
  double prev = 0.0;
  for (double ber : {1e-4, 1e-3, 1e-2, 5e-2}) {
    const double residual = hamming74_residual_ber(ber);
    EXPECT_LT(residual, ber) << ber;   // the code must help
    EXPECT_GT(residual, prev);         // and stay monotone
    prev = residual;
  }
  EXPECT_DOUBLE_EQ(hamming74_residual_ber(0.0), 0.0);
  EXPECT_THROW(hamming74_residual_ber(-0.1), std::domain_error);
}

TEST(ResidualBer, MatchesMonteCarlo) {
  util::Rng rng(31);
  const double channel = 0.02;
  std::size_t errors = 0, bits = 0;
  for (int t = 0; t < 400; ++t) {
    const auto data = phy::random_bits(400, static_cast<std::uint64_t>(t));
    auto coded = Hamming74::encode(data);
    for (auto& b : coded) {
      if (rng.bernoulli(channel)) b ^= 1u;
    }
    const auto decoded = Hamming74::decode(coded);
    ASSERT_TRUE(decoded.has_value());
    for (std::size_t i = 0; i < data.size(); ++i) {
      errors += decoded->bits[i] != data[i] ? 1u : 0u;
    }
    bits += data.size();
  }
  const double measured = static_cast<double>(errors) /
                          static_cast<double>(bits);
  EXPECT_NEAR(measured / hamming74_residual_ber(channel), 1.0, 0.35);
}

}  // namespace
}  // namespace braidio::mac
