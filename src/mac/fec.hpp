// Hamming(7,4) coding for marginal Braidio links.
//
// The paper's links are uncoded; it cites coding improvements for
// backscatter (Turbocharging ambient backscatter) as related work. The
// coded-range extension (`core::coded_range_m`, `bench_ext_fec`) runs on
// the closed-form residual BER below; the Hamming74 codec is the
// bit-level reference the tests check that formula against.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace braidio::mac {

/// Hamming(7,4): encode 4 data bits into 7, correcting any single bit
/// error per codeword.
class Hamming74 {
 public:
  /// Encode a bit stream (padded with zeros to a multiple of 4).
  static std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data_bits);

  struct DecodeResult {
    std::vector<std::uint8_t> bits;  // recovered data bits
    std::size_t corrected = 0;       // single-bit corrections applied
  };
  /// Decode; input length must be a multiple of 7.
  static std::optional<DecodeResult> decode(
      std::span<const std::uint8_t> coded_bits);

  static constexpr double code_rate() { return 4.0 / 7.0; }
};

/// Residual bit error rate of Hamming(7,4) on a BSC with crossover `ber`:
/// a codeword with >= 2 errors decodes wrongly; approximate post-decode
/// BER = P(word error) * (expected wrong bits / 4).
double hamming74_residual_ber(double channel_ber);

}  // namespace braidio::mac
