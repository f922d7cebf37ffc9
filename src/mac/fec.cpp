#include "mac/fec.hpp"

#include <cmath>
#include <stdexcept>

namespace braidio::mac {

namespace {

// Codeword layout [p1 p2 d1 p3 d2 d3 d4] (positions 1..7); parity bit p_i
// covers the positions whose index has bit i set, so the syndrome is the
// error position directly.
std::uint8_t parity(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return a ^ b ^ c;
}

}  // namespace

std::vector<std::uint8_t> Hamming74::encode(
    std::span<const std::uint8_t> data_bits) {
  std::vector<std::uint8_t> padded(data_bits.begin(), data_bits.end());
  while (padded.size() % 4 != 0) padded.push_back(0);
  std::vector<std::uint8_t> out;
  out.reserve(padded.size() / 4 * 7);
  for (std::size_t i = 0; i < padded.size(); i += 4) {
    const std::uint8_t d1 = padded[i] & 1u;
    const std::uint8_t d2 = padded[i + 1] & 1u;
    const std::uint8_t d3 = padded[i + 2] & 1u;
    const std::uint8_t d4 = padded[i + 3] & 1u;
    const std::uint8_t p1 = parity(d1, d2, d4);  // covers 3,5,7
    const std::uint8_t p2 = parity(d1, d3, d4);  // covers 3,6,7
    const std::uint8_t p3 = parity(d2, d3, d4);  // covers 5,6,7
    out.insert(out.end(), {p1, p2, d1, p3, d2, d3, d4});
  }
  return out;
}

std::optional<Hamming74::DecodeResult> Hamming74::decode(
    std::span<const std::uint8_t> coded_bits) {
  if (coded_bits.size() % 7 != 0) return std::nullopt;
  DecodeResult result;
  result.bits.reserve(coded_bits.size() / 7 * 4);
  for (std::size_t i = 0; i < coded_bits.size(); i += 7) {
    std::uint8_t w[8] = {};  // 1-indexed
    for (int k = 0; k < 7; ++k) {
      w[k + 1] = coded_bits[i + static_cast<std::size_t>(k)] & 1u;
    }
    const std::uint8_t s1 = parity(w[1] ^ w[3], w[5], w[7]);
    const std::uint8_t s2 = parity(w[2] ^ w[3], w[6], w[7]);
    const std::uint8_t s3 = parity(w[4] ^ w[5], w[6], w[7]);
    const unsigned syndrome = static_cast<unsigned>(s1) |
                              (static_cast<unsigned>(s2) << 1) |
                              (static_cast<unsigned>(s3) << 2);
    if (syndrome != 0) {
      w[syndrome] ^= 1u;
      ++result.corrected;
    }
    result.bits.push_back(w[3]);
    result.bits.push_back(w[5]);
    result.bits.push_back(w[6]);
    result.bits.push_back(w[7]);
  }
  return result;
}

double hamming74_residual_ber(double channel_ber) {
  if (channel_ber < 0.0 || channel_ber > 1.0) {
    throw std::domain_error("hamming74_residual_ber: ber out of range");
  }
  const double p = channel_ber;
  const double q = 1.0 - p;
  // P(0 or 1 errors in 7) decodes correctly.
  const double ok = std::pow(q, 7) + 7.0 * p * std::pow(q, 6);
  const double word_error = 1.0 - ok;
  // A miscorrected word typically flips ~3 of its 7 positions; of the 4
  // data bits that's ~1.7 wrong on average -> residual ~ word_error * 0.43.
  return word_error * 0.43;
}

}  // namespace braidio::mac
