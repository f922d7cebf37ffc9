#include "phy/modulation.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace braidio::phy {

std::vector<std::uint8_t> manchester_encode(
    const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> out;
  out.reserve(bits.size() * 2);
  for (auto b : bits) {
    if (b) {
      out.push_back(0);
      out.push_back(1);
    } else {
      out.push_back(1);
      out.push_back(0);
    }
  }
  return out;
}

std::vector<double> ook_modulate(const std::vector<std::uint8_t>& bits,
                                 const OokModulatorConfig& config) {
  if (config.samples_per_bit == 0) {
    throw std::invalid_argument("ook_modulate: samples_per_bit must be >= 1");
  }
  std::vector<double> out;
  out.reserve(bits.size() * config.samples_per_bit);
  for (auto b : bits) {
    const double amp = b ? config.on_amplitude : config.off_amplitude;
    for (unsigned s = 0; s < config.samples_per_bit; ++s) out.push_back(amp);
  }
  return out;
}

std::vector<std::uint8_t> ook_demodulate_midpoint(
    const std::vector<double>& waveform, unsigned samples_per_bit,
    double threshold) {
  if (samples_per_bit == 0) {
    throw std::invalid_argument("ook_demodulate: samples_per_bit must be >=1");
  }
  std::vector<std::uint8_t> out;
  out.reserve(waveform.size() / samples_per_bit);
  for (std::size_t start = 0; start + samples_per_bit <= waveform.size();
       start += samples_per_bit) {
    const double v = waveform[start + samples_per_bit / 2];
    out.push_back(v > threshold ? 1 : 0);
  }
  return out;
}

std::vector<std::uint8_t> random_bits(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> bits(count);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  return bits;
}

}  // namespace braidio::phy
