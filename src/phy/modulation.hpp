// Bit-level line coding and OOK/ASK envelope modulation.
//
// Backscatter and passive-RX links use on-off keying of the antenna
// reflection / carrier amplitude. Because the passive receive chain
// high-pass filters the baseband (to reject carrier self-interference),
// long runs of identical bits would droop — so the link uses Manchester
// coding, which is DC-balanced and self-clocking. This module provides the
// codec and the sampled-envelope modulator the Monte-Carlo simulator feeds
// through the circuit models.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace braidio::phy {

/// Manchester (IEEE convention): 0 -> {1,0}, 1 -> {0,1} half-bits.
std::vector<std::uint8_t> manchester_encode(
    const std::vector<std::uint8_t>& bits);

struct OokModulatorConfig {
  double on_amplitude = 1.0;
  double off_amplitude = 0.0;  // ASK depth < 1 supported via nonzero off
  unsigned samples_per_bit = 8;
};

/// Expand a bit vector into envelope samples.
std::vector<double> ook_modulate(const std::vector<std::uint8_t>& bits,
                                 const OokModulatorConfig& config);

/// Recover bits by sampling the (already thresholded or analog) waveform at
/// mid-bit with a fixed threshold.
std::vector<std::uint8_t> ook_demodulate_midpoint(
    const std::vector<double>& waveform, unsigned samples_per_bit,
    double threshold);

/// Random test payload.
std::vector<std::uint8_t> random_bits(std::size_t count, std::uint64_t seed);

}  // namespace braidio::phy
