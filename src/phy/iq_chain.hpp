// Active-radio IQ chain simulation (Fig. 2(a)/(c)).
//
// The paper's architecture figures show the conventional active
// transceiver Braidio embeds: carrier generation, quadrature mixing to
// I/Q, power amplification; and at the receiver an LNA, quadrature
// downconversion against a local carrier, and low-pass filtering. This
// module simulates that chain at complex baseband:
//
//   bits -> [BPSK: pilot prefix] -> BPSK/BFSK symbols -> pulse shaping
//   -> (channel: gain, phase offset, CFO, AWGN) -> quadrature
//   downconversion -> matched filter -> carrier-phase estimation from the
//   pilot -> decision
//
// It validates the analytic active-mode BER models at waveform level and
// quantifies what coherent detection buys over the envelope chain — the
// sensitivity column of Table 3.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "phy/ber.hpp"
#include "util/rng.hpp"

namespace braidio::phy {

struct IqChainConfig {
  enum class Modulation { Bpsk, Bfsk };
  Modulation modulation = Modulation::Bpsk;
  unsigned samples_per_symbol = 8;
  /// BFSK tone separation in cycles per symbol (orthogonal when integer).
  int fsk_cycles_low = 1;
  int fsk_cycles_high = 2;
  /// Static channel phase offset [rad] the receiver must estimate.
  double channel_phase_rad = 0.0;
  /// Carrier frequency offset in cycles per symbol (residual CFO).
  double cfo_cycles_per_symbol = 0.0;
};

struct IqChainResult {
  std::size_t bits = 0;
  std::size_t errors = 0;
  double measured_ber = 0.0;
  double analytic_ber = 0.0;
  double estimated_phase_rad = 0.0;
};

class IqChain {
 public:
  explicit IqChain(IqChainConfig config = {});

  /// Modulate bits to complex baseband samples (unit symbol energy per
  /// sample before scaling). A BPSK frame starts with a 32-symbol
  /// all-ones pilot ahead of the bits; BFSK needs none.
  std::vector<std::complex<double>> modulate(
      const std::vector<std::uint8_t>& bits) const;

  /// Demodulate samples modulate() produced (after the channel), back to
  /// the bits: matched filtering per symbol, then for BPSK a carrier
  /// phase estimate from the pilot prefix, which is stripped, and for
  /// BFSK a non-coherent tone-energy comparison. Throws
  /// std::invalid_argument when a BPSK frame is shorter than its pilot.
  std::vector<std::uint8_t> demodulate(
      const std::vector<std::complex<double>>& samples,
      double* estimated_phase_rad = nullptr) const;

  /// Monte-Carlo BER at per-bit SNR (linear). The channel applies the
  /// configured phase offset and CFO plus complex AWGN.
  IqChainResult simulate(double snr_per_bit, std::size_t bits,
                         std::uint64_t seed) const;

  const IqChainConfig& config() const { return config_; }

 private:
  IqChainConfig config_;
};

}  // namespace braidio::phy
