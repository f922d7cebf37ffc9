#include "phy/iq_chain.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace braidio::phy {

namespace {
/// Known pilot prefix used for carrier-phase estimation (all-ones).
constexpr std::size_t kPilotSymbols = 32;
}  // namespace

IqChain::IqChain(IqChainConfig config) : config_(config) {
  if (config_.samples_per_symbol < 2) {
    throw std::invalid_argument("IqChain: need >= 2 samples per symbol");
  }
  if (config_.modulation == IqChainConfig::Modulation::Bfsk &&
      config_.fsk_cycles_low == config_.fsk_cycles_high) {
    throw std::invalid_argument("IqChain: BFSK tones must differ");
  }
}

std::vector<std::complex<double>> IqChain::modulate(
    const std::vector<std::uint8_t>& bits) const {
  const unsigned n = config_.samples_per_symbol;
  const bool bpsk = config_.modulation == IqChainConfig::Modulation::Bpsk;
  std::vector<std::complex<double>> out;
  out.reserve((bits.size() + (bpsk ? kPilotSymbols : 0)) * n);
  if (bpsk) out.assign(kPilotSymbols * n, {1.0, 0.0});  // pilot: all ones
  for (auto bit : bits) {
    if (bpsk) {
      const double s = bit ? 1.0 : -1.0;
      for (unsigned k = 0; k < n; ++k) out.emplace_back(s, 0.0);
    } else {
      const int cycles =
          bit ? config_.fsk_cycles_high : config_.fsk_cycles_low;
      for (unsigned k = 0; k < n; ++k) {
        const double phase = 2.0 * std::numbers::pi * cycles *
                             static_cast<double>(k) / n;
        out.push_back(std::polar(1.0, phase));
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> IqChain::demodulate(
    const std::vector<std::complex<double>>& samples,
    double* estimated_phase_rad) const {
  const unsigned n = config_.samples_per_symbol;
  const std::size_t symbols = samples.size() / n;
  std::vector<std::uint8_t> bits;
  bits.reserve(symbols);

  if (config_.modulation == IqChainConfig::Modulation::Bpsk) {
    if (symbols < kPilotSymbols) {
      throw std::invalid_argument("IqChain: BPSK frame shorter than pilot");
    }
    // Matched filter per symbol (rectangular pulse = mean).
    std::vector<std::complex<double>> y(symbols);
    for (std::size_t s = 0; s < symbols; ++s) {
      std::complex<double> acc{0.0, 0.0};
      for (unsigned k = 0; k < n; ++k) acc += samples[s * n + k];
      y[s] = acc;
    }
    // Pilot-aided phase estimate over the all-ones prefix.
    std::complex<double> pilot{0.0, 0.0};
    for (std::size_t s = 0; s < kPilotSymbols; ++s) pilot += y[s];
    const double theta = std::arg(pilot);
    if (estimated_phase_rad) *estimated_phase_rad = theta;
    const std::complex<double> derotate = std::polar(1.0, -theta);
    for (std::size_t s = kPilotSymbols; s < symbols; ++s) {
      bits.push_back((y[s] * derotate).real() > 0.0 ? 1 : 0);
    }
  } else {
    // Non-coherent orthogonal BFSK: tone-correlation magnitudes.
    for (std::size_t s = 0; s < symbols; ++s) {
      std::complex<double> y0{0.0, 0.0}, y1{0.0, 0.0};
      for (unsigned k = 0; k < n; ++k) {
        const double t = static_cast<double>(k) / n;
        const auto r = samples[s * n + k];
        y0 += r * std::polar(1.0, -2.0 * std::numbers::pi *
                                      config_.fsk_cycles_low * t);
        y1 += r * std::polar(1.0, -2.0 * std::numbers::pi *
                                      config_.fsk_cycles_high * t);
      }
      bits.push_back(std::abs(y1) > std::abs(y0) ? 1 : 0);
    }
    if (estimated_phase_rad) *estimated_phase_rad = 0.0;
  }
  return bits;
}

IqChainResult IqChain::simulate(double snr_per_bit, std::size_t bits,
                                std::uint64_t seed) const {
  if (bits == 0) throw std::invalid_argument("IqChain: no bits");
  if (snr_per_bit < 0.0) throw std::invalid_argument("IqChain: bad SNR");
  util::Rng rng(seed ^ 0x2545F4914F6CDD1Dull);

  const bool bpsk = config_.modulation == IqChainConfig::Modulation::Bpsk;
  std::vector<std::uint8_t> tx(bits);
  for (auto& bit : tx) bit = rng.bernoulli(0.5) ? 1 : 0;

  auto wave = modulate(tx);
  const unsigned n = config_.samples_per_symbol;
  // Per-bit SNR: matched-filter statistic has signal N*A, complex noise
  // with variance N per dimension (sigma = 1 per sample dimension) ->
  // gamma = N A^2 / 2, so A = sqrt(2 gamma / N).
  const double a = std::sqrt(2.0 * snr_per_bit / static_cast<double>(n));
  for (std::size_t k = 0; k < wave.size(); ++k) {
    const double cfo_phase = 2.0 * std::numbers::pi *
                             config_.cfo_cycles_per_symbol *
                             static_cast<double>(k) / n;
    wave[k] = wave[k] * std::polar(a, config_.channel_phase_rad + cfo_phase) +
              std::complex<double>{rng.gaussian(), rng.gaussian()};
  }

  IqChainResult result;
  const auto rx = demodulate(wave, &result.estimated_phase_rad);
  result.bits = bits;
  for (std::size_t i = 0; i < bits; ++i) {
    if ((rx[i] != 0) != (tx[i] != 0)) ++result.errors;
  }
  result.measured_ber =
      static_cast<double>(result.errors) / static_cast<double>(bits);
  result.analytic_ber = bit_error_rate(
      bpsk ? BerModel::CoherentBpsk : BerModel::NoncoherentFsk, snr_per_bit);
  return result;
}

}  // namespace braidio::phy
