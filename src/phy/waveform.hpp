// Monte-Carlo waveform simulation of the passive receive chain.
//
// Two purposes:
//  * cross-validate the analytic BER models (ideal detection path), and
//  * exercise the actual circuit chain end-to-end (envelope detector with
//    high-pass self-interference rejection, comparator with hysteresis,
//    Manchester line coding) the way the hardware would see bits.
//
// The simulation runs in the complex-envelope (baseband) domain: each
// sample is r = B + s*V + n, where B is the static background (carrier
// self-interference at the backscatter receiver; zero in passive-RX mode),
// s encodes the transmitted symbol, V the signal vector at the detector,
// and n complex white Gaussian noise.
#pragma once

#include <cstdint>

#include "phy/link_budget.hpp"
#include "phy/link_mode.hpp"

namespace braidio::phy {

struct WaveformSimConfig {
  LinkMode mode = LinkMode::Backscatter;
  Bitrate rate = Bitrate::k100;
  double distance_m = 0.5;
  std::size_t bits = 20'000;
  unsigned samples_per_bit = 8;
  std::uint64_t seed = 1;

  /// Ideal path: midpoint threshold on the raw envelope (validates the
  /// analytic model). Circuit path: EnvelopeDetector + Comparator +
  /// Manchester coding (validates the actual receive chain).
  bool use_circuit_chain = false;

  /// Backscatter only: self-interference-to-signal amplitude ratio at the
  /// detector (the local carrier is orders of magnitude stronger than the
  /// reflection).
  double background_to_signal = 100.0;
  /// Backscatter only: angle between signal and background vectors
  /// [radians]; pi/2 is a phase-cancellation null (Fig. 4a).
  double cancellation_angle_rad = 0.0;
};

struct WaveformSimResult {
  std::size_t bits_simulated = 0;
  std::size_t bit_errors = 0;
  double measured_ber = 0.0;
  double analytic_ber = 0.0;
};

/// Run the Monte-Carlo chain against a calibrated link budget.
///
/// Reentrant: all simulation state (RNG, detector, comparator, buffers) is
/// local and seeded from `config.seed`, so concurrent calls with distinct
/// configs are race-free — sweep benches run one call per grid point on
/// the sim engine's sweep threads, seeding each from the point's child
/// stream (`SweepPoint::seed()`).
WaveformSimResult simulate_waveform(const LinkBudget& budget,
                                    const WaveformSimConfig& config);

}  // namespace braidio::phy
