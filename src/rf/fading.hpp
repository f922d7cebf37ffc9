// Small-scale fading: a coherent (Gauss-Markov) complex channel process.
//
// The packet channel's block fading evolves one such process by the
// airtime between frames, so a data frame and its ACK see nearly the same
// fade (mac/packet_channel.hpp). Its millisecond coherence follows
// Sec. 3.1 (citing full-duplex measurements): the same slow drift is why
// the backscatter receiver can high-pass its self-interference away
// (circuits/envelope_detector.hpp).
#pragma once

#include <complex>

#include "util/rng.hpp"

namespace braidio::rf {

/// First-order Gauss-Markov complex channel process:
/// h[n+1] = rho * h[n] + sqrt(1 - rho^2) * w,  w ~ CN(0, sigma^2),
/// with rho chosen from the coherence time and sampling interval. Models the
/// slowly-drifting self-interference channel that the charge-pump receiver
/// must reject via high-pass filtering.
class CoherentChannelProcess {
 public:
  /// coherence_time_s: time over which the channel decorrelates to ~1/e.
  /// sample_interval_s: simulation step. mean: static (LoS) component.
  CoherentChannelProcess(double coherence_time_s, double sample_interval_s,
                         std::complex<double> mean, double scatter_stddev,
                         util::Rng rng);

  /// Advance one sample interval and return the new channel gain.
  std::complex<double> step();

  /// Advance by an arbitrary (possibly zero) elapsed time, with the
  /// correlation computed as exp(-dt/tau) for this step. Lets event-driven
  /// consumers (the packet channel) evolve the fade by exactly the airtime
  /// between transmissions instead of a fixed sampling grid — a data frame
  /// and its ACK 150 us apart see an almost-identical channel while
  /// packets seconds apart decorrelate fully.
  std::complex<double> advance(double dt_s);

  /// Replace the scatter component with a draw from its stationary
  /// distribution CN(0, sigma^2). Without this the process starts at the
  /// (deterministic) mean and only reaches Rayleigh statistics after a few
  /// coherence times.
  void reset_stationary();

  std::complex<double> current() const { return mean_ + scatter_; }

  double rho() const { return rho_; }
  double coherence_time_s() const { return coherence_time_s_; }

 private:
  std::complex<double> mean_;
  std::complex<double> scatter_{0.0, 0.0};
  double rho_;
  double stddev_;
  double coherence_time_s_;
  util::Rng rng_;
};

}  // namespace braidio::rf
