// Behavioural envelope detector: the baseband view of the passive receiver.
//
// The charge pump converts the RF envelope to a baseband voltage; what the
// comparator then sees is that voltage after (a) low-pass smoothing by the
// storage capacitance and (b) high-pass filtering that strips the DC/slow
// component contributed by carrier self-interference (Sec. 3.1: the
// self-interference channel's coherence time is milliseconds, so its energy
// sits below ~1 kHz and a high-pass corner above that removes it without
// touching the 10 kHz-1 MHz data band).
//
// This model operates on sampled envelope waveforms (amplitude vs time), so
// the PHY Monte-Carlo simulations can run millions of bits without paying
// for a full circuit solve per sample.
#pragma once

#include <vector>

namespace braidio::circuits {

struct EnvelopeDetectorConfig {
  double boost = 2.0;              // charge-pump voltage gain (2N ideal)
  double diode_drop_volts = 0.15;  // total conduction loss mapped to output
  double lowpass_corner_hz = 4e6;  // settles faster than the fastest bitrate
  double highpass_corner_hz = 2e3; // above the self-interference band
  double sample_rate_hz = 40e6;
};

class EnvelopeDetector {
 public:
  explicit EnvelopeDetector(EnvelopeDetectorConfig config = {});

  /// Process one envelope sample (volts at the antenna reference plane
  /// after SAW filtering); returns the comparator-input voltage.
  double step(double envelope_volts);

  /// Process a whole waveform.
  std::vector<double> process(const std::vector<double>& envelope);

  const EnvelopeDetectorConfig& config() const { return config_; }

 private:
  EnvelopeDetectorConfig config_;
  double lp_alpha_ = 0.0;  // one-pole low-pass coefficient
  double hp_alpha_ = 0.0;  // one-pole high-pass coefficient
  double lp_state_ = 0.0;
  double hp_prev_in_ = 0.0;
  double hp_state_ = 0.0;
  bool hp_primed_ = false;
};

}  // namespace braidio::circuits
