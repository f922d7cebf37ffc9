// Hysteresis comparator (TS881/NCS2200-class nanopower part).
//
// Converts the amplified baseband waveform into a bit stream. The minimum
// overdrive (a few mV, Sec. 3.2) is what ultimately limits the passive
// receiver's sensitivity to ~-40 dBm before amplification.
#pragma once

namespace braidio::circuits {

struct ComparatorConfig {
  double threshold_volts = 0.0;    // decision level
  double hysteresis_volts = 2e-3;  // total window width
  double min_overdrive_volts = 2e-3;  // input must exceed this beyond the
                                      // window edge to guarantee a flip
  double supply_current_amps = 210e-9;  // TS881-class quiescent draw
  double supply_volts = 1.8;
};

class Comparator {
 public:
  explicit Comparator(ComparatorConfig config = {});

  /// Evaluate one sample; returns the (possibly unchanged) output state.
  bool step(double input_volts);

  /// Static power draw [W].
  double power_watts() const;

  bool output() const { return state_; }
  void reset(bool state = false) { state_ = state; }

  const ComparatorConfig& config() const { return config_; }

 private:
  ComparatorConfig config_;
  bool state_ = false;
};

}  // namespace braidio::circuits
