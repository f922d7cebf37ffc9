// Instrumentation amplifier (INA2331-class, Table 4).
//
// Sits between the charge pump and the comparator (Sec. 3.2, "Improving
// sensitivity via instrumental amplifier"). The model carries the part's
// datasheet numbers; the Table 3 bench reads its supply power.
#pragma once

namespace braidio::circuits {

struct InstAmpConfig {
  double gain = 100.0;                 // nominal closed-loop gain
  double input_resistance_ohms = 1e10; // CMOS input
  double input_capacitance_farads = 1.8e-12;  // INA2331 datasheet
  double gain_bandwidth_hz = 2e6;
  double supply_current_amps = 415e-6;  // dual amp, typical
  double supply_volts = 3.0;
};

class InstAmp {
 public:
  explicit InstAmp(InstAmpConfig config = {});

  /// Static power draw [W].
  double power_watts() const;

  const InstAmpConfig& config() const { return config_; }

 private:
  InstAmpConfig config_;
};

}  // namespace braidio::circuits
