// SAW filter model (SF2049E-class part, Table 4).
//
// The envelope detector has no frequency selectivity of its own (Sec. 3.2,
// "Frequency selectivity"); the SAW filter in front of it is what keeps a
// cellphone or WiFi router from triggering the detector. The model is a
// piecewise attenuation mask: ~0 dB insertion loss in-band, the datasheet
// suppression numbers out of band.
#pragma once

namespace braidio::rf {

struct SawFilterSpec {
  double passband_low_hz = 902e6;
  double passband_high_hz = 928e6;
  double insertion_loss_db = 1.5;       // in-band
  double suppression_800_db = 50.0;     // at the 800 MHz cellular band
  double suppression_2g4_db = 30.0;     // at the 2.4 GHz ISM band
  double suppression_default_db = 35.0; // elsewhere out of band
  double transition_width_hz = 10e6;    // skirt width at the band edges
};

class SawFilter {
 public:
  explicit SawFilter(SawFilterSpec spec = {});

  /// Attenuation [dB, >= 0] applied to a signal at `freq_hz`, with linear
  /// skirts across the transition regions.
  double attenuation_db(double freq_hz) const;

  bool in_band(double freq_hz) const;

  const SawFilterSpec& spec() const { return spec_; }

 private:
  double stopband_db(double freq_hz) const;
  SawFilterSpec spec_;
};

}  // namespace braidio::rf
