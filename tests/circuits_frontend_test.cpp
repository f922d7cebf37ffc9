#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/comparator.hpp"
#include "circuits/envelope_detector.hpp"
#include "circuits/inst_amp.hpp"

namespace braidio::circuits {
namespace {

// ---------- EnvelopeDetector ----------

TEST(EnvelopeDetector, RejectsBadConfig) {
  EnvelopeDetectorConfig bad;
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW(EnvelopeDetector{bad}, std::invalid_argument);
  EnvelopeDetectorConfig inverted;
  inverted.highpass_corner_hz = 1e7;  // above the lowpass corner
  EXPECT_THROW(EnvelopeDetector{inverted}, std::invalid_argument);
}

TEST(EnvelopeDetector, StripsDcBackground) {
  // A constant (self-interference) level must decay to ~0 at the output:
  // the core of the passive self-interference cancellation idea.
  EnvelopeDetector det;
  double out = 0.0;
  const int settle = static_cast<int>(det.config().sample_rate_hz /
                                      det.config().highpass_corner_hz) * 8;
  for (int i = 0; i < settle; ++i) out = det.step(0.5);
  EXPECT_NEAR(out, 0.0, 1e-3);
}

TEST(EnvelopeDetector, PassesDataBandSquareWave) {
  // A 100 kHz on-off envelope (above the HP corner, below the LP corner)
  // should come through with healthy swing.
  EnvelopeDetectorConfig cfg;
  cfg.boost = 1.0;
  cfg.diode_drop_volts = 0.0;
  cfg.sample_rate_hz = 40e6;
  EnvelopeDetector det(cfg);
  // Settle the high-pass on the 50% duty midline first.
  const int period = 400;  // samples per cycle at 100 kHz
  double hi = -1e9, lo = 1e9;
  for (int i = 0; i < 400 * period; ++i) {
    const double x = (i / (period / 2)) % 2 ? 1.0 : 0.0;
    const double y = det.step(x);
    if (i > 350 * period) {
      hi = std::max(hi, y);
      lo = std::min(lo, y);
    }
  }
  EXPECT_GT(hi - lo, 0.8);  // most of the unit swing survives
  EXPECT_NEAR(hi + lo, 0.0, 0.2);  // centered on zero after HP
}

TEST(EnvelopeDetector, RectifiesNegativeInputs) {
  EnvelopeDetectorConfig cfg;
  cfg.boost = 2.0;
  cfg.diode_drop_volts = 0.0;
  EnvelopeDetector a(cfg), b(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.step(0.3), b.step(-0.3));
  }
}

TEST(EnvelopeDetector, DiodeDropCreatesDeadZone) {
  EnvelopeDetectorConfig cfg;
  cfg.boost = 2.0;
  cfg.diode_drop_volts = 0.15;
  EnvelopeDetector det(cfg);
  // Inputs below drop/boost never charge the low-pass state.
  double out = 0.0;
  for (int i = 0; i < 1000; ++i) out = det.step(0.05);
  EXPECT_DOUBLE_EQ(out, 0.0);
}

TEST(EnvelopeDetector, ProcessMatchesStepLoop) {
  EnvelopeDetector a, b;
  std::vector<double> wave;
  for (int i = 0; i < 64; ++i) {
    wave.push_back(i % 8 < 4 ? 1.0 : 0.2);
  }
  const auto batch = a.process(wave);
  ASSERT_EQ(batch.size(), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], b.step(wave[i]));
  }
}

// ---------- Comparator ----------

TEST(Comparator, ThresholdWithHysteresis) {
  ComparatorConfig cfg;
  cfg.threshold_volts = 0.0;
  cfg.hysteresis_volts = 0.2;
  cfg.min_overdrive_volts = 0.0;
  Comparator cmp(cfg);
  EXPECT_FALSE(cmp.step(0.05));   // inside the window: hold low
  EXPECT_TRUE(cmp.step(0.15));    // above +0.1: flip high
  EXPECT_TRUE(cmp.step(-0.05));   // inside the window: hold high
  EXPECT_FALSE(cmp.step(-0.15));  // below -0.1: flip low
}

TEST(Comparator, MinOverdriveWidensWindow) {
  ComparatorConfig cfg;
  cfg.hysteresis_volts = 0.0;
  cfg.min_overdrive_volts = 2e-3;
  Comparator cmp(cfg);
  EXPECT_FALSE(cmp.step(1e-3));  // sub-overdrive input cannot flip it
  EXPECT_TRUE(cmp.step(3e-3));
}

TEST(Comparator, NanopowerBudget) {
  Comparator cmp;
  // TS881-class: sub-uW quiescent (Sec. 3.2 sensitivity chain budget).
  EXPECT_LT(cmp.power_watts(), 1e-6);
  EXPECT_GT(cmp.power_watts(), 0.0);
}

TEST(Comparator, ProcessAndReset) {
  Comparator cmp;
  EXPECT_TRUE(cmp.step(1.0));
  EXPECT_FALSE(cmp.step(-1.0));
  cmp.reset(true);
  EXPECT_TRUE(cmp.output());
  ComparatorConfig bad;
  bad.hysteresis_volts = -1.0;
  EXPECT_THROW(Comparator{bad}, std::invalid_argument);
}

// ---------- InstAmp ----------

TEST(InstAmp, PowerBudgetIsMilliwattClass) {
  InstAmp amp;
  EXPECT_GT(amp.power_watts(), 1e-4);
  EXPECT_LT(amp.power_watts(), 5e-3);
  InstAmpConfig bad;
  bad.gain = 0.0;
  EXPECT_THROW(InstAmp{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace braidio::circuits
