// Calibrated per-mode link budgets: the quantitative heart of Figs. 12-14.
//
// Physics by mode:
//  * Active: one-way Friis path (~d^-2), coherent FSK demodulation.
//  * Passive-RX: the data transmitter's carrier *is* the signal (OOK); one-
//    way Friis path, non-coherent envelope detection.
//  * Backscatter: carrier travels receiver->tag, reflection tag->receiver;
//    radar-equation round trip (~d^-4). The receiver's own carrier is a
//    strong background at the envelope detector, which linearizes detection:
//    the envelope moves by ~ +/- A cos(theta) as the tag toggles, i.e.
//    antipodal signaling with the phase-cancellation factor cos(theta)
//    (Sec. 3.2) — antenna diversity keeps cos(theta) near 1.
//
// Sensitivity: the passive chain is comparator/amplifier-limited, not
// kTB-limited, and the paper characterises it only via measured BER-vs-
// distance curves (Fig. 13). We therefore *calibrate* one effective noise
// floor per (mode, bitrate) so that the BER-threshold crossing lands exactly
// on the published operating range, and let the propagation exponents give
// the curve its shape — the same "characterize, then simulate" method the
// paper uses in Sec. 6.
#pragma once

#include <limits>
#include <optional>

#include "hal/channel_model.hpp"
#include "phy/ber.hpp"
#include "phy/link_mode.hpp"

namespace braidio::phy {

struct LinkBudgetConfig {
  double freq_hz = 915e6;
  double carrier_tx_dbm = 13.0;  // SI4432 carrier emitter (Table 4)
  double active_tx_dbm = 4.0;    // active radio transmit level
  double antenna_gain_dbi = -0.5;
  double backscatter_modulation_loss_db = 6.0;
  /// Residual phase-cancellation loss after diversity selection [dB].
  double diversity_residual_loss_db = 1.0;
  /// BER defining "operational range" (Fig. 13 uses BER < 0.01).
  double ber_threshold = 0.01;

  /// Calibration anchors: measured operating range [m] at the BER threshold
  /// (paper Fig. 13; active-mode range exceeds the 6 m test room, anchored
  /// at a BLE-class 25 m).
  double backscatter_range_1m_bps = 0.9;
  double backscatter_range_100k = 1.8;
  double backscatter_range_10k = 2.4;
  double passive_range_1m_bps = 3.9;
  double passive_range_100k = 4.2;
  double passive_range_10k = 5.1;
  double active_range = 25.0;
};

/// Concurrency contract: the calibrated noise floors are computed once in
/// the constructor; every public method is const over immutable state, so
/// one LinkBudget may be shared by concurrent sweep workers (audited for
/// the sim engine).
///
/// This is the canonical hal::ChannelModel implementation — the braidio
/// backend exposes it directly, and other backends (reader-passive)
/// delegate to it with their own configs rather than duplicating the
/// propagation/BER math.
class LinkBudget : public hal::ChannelModel {
 public:
  explicit LinkBudget(LinkBudgetConfig config = {});

  /// Relative half-width of available()'s distance bracket around each
  /// calibration anchor.
  static constexpr double kAnchorBracket = 1e-5;

  /// Demodulator statistics used for a mode.
  static BerModel ber_model(LinkMode mode);

  /// Received signal power [dBm] at the detector for a separation `d`.
  double received_power_dbm(LinkMode mode, double distance_m) const;

  /// Calibrated effective noise floor [dBm] for (mode, bitrate).
  double noise_floor_dbm(LinkMode mode, Bitrate rate) const;

  /// Per-bit SNR (linear / dB) at distance d.
  double snr(LinkMode mode, Bitrate rate, double distance_m) const;
  double snr_db(LinkMode mode, Bitrate rate,
                double distance_m) const override;

  /// BER the mode's demodulator produces at a given per-bit SNR [dB].
  double ber_from_snr_db(LinkMode mode, double snr_db) const override;

  /// Analytic bit error rate at distance d.
  double ber(LinkMode mode, Bitrate rate, double distance_m) const;

  /// Operating range [m]: distance where BER hits the configured threshold.
  double range_m(LinkMode mode, Bitrate rate) const override;

  /// True when (mode, bitrate) meets the BER threshold at distance d:
  /// exactly `ber(mode, rate, d) <= config().ber_threshold`, cheapest
  /// test first (DESIGN.md §14 has the argument).
  ///  * 0 <= d below the anchor's inner bracket edge, a(1 - kAnchorBracket),
  ///    answers true and d past its outer edge, a(1 + kAnchorBracket),
  ///    false. The constructor keeps a bracket only if the SNR margin is
  ///    above twice the guard band at the inner edge and below minus twice
  ///    it at the outer one; received power never rises with distance, so
  ///    every d beyond an edge is on that edge's side of the band. An
  ///    anchor inside the 0.05 m distance clamp keeps no bracket. NaN and
  ///    negative distances go on and throw as before; infinity answers
  ///    false at a kept bracket.
  ///  * An SNR more than a 1e-6 dB guard band above (below) the mode's
  ///    threshold SNR, solved once by the constructor, answers true
  ///    (false): BER falls with SNR, and across the band it moves ~1e-6
  ///    (relative), six orders of magnitude more than its rounding and
  ///    series-truncation error.
  ///  * Inside the band, where every calibration anchor lies, the BER
  ///    itself decides.
  bool available(LinkMode mode, Bitrate rate,
                 double distance_m) const override;

  /// Highest bitrate meeting the BER threshold at d, if any.
  std::optional<Bitrate> best_bitrate(LinkMode mode,
                                      double distance_m) const override;

  const LinkBudgetConfig& config() const { return config_; }

 private:
  static std::size_t index(LinkMode mode, Bitrate rate);
  double anchor_range(LinkMode mode, Bitrate rate) const;

  /// available()'s shortcut distances [m] for one (mode, bitrate): true
  /// for 0 <= d < inner_m, false for d > outer_m. The default never
  /// answers, for a bracket whose margins failed the constructor's check.
  struct Bracket {
    double inner_m = 0.0;
    double outer_m = std::numeric_limits<double>::infinity();
  };

  LinkBudgetConfig config_;
  double floors_dbm_[9] = {};  // calibrated per (mode, bitrate)
  double threshold_snr_db_[3] = {};  // SNR at ber_threshold, per mode
  Bracket brackets_[9] = {};  // per (mode, bitrate)
};

}  // namespace braidio::phy
