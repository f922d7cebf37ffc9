// Commercial UHF RFID reader models (Table 2 and the Fig. 12 baseline).
//
// Readers buy sensitivity with power: isolation hardware, RF cancellation,
// and Zero-IF downconversion (Sec. 2.2). The paper's comparison baseline is
// the AS3993 "Fermi" — the lowest-power commercial reader they found —
// whose coherent IQ receiver reaches 3 m at 100 kbps while drawing 640 mW,
// vs Braidio's 1.8 m at 129 mW (Fig. 12).
#pragma once

#include <string>
#include <vector>

#include "phy/link_budget.hpp"

namespace braidio::baseline {

struct ReaderSpec {
  std::string name;
  double total_power_w;       // at the quoted TX level
  double tx_power_dbm;        // carrier output
  double rx_power_w;          // estimated receive-path share
  double cost_usd;
};

/// Table 2: AS3993, AS3992, R2000, R1000, M6e, M6e-micro.
const std::vector<ReaderSpec>& reader_table();

/// BER-vs-distance model of the AS3993-class reader for Fig. 12: coherent
/// IQ demodulation over the radar-equation backscatter path, calibrated so
/// the 1% BER crossing sits at the paper's 3 m (at 100 kbps).
///
/// The propagation/BER math is not duplicated here: the model maps its
/// antenna/carrier/anchor parameters onto a phy::LinkBudget (backscatter
/// path at 100 kbps) and delegates, so reader curves and Braidio curves
/// come from the same calibrated physics. The mapping is exact — the
/// regression test pins the Fig. 12 curve values.
class CommercialReaderModel {
 public:
  struct Config {
    ReaderSpec spec = {"AS3993", 0.64, 17.0, 0.25, 397.0};
    double freq_hz = 915e6;
    double antenna_gain_dbi = 2.0;  // proper external antenna, not a chip
    double tag_gain_dbi = 0.0;      // the tag keeps its chip antenna
    double modulation_loss_db = 6.0;
    double ber_threshold = 0.01;
    double range_100k_m = 3.0;  // Fig. 12 anchor
  };

  CommercialReaderModel() : CommercialReaderModel(Config{}) {}
  explicit CommercialReaderModel(Config config);

  double ber(double distance_m) const;
  double range_m() const;
  double power_watts() const { return config_.spec.total_power_w; }

  /// Energy efficiency advantage of a competing design drawing
  /// `other_power_w` for the same task (the paper's "about 5x").
  double efficiency_ratio_vs(double other_power_w) const;

  const Config& config() const { return config_; }

  /// The shared link budget this model delegates to (backscatter mode,
  /// 100 kbps). The reader-passive backend exposes it as its ChannelModel.
  const phy::LinkBudget& link_budget() const { return budget_; }

 private:
  Config config_;
  phy::LinkBudget budget_;
};

}  // namespace braidio::baseline
