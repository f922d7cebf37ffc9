#include "phy/link_budget.hpp"

#include <cmath>
#include <stdexcept>

#include "rf/pathloss.hpp"
#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::phy {

namespace {
// Guard band [dB] around each mode's threshold SNR inside which available()
// evaluates the BER (link_budget.hpp says why the shortcut is exact). A
// distance bracket's edges must clear twice the band.
constexpr double kThresholdGuardDb = 1e-6;
}  // namespace

LinkBudget::LinkBudget(LinkBudgetConfig config) : config_(config) {
  if (!(config_.ber_threshold > 0.0) || !(config_.ber_threshold < 0.5)) {
    throw std::invalid_argument("LinkBudget: ber_threshold out of (0, 0.5)");
  }
  BRAIDIO_REQUIRE(std::isfinite(config_.freq_hz) && config_.freq_hz > 0.0,
                  "freq_hz", config_.freq_hz);
  util::contract::check_power_dbm_range(config_.active_tx_dbm,
                                        "LinkBudget::active_tx_dbm");
  util::contract::check_power_dbm_range(config_.carrier_tx_dbm,
                                        "LinkBudget::carrier_tx_dbm");
  // Calibrate: the effective noise floor is whatever makes the BER threshold
  // land on the anchored operating range. Then bracket the anchor for
  // available(), if the SNR margin clears the guard band at both edges.
  for (LinkMode mode : kAllLinkModes) {
    const double need_db =
        required_snr_db(ber_model(mode), config_.ber_threshold);
    threshold_snr_db_[static_cast<std::size_t>(mode)] = need_db;
    for (Bitrate rate : kAllBitrates) {
      const std::size_t i = index(mode, rate);
      const double anchor = anchor_range(mode, rate);
      floors_dbm_[i] = received_power_dbm(mode, anchor) - need_db;
      const auto margin_db = [&](double d) {
        return received_power_dbm(mode, d) - floors_dbm_[i] - need_db;
      };
      const Bracket bracket{anchor * (1.0 - kAnchorBracket),
                            anchor * (1.0 + kAnchorBracket)};
      if (margin_db(bracket.inner_m) > 2.0 * kThresholdGuardDb &&
          margin_db(bracket.outer_m) < -2.0 * kThresholdGuardDb) {
        brackets_[i] = bracket;
      }
    }
  }
}

std::size_t LinkBudget::index(LinkMode mode, Bitrate rate) {
  return static_cast<std::size_t>(mode) * 3 + static_cast<std::size_t>(rate);
}

double LinkBudget::anchor_range(LinkMode mode, Bitrate rate) const {
  switch (mode) {
    case LinkMode::Active:
      return config_.active_range;
    case LinkMode::PassiveRx:
      switch (rate) {
        case Bitrate::M1: return config_.passive_range_1m_bps;
        case Bitrate::k100: return config_.passive_range_100k;
        case Bitrate::k10: return config_.passive_range_10k;
      }
      break;
    case LinkMode::Backscatter:
      switch (rate) {
        case Bitrate::M1: return config_.backscatter_range_1m_bps;
        case Bitrate::k100: return config_.backscatter_range_100k;
        case Bitrate::k10: return config_.backscatter_range_10k;
      }
      break;
  }
  throw std::logic_error("LinkBudget: unknown mode/rate");
}

BerModel LinkBudget::ber_model(LinkMode mode) {
  switch (mode) {
    case LinkMode::Active: return BerModel::CoherentFsk;
    case LinkMode::PassiveRx: return BerModel::NoncoherentOok;
    case LinkMode::Backscatter:
      // Strong local carrier linearizes envelope detection: antipodal.
      return BerModel::CoherentBpsk;
  }
  throw std::logic_error("LinkBudget: unknown mode");
}

double LinkBudget::received_power_dbm(LinkMode mode, double distance_m) const {
  if (distance_m < 0.0) {
    throw std::domain_error("received_power_dbm: negative distance");
  }
  const double g = config_.antenna_gain_dbi;
  switch (mode) {
    case LinkMode::Active: {
      const double gain =
          rf::friis_gain(distance_m, config_.freq_hz, g, g);
      return config_.active_tx_dbm + util::linear_to_db(gain);
    }
    case LinkMode::PassiveRx: {
      const double gain =
          rf::friis_gain(distance_m, config_.freq_hz, g, g);
      return config_.carrier_tx_dbm + util::linear_to_db(gain);
    }
    case LinkMode::Backscatter: {
      const double gain = rf::backscatter_gain(
          distance_m, config_.freq_hz, g, g,
          config_.backscatter_modulation_loss_db +
              config_.diversity_residual_loss_db);
      return config_.carrier_tx_dbm + util::linear_to_db(gain);
    }
  }
  throw std::logic_error("received_power_dbm: unknown mode");
}

double LinkBudget::noise_floor_dbm(LinkMode mode, Bitrate rate) const {
  return floors_dbm_[index(mode, rate)];
}

double LinkBudget::snr_db(LinkMode mode, Bitrate rate,
                          double distance_m) const {
  const double margin_db =
      received_power_dbm(mode, distance_m) - noise_floor_dbm(mode, rate);
  BRAIDIO_ENSURE(std::isfinite(margin_db), "snr_db", margin_db);
  return margin_db;
}

double LinkBudget::snr(LinkMode mode, Bitrate rate, double distance_m) const {
  return util::db_to_linear(snr_db(mode, rate, distance_m));
}

double LinkBudget::ber_from_snr_db(LinkMode mode, double snr_db) const {
  return bit_error_rate(ber_model(mode), util::db_to_linear(snr_db));
}

double LinkBudget::ber(LinkMode mode, Bitrate rate, double distance_m) const {
  return bit_error_rate(ber_model(mode), snr(mode, rate, distance_m));
}

double LinkBudget::range_m(LinkMode mode, Bitrate rate) const {
  // received power is non-increasing in distance; bisect the threshold
  // crossing. (By construction it lands on the calibration anchor.)
  double lo = 0.05, hi = 1000.0;
  if (ber(mode, rate, hi) <= config_.ber_threshold) return hi;
  if (ber(mode, rate, lo) > config_.ber_threshold) return 0.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (ber(mode, rate, mid) <= config_.ber_threshold) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

bool LinkBudget::available(LinkMode mode, Bitrate rate,
                           double distance_m) const {
  const Bracket& bracket = brackets_[index(mode, rate)];
  if (0.0 <= distance_m && distance_m < bracket.inner_m) return true;
  if (distance_m > bracket.outer_m) return false;
  const double margin_db =
      snr_db(mode, rate, distance_m) -
      threshold_snr_db_[static_cast<std::size_t>(mode)];
  if (margin_db > kThresholdGuardDb) return true;
  if (margin_db < -kThresholdGuardDb) return false;
  return ber(mode, rate, distance_m) <= config_.ber_threshold;
}

std::optional<Bitrate> LinkBudget::best_bitrate(LinkMode mode,
                                                double distance_m) const {
  for (Bitrate rate : {Bitrate::M1, Bitrate::k100, Bitrate::k10}) {
    if (available(mode, rate, distance_m)) return rate;
  }
  return std::nullopt;
}

}  // namespace braidio::phy
