#include "net/medium.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contract.hpp"
#include "util/units.hpp"

namespace braidio::net {

namespace {
/// Distances below this are clamped before the log — the log-distance
/// model diverges at 0 and colocated nodes are a topology artifact.
constexpr double kMinDistanceM = 0.01;
constexpr double kMinD2 = kMinDistanceM * kMinDistanceM;

/// Relative margin between a bound and the threshold before the bound
/// decides the verdict. The exact ambient power differs from a bound's
/// sum only by the bucket's gain spread and by rounding (~1e-15 for a
/// few hundred terms, pow and log10 at 1 ulp), so 1e-9 keeps every
/// bracketed verdict equal to the exact compare.
constexpr double kVerdictMargin = 1e-9;
}  // namespace

SharedMedium::SharedMedium(MediumConfig config,
                           const std::vector<Vec2>& positions)
    : config_(config), positions_(positions) {
  if (!std::isfinite(config_.noise_floor_dbm) ||
      !std::isfinite(config_.tx_power_dbm) ||
      !std::isfinite(config_.ref_loss_db)) {
    throw std::invalid_argument("net::SharedMedium: non-finite config");
  }
  if (!(config_.path_loss_exponent > 0.0) ||
      !std::isfinite(config_.path_loss_exponent)) {
    throw std::invalid_argument(
        "net::SharedMedium: path_loss_exponent must be finite and > 0");
  }
  noise_floor_w_ = util::dbm_to_watts(config_.noise_floor_dbm);
  ref_gain_ = std::pow(10.0, -config_.ref_loss_db / 10.0);
}

void SharedMedium::begin(std::uint32_t tx, std::uint32_t rx,
                         double /*until_s*/, double power_dbm) {
  BRAIDIO_REQUIRE(tx < positions_.size() && rx < positions_.size(), "tx",
                  tx, "rx", rx, "nodes", positions_.size());
  BRAIDIO_REQUIRE(std::isfinite(power_dbm), "power_dbm", power_dbm);
  if (power_dbm != power_gain_[0].power_dbm) {
    if (power_dbm == power_gain_[1].power_dbm) {
      std::swap(power_gain_[0], power_gain_[1]);
    } else {
      power_gain_[1] = power_gain_[0];
      power_gain_[0] = {power_dbm, util::dbm_to_watts(power_dbm) * ref_gain_};
    }
  }
  active_.push_back(
      {tx, kNoNode, positions_[tx], power_gain_[0].gain_w, 0.0});
}

void SharedMedium::end(std::uint32_t tx) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [tx](const ActiveTx& a) { return a.tx == tx; });
  BRAIDIO_REQUIRE(it != active_.end(), "tx", tx);
  active_.erase(it);  // order-preserving: later sums stay deterministic
}

double SharedMedium::path_loss_db(double distance_m) const {
  const double d = std::max(distance_m, kMinDistanceM);
  return config_.ref_loss_db +
         10.0 * config_.path_loss_exponent * std::log10(d);
}

double SharedMedium::interference_watts(std::uint32_t node,
                                        std::uint32_t exclude_tx,
                                        bool remember) const {
  BRAIDIO_REQUIRE(node < positions_.size(), "node", node, "nodes",
                  positions_.size());
  // The exact sum (twice per transmission, and for the CCA verdicts the
  // gain table cannot settle): the log-distance loss is applied in
  // linear form,
  //   rx_w = tx_w * 10^(-ref/10) * d^(-n) = gain_w * (d^2)^(-n/2),
  // so each interferer costs one pow on the squared distance — no sqrt,
  // no log10, no second pow through dBm and back — and none when it
  // remembers this receiver. A remembered term is the same product, added
  // in the same order, so the sum keeps its bits.
  const Vec2& at = positions_[node];
  const double half_exponent = -0.5 * config_.path_loss_exponent;
  double total_w = 0.0;
  for (const ActiveTx& a : active_) {
    if (a.tx == exclude_tx || a.tx == node) continue;
    if (a.memo_node == node) {
      total_w += a.memo_w;
      continue;
    }
    const double dx = a.at.x_m - at.x_m;
    const double dy = a.at.y_m - at.y_m;
    const double d2 = std::max(dx * dx + dy * dy, kMinD2);
    const double rx_w = a.gain_w * std::pow(d2, half_exponent);
    if (remember) {
      a.memo_node = node;
      a.memo_w = rx_w;
    }
    total_w += rx_w;
  }
  return total_w;
}

double SharedMedium::ambient_dbm(std::uint32_t node,
                                 std::uint32_t exclude_tx) const {
  const double total_w =
      noise_floor_w_ + interference_watts(node, exclude_tx, false);
  return util::watts_to_dbm(total_w);
}

bool SharedMedium::ambient_below(std::uint32_t node,
                                 std::uint32_t exclude_tx,
                                 double threshold_dbm) {
  BRAIDIO_REQUIRE(node < positions_.size(), "node", node, "nodes",
                  positions_.size());
  if (!edge_gain_ready_) {
    edge_gain_ready_ = true;
    const double half_exponent = -0.5 * config_.path_loss_exponent;
    for (std::uint64_t k = 0; k <= kBuckets; ++k) {
      const double edge =
          std::bit_cast<double>((kFirstBucket + k) << kBucketShift);
      edge_gain_[k] = std::pow(edge, half_exponent);
    }
  }
  if (threshold_dbm != threshold_dbm_) {
    threshold_dbm_ = threshold_dbm;
    const double threshold_w = util::dbm_to_watts(threshold_dbm);
    busy_w_ = threshold_w * (1.0 + kVerdictMargin);
    clear_w_ = threshold_w * (1.0 - kVerdictMargin);
  }
  // Every term is >= 0, so the running lower bound only grows: the
  // channel is busy as soon as it reaches the threshold. Clear needs the
  // whole upper bound. A squared distance past the table, or bounds that
  // straddle the threshold, fall back to the exact compare.
  const Vec2& at = positions_[node];
  double lower_w = noise_floor_w_;
  double upper_w = noise_floor_w_;
  for (const ActiveTx& a : active_) {
    if (a.tx == exclude_tx || a.tx == node) continue;
    const double dx = a.at.x_m - at.x_m;
    const double dy = a.at.y_m - at.y_m;
    const double d2 = std::max(dx * dx + dy * dy, kMinD2);
    const std::uint64_t k =
        (std::bit_cast<std::uint64_t>(d2) >> kBucketShift) - kFirstBucket;
    if (k >= kBuckets) {
      return ambient_dbm(node, exclude_tx) < threshold_dbm;
    }
    // (d^2)^(-n/2) falls with d^2: the far edge bounds it from below.
    lower_w += a.gain_w * edge_gain_[k + 1];
    if (lower_w >= busy_w_) return false;
    upper_w += a.gain_w * edge_gain_[k];
  }
  if (upper_w < clear_w_) return true;
  return ambient_dbm(node, exclude_tx) < threshold_dbm;
}

double SharedMedium::interference_penalty_db(
    std::uint32_t rx, std::uint32_t exclude_tx) const {
  const double i_w = interference_watts(rx, exclude_tx, true);
  if (i_w <= 0.0) return 0.0;
  return util::linear_to_db(1.0 + i_w / noise_floor_w_);
}

}  // namespace braidio::net
