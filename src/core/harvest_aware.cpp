#include "core/harvest_aware.hpp"

#include "rf/pathloss.hpp"
#include "util/units.hpp"

namespace braidio::core {

double harvested_power_w(const HarvestAwareConfig& config,
                         double distance_m) {
  const circuits::Harvester harvester(config.harvester);
  const double incident_dbm =
      config.carrier_dbm +
      util::linear_to_db(rf::friis_gain(distance_m, config.freq_hz, 0.0,
                                        config.antenna_gain_dbi));
  return config.duty_efficiency * harvester.harvested_watts(incident_dbm);
}

double tag_break_even_distance_m(const RegimeMap& map, phy::Bitrate rate,
                                 const HarvestAwareConfig& config) {
  const auto& tag = map.candidate(phy::LinkMode::Backscatter, rate);
  // harvested power decreases monotonically with distance; bisect where it
  // crosses the tag draw, bounded by the link's own operating range.
  const double range =
      map.channel().range_m(phy::LinkMode::Backscatter, rate);
  if (range <= 0.0) return 0.0;
  auto neutral = [&](double d) {
    return harvested_power_w(config, d) >= tag.tx_power_w;
  };
  if (!neutral(0.05)) return 0.0;
  if (neutral(range)) return range;
  double lo = 0.05, hi = range;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (neutral(mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace braidio::core
