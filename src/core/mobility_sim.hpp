// Mobility: carrier offload under a time-varying channel.
//
// Fig. 18 sweeps distance statically; real wearables move. This simulator
// drives the offload layer along a distance-vs-time trace: every replan
// interval it re-probes the link (which modes/bitrates survive at the
// current distance), replans with the *current* battery levels, and
// integrates energy and bits over the interval — the fluid-model version
// of the Sec. 4.2 dynamics ("Braidio also periodically re-computes the
// ratio of using different modes depending on observed dynamics").
// Each replan is plan::plan_link at the lifetime model's default dwell
// (DESIGN.md §5 compares the two); the amortized switch share is booked
// under the interval's dominant mode.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/lifetime_sim.hpp"
#include "energy/ledger.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace braidio::core {

/// Piecewise-linear distance trajectory.
class MobilityTrace {
 public:
  struct Waypoint {
    double time_s = 0.0;
    double distance_m = 0.0;
  };

  /// Waypoints must start at t = 0 and be strictly increasing in time.
  explicit MobilityTrace(std::vector<Waypoint> waypoints);

  /// Random waypoint walk: the user wanders between min and max distance
  /// at walking speed, changing direction at random dwell points.
  static MobilityTrace random_walk(double min_distance_m,
                                   double max_distance_m, double speed_mps,
                                   util::Seconds duration,
                                   std::uint64_t seed);

  /// Linear interpolation; clamped to the last waypoint beyond the end.
  double distance_at(util::Seconds time) const;

  double duration_s() const { return waypoints_.back().time_s; }
  const std::vector<Waypoint>& waypoints() const { return waypoints_; }

 private:
  std::vector<Waypoint> waypoints_;
};

struct MobilitySimConfig {
  util::WattHours e1{0.78};  // data transmitter battery
  util::WattHours e2{6.55};  // data receiver battery
  util::Seconds replan_interval{1.0};
  bool bidirectional = false;
};

struct MobilitySample {
  double time_s = 0.0;
  double distance_m = 0.0;
  Regime regime = Regime::C;
  std::string plan;
  double bits_so_far = 0.0;
  double device1_joules_used = 0.0;
  double device2_joules_used = 0.0;
  bool link_up = true;
};

struct MobilityOutcome {
  std::vector<MobilitySample> samples;
  double total_bits = 0.0;
  double device1_joules = 0.0;
  double device2_joules = 0.0;
  double bluetooth_bits = 0.0;       // same trace, Bluetooth radio
  double bluetooth_d1_joules = 0.0;  // Bluetooth drain at device 1
  double bluetooth_d2_joules = 0.0;  // Bluetooth drain at device 2
  std::uint64_t replans = 0;
  std::uint64_t plan_changes = 0;  // replans that picked a different braid

  /// Per-category accounting of every joule the braid drained (device1 +
  /// device2, one charge per device per replan interval, categorized by
  /// the interval's dominant mode). Sums exactly to device1_joules +
  /// device2_joules — the attribution-conservation invariant obs_test
  /// pins.
  energy::EnergyLedger ledger;

  /// Throughput ratio over the window. Finite traces are usually
  /// *time*-limited, where braiding can even trail Bluetooth (low-bitrate
  /// backscatter at distance) — throughput is what Braidio trades away.
  double throughput_ratio_vs_bluetooth() const {
    return bluetooth_bits > 0.0 ? total_bits / bluetooth_bits : 0.0;
  }

  /// What Braidio buys: energy per delivered bit at a device, relative to
  /// Bluetooth — i.e. how many times longer that device's battery lasts
  /// per bit moved. Device 1 is the data transmitter.
  double lifetime_gain_vs_bluetooth(int device = 1) const {
    const double braid_j = device == 1 ? device1_joules : device2_joules;
    const double bt_j =
        device == 1 ? bluetooth_d1_joules : bluetooth_d2_joules;
    if (total_bits <= 0.0 || bluetooth_bits <= 0.0 || braid_j <= 0.0) {
      return 0.0;
    }
    return (bt_j / bluetooth_bits) / (braid_j / total_bits);
  }
};

class MobilitySimulator {
 public:
  /// Any HAL backend. The backend must outlive the simulator.
  explicit MobilitySimulator(const hal::RadioBackend& backend);

  /// Run the trace to completion (or until a battery dies). Out-of-range
  /// stretches idle both radios (the paper: past the active range there is
  /// no link; energy drain drops to the sleep floor).
  MobilityOutcome run(const MobilityTrace& trace,
                      const MobilitySimConfig& config) const;

 private:
  RegimeMap regimes_;
};

}  // namespace braidio::core
