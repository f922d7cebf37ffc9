// Fluid lifetime simulation: total bits moved before the first battery
// dies, for Braidio (planned braid), Bluetooth, and each single mode.
//
// This is the simulator behind Figs. 15-18. Because a proportional plan
// keeps the two drain rates locked to the energy ratio, the ratio — and
// hence the plan — is invariant over the transfer, so lifetime reduces to
// bits = min(E1 / d1, E2 / d2) with (d1, d2) the planned per-bit drains.
// plan::plan_link amortizes Table 5 switching overheads over a configurable
// mode dwell (the paper: "switching overhead is negligible in all modes" —
// true for second-scale dwells; the ablation bench shows where that stops
// holding) and falls back to the best exclusive mode.
#pragma once

#include <string>
#include <vector>

#include "baseline/bluetooth.hpp"
#include "core/regimes.hpp"
#include "energy/device_catalog.hpp"
#include "plan/offload.hpp"
#include "util/units.hpp"

namespace braidio::core {

struct LifetimeConfig {
  double distance_m = 0.5;
  bool bidirectional = false;
  /// plan_link's dwell [bits] for the switch-in costs; kInfiniteDwell
  /// plans without them.
  double bits_per_dwell = plan::kDefaultBitsPerDwell;
};

struct LifetimeOutcome {
  double bits = 0.0;     // payload bits moved before first battery death
  double seconds = 0.0;  // transfer duration
  plan::OffloadPlan plan;
};

/// Concurrency contract: every public method is const and touches only
/// immutable state (the regime map and Bluetooth model are built in the
/// constructor and never mutated), so one simulator instance may be
/// shared by all sim-engine sweep workers. Audited for the sim engine;
/// keep new members const-initialized or re-audit.
class LifetimeSimulator {
 public:
  /// Any HAL backend (lattice + channel + overheads from its declared
  /// capability set). The backend must outlive the simulator.
  explicit LifetimeSimulator(const hal::RadioBackend& backend);

  /// Braidio with energy-aware carrier offload. `e1`/`e2` are the two
  /// devices' energy budgets (device 1 transmits the data).
  LifetimeOutcome braidio(util::Joules e1, util::Joules e2,
                          const LifetimeConfig& config) const;

  /// Bluetooth baseline (same traffic pattern).
  double bluetooth_bits(util::Joules e1, util::Joules e2,
                        bool bidirectional) const;

  /// Best single mode available at the configured distance (Fig. 16
  /// baseline).
  double best_single_mode_bits(util::Joules e1, util::Joules e2,
                               const LifetimeConfig& config) const;

  /// Convenience gains used by the matrix/figure benches. Devices are taken
  /// at full battery; `tx` transmits to `rx` (roles alternate when
  /// bidirectional).
  double gain_vs_bluetooth(const energy::DeviceSpec& tx,
                           const energy::DeviceSpec& rx,
                           const LifetimeConfig& config) const;
  double gain_vs_best_mode(const energy::DeviceSpec& tx,
                           const energy::DeviceSpec& rx,
                           const LifetimeConfig& config) const;

  const baseline::BluetoothRadioModel& bluetooth_model() const {
    return bluetooth_;
  }

 private:
  std::vector<ModeCandidate> candidates_at(double distance_m) const;

  RegimeMap regimes_;
  baseline::BluetoothRadioModel bluetooth_;
};

}  // namespace braidio::core
