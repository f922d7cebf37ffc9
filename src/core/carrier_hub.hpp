// Multi-tag carrier sharing: one hub, many energy-poor nodes.
//
// The paper studies a single pair, but its architecture begs the
// deployment question the asymmetric-IoT example raises: a powered hub
// (laptop, router, base station) serving several wearables/sensors. One
// carrier can serve them all — the hub holds it up while tags take turns
// backscattering in TDMA slots, so the hub's dominant cost (129 mW of
// carrier + decode) is *amortized across nodes* instead of paid per link.
//
// CarrierHub schedules rounds of per-node slots. In each slot the pair
// behaves exactly like a two-node braid restricted to the node's planned
// mode (backscatter while the node is poor relative to the hub; active
// when the link is too long); the Table 5 switch costs apply when the
// slot's mode differs from the previous slot's, so each node's plan
// (core::plan_link, node -> hub at setup) uses an infinite dwell.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/offload.hpp"
#include "core/regimes.hpp"
#include "hal/backend.hpp"
#include "mac/packet_channel.hpp"
#include "sim/faults/impairment.hpp"
#include "util/rng.hpp"

namespace braidio::core {

struct HubNodeConfig {
  std::string name;
  double battery_wh = 0.5;
  double distance_m = 1.0;
  double extra_loss_db = 0.0;
  std::size_t payload_bytes = 24;
};

/// Transfers each live node gets per TDMA round (node -> hub).
inline constexpr unsigned kHubPacketsPerSlot = 8;

struct HubConfig {
  double hub_battery_wh = 99.5;
  /// Scripted fault schedule (not owned; must outlive the hub). Channel
  /// impairments (shadowing, interference, dropout, fade bursts) hit every
  /// node's link identically — the hub's carrier is the shared medium.
  /// DistanceJump and Brownout events are two-endpoint concepts consumed
  /// by BraidedLink; the hub traces their activation edges but does not
  /// apply them.
  const sim::faults::ImpairmentSchedule* impairments = nullptr;
  std::uint64_t seed = 1;
};

struct HubNodeStats {
  std::string name;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  double node_joules = 0.0;
  std::string plan;
};

struct HubStats {
  std::vector<HubNodeStats> nodes;
  double hub_joules = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t mode_switches = 0;
  std::uint64_t fault_activations = 0;

  double delivered_total() const;
  /// Hub energy per delivered payload bit [J/bit] — the amortization
  /// headline.
  double hub_joules_per_bit(std::size_t payload_bytes) const;
};

class CarrierHub {
 public:
  /// Radios come from backend.create_radio. The backend must outlive the
  /// hub.
  CarrierHub(const hal::RadioBackend& backend, HubConfig config,
             std::vector<HubNodeConfig> nodes);

  /// Run `rounds` TDMA rounds (each node gets kHubPacketsPerSlot
  /// transfers per round, node -> hub). Stops early if the hub battery
  /// dies; nodes that die drop out individually.
  HubStats run(std::uint64_t rounds);

  /// The per-node plans chosen at setup.
  const std::vector<OffloadPlan>& plans() const { return plans_; }

 private:
  RegimeMap regimes_;
  const hal::RadioBackend& backend_;
  HubConfig config_;
  std::vector<HubNodeConfig> node_configs_;
  std::vector<OffloadPlan> plans_;
};

}  // namespace braidio::core
