#include "core/carrier_hub.hpp"

#include <stdexcept>

#include "core/braidio_radio.hpp"
#include "mac/arq.hpp"
#include "obs/obs.hpp"
#include "util/units.hpp"

namespace braidio::core {

double HubStats::delivered_total() const {
  double sum = 0.0;
  for (const auto& n : nodes) sum += static_cast<double>(n.delivered);
  return sum;
}

double HubStats::hub_joules_per_bit(std::size_t payload_bytes) const {
  const double bits =
      delivered_total() * static_cast<double>(payload_bytes) * 8.0;
  return bits > 0.0 ? hub_joules / bits : 0.0;
}

CarrierHub::CarrierHub(const hal::RadioBackend& backend, HubConfig config,
                       std::vector<HubNodeConfig> nodes)
    : regimes_(backend),
      backend_(backend),
      config_(config),
      node_configs_(std::move(nodes)) {
  if (node_configs_.empty()) {
    throw std::invalid_argument("CarrierHub: need at least one node");
  }
}

HubStats CarrierHub::run(std::uint64_t rounds) {
  // Root attribution scope: hub-side and node-side drains both land
  // under "hub/<node>/..." (the per-slot span below names the node).
  BRAIDIO_ENERGY_SPAN(exchange_span, "hub");
  const auto hub_radio = backend_.create_radio(
      "hub", 0, util::WattHours(config_.hub_battery_wh));
  hal::IRadio& hub = *hub_radio;

  struct NodeState {
    std::unique_ptr<hal::IRadio> radio;
    mac::PacketChannel channel;
    mac::ArqSender sender;
    mac::ArqReceiver receiver;  // hub side, per node for sequence tracking
    ModeCandidate point;
    bool alive = true;
    HubNodeStats stats;
  };

  plans_.clear();
  std::vector<NodeState> states;
  states.reserve(node_configs_.size());
  util::Rng rng(config_.seed);
  std::uint8_t address = 1;
  for (const auto& nc : node_configs_) {
    auto candidates = regimes_.available_best_rate(nc.distance_m);
    if (candidates.empty()) {
      throw std::runtime_error("CarrierHub: node out of range: " + nc.name);
    }
    auto radio = backend_.create_radio(nc.name, address,
                                       util::WattHours(nc.battery_wh));
    const auto plan = plan_link(regimes_, candidates,
                                radio->battery().remaining_joules(),
                                hub.battery().remaining_joules(),
                                /*bidirectional=*/false, kInfiniteDwell);
    plans_.push_back(plan);
    // The slot runs the plan's dominant operating point; a full braid per
    // node would also be possible but slots are short.
    ModeCandidate point = plan.entries.front().candidate;
    for (const auto& e : plan.entries) {
      if (e.fraction > 0.5) point = e.candidate;
    }
    states.push_back(NodeState{
        std::move(radio),
        mac::PacketChannel(regimes_.channel(),
                           {nc.distance_m, false, nc.extra_loss_db},
                           rng.fork()),
        mac::ArqSender(address, 0),
        mac::ArqReceiver(0),
        point,
        true,
        HubNodeStats{nc.name, 0, 0, 0.0, plan.summary()}});
    states.back().channel.set_impairments(config_.impairments);
    ++address;
  }

  HubStats stats;
  stats.nodes.reserve(states.size());

  // Consume fault activation edges crossed since the last scan: the hub
  // only traces/counts them (channel-level impairments are read by each
  // node's PacketChannel at transmit time; DistanceJump/Brownout are
  // braid-level events the hub documents but does not apply).
  double faults_seen_to_s = -1.0;
  const auto scan_fault_edges = [&] {
    if (config_.impairments == nullptr) return;
    if (stats.elapsed_s <= faults_seen_to_s) return;
    for (const auto& event :
         config_.impairments->activations_in(faults_seen_to_s,
                                             stats.elapsed_s)) {
      ++stats.fault_activations;
      obs::count(obs::Counter::FaultActivations);
      BRAIDIO_TRACE_EVENT(obs::EventType::FaultActive,
                          sim::faults::to_string(event.kind), event.start_s,
                          event.magnitude);
    }
    faults_seen_to_s = stats.elapsed_s;
  };
  scan_fault_edges();

  // TDMA rounds: every node gets one slot per round, in index order.
  // An empty hub battery ends the run: an in-slot check leaves the
  // node loop, and the next round's start check stops the rounds.
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (hub.battery().empty()) break;
    for (std::size_t i = 0; i < states.size(); ++i) {
      auto& node = states[i];
      if (!node.alive) continue;
      scan_fault_edges();
      const auto& nc = node_configs_[i];
      BRAIDIO_ENERGY_SPAN(slot_span, nc.name.c_str());
      // Enter the slot: both ends adopt the node's operating point.
      if (!hub.switch_to(node.point, Role::DataReceiver) ||
          !node.radio->switch_to(node.point, Role::DataTransmitter)) {
        node.alive = node.alive && !node.radio->battery().empty();
        if (hub.battery().empty()) break;
      } else {
        const double slot_start_s = stats.elapsed_s;
        BRAIDIO_TRACE_EVENT(obs::EventType::DwellStart, nc.name.c_str(),
                            slot_start_s, static_cast<double>(round));
        for (unsigned p = 0; p < kHubPacketsPerSlot; ++p) {
          std::vector<std::uint8_t> payload(nc.payload_bytes,
                                            static_cast<std::uint8_t>(i));
          if (!node.sender.submit(std::move(payload))) break;
          ++node.stats.offered;
          bool done = false;
          while (!done) {
            const auto frame = node.sender.frame_to_send();
            if (!frame) break;
            const double air =
                mac::PacketChannel::airtime_s(*frame, node.point.rate);
            const double slot_time = air + mac::kTurnaroundS;
            stats.elapsed_s += slot_time;
            const bool node_ok =
                node.radio->advance(util::Seconds(slot_time));
            const bool hub_ok = hub.advance(util::Seconds(slot_time));
            if (!node_ok || !hub_ok) {
              node.alive = !node.radio->battery().empty();
              done = true;
              break;
            }
            node.channel.set_clock(util::Seconds(stats.elapsed_s));
            const auto arrived =
                node.channel.transmit(*frame, node.point.mode,
                                      node.point.rate);
            bool acked = false;
            if (arrived) {
              const auto result = node.receiver.on_data(*arrived);
              if (result.ack) {
                const double ack_air = mac::PacketChannel::airtime_s(
                    *result.ack, node.point.rate);
                stats.elapsed_s += ack_air + mac::kTurnaroundS;
                if (!node.radio->advance(
                        util::Seconds(ack_air + mac::kTurnaroundS)) ||
                    !hub.advance(util::Seconds(ack_air + mac::kTurnaroundS))) {
                  node.alive = !node.radio->battery().empty();
                  done = true;
                  break;
                }
                node.channel.set_clock(util::Seconds(stats.elapsed_s));
                const auto ack_arrived = node.channel.transmit(
                    *result.ack, node.point.mode, node.point.rate);
                if (ack_arrived && node.sender.on_ack(*ack_arrived)) {
                  acked = true;
                }
              }
            }
            if (acked) {
              ++node.stats.delivered;
              done = true;
            } else if (!node.sender.on_timeout()) {
              done = true;  // retry budget exhausted
            }
          }
          if (hub.battery().empty() || !node.alive) break;
        }
        obs::observe(obs::Histogram::DwellSeconds,
                     stats.elapsed_s - slot_start_s);
        BRAIDIO_TRACE_EVENT(obs::EventType::DwellEnd, nc.name.c_str(),
                            stats.elapsed_s, stats.elapsed_s - slot_start_s);
        if (hub.battery().empty()) break;
      }
    }
  }

  for (std::size_t i = 0; i < states.size(); ++i) {
    auto& node = states[i];
    node.stats.node_joules =
        util::wh_to_joules(node_configs_[i].battery_wh) -
        node.radio->battery().remaining_joules();
    stats.mode_switches += node.radio->mode_switches();
    stats.nodes.push_back(node.stats);
  }
  stats.mode_switches += hub.mode_switches();
  stats.hub_joules = util::wh_to_joules(config_.hub_battery_wh) -
                     hub.battery().remaining_joules();
  return stats;
}

}  // namespace braidio::core
