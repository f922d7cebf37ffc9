#include "net/network_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "mac/arq.hpp"
#include "mac/packet_channel.hpp"
#include "obs/obs.hpp"
#include "plan/offload.hpp"
#include "util/contract.hpp"

namespace braidio::net {

namespace {

// Event kinds on the queue.
constexpr std::uint32_t kKick = 0;     // pop the relay queue, ask the MAC
constexpr std::uint32_t kAttempt = 1;  // attempt fires: MAC rules, then tx
constexpr std::uint32_t kTxEnd = 2;    // airtime over: resolve delivery
constexpr std::uint32_t kPolicy = 3;   // MAC-planted (TDMA rounds, reg)

/// Backscatter reflections radiate this much below the medium's active
/// tx power when they interfere with other links [dB].
constexpr double kBackscatterLossDb = 30.0;

/// Packet-lifecycle stage into the trace rings. The packet id rides
/// Event::value and becomes the Chrome flow "id", so begin -> step ->
/// end chain into one arrow per packet; the label carries the stage
/// and the node it happened at. Near-free when tracing is off (one
/// relaxed load), compiled out entirely without BRAIDIO_OBS.
void trace_flow(obs::EventType type, const char* stage, std::uint32_t node,
                double sim_s, std::uint64_t packet_id) {
#if BRAIDIO_OBS_COMPILED
  if (!obs::Tracer::enabled()) return;
  char label[obs::kEventLabelCapacity + 1];
  std::snprintf(label, sizeof label, "%s n%u", stage, node);
  obs::Tracer::instance().record(type, label, sim_s,
                                 static_cast<double>(packet_id));
#else
  (void)type;
  (void)stage;
  (void)node;
  (void)sim_s;
  (void)packet_id;
#endif
}

}  // namespace

NetworkSimulator::NetworkSimulator(NetConfig config)
    : config_(std::move(config)) {
  if (config_.backend == nullptr) {
    throw std::invalid_argument("net::NetworkSimulator: backend required");
  }
  if (config_.payload_bytes > mac::kMaxPayloadBytes) {
    throw std::invalid_argument("net::NetworkSimulator: payload too large");
  }
  BRAIDIO_REQUIRE(config_.kick_spread_s >= 0.0 &&
                      std::isfinite(config_.kick_spread_s),
                  "kick_spread_s", config_.kick_spread_s);
  BRAIDIO_REQUIRE(config_.tag_battery_wh > 0.0 &&
                      config_.hub_battery_wh > 0.0,
                  "tag_battery_wh", config_.tag_battery_wh,
                  "hub_battery_wh", config_.hub_battery_wh);

  // Topology placement uses its own stream (index nodes+1) so node
  // streams [0, nodes] stay private to the nodes.
  util::Rng topo_rng =
      util::Rng::stream(config_.seed, config_.topology.nodes + 1);
  topo_ = build_topology(config_.topology, topo_rng);

  const std::size_t total = topo_.size();
  nodes_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const bool hub = i == 0;
    std::string name = hub ? "hub" : "tag" + std::to_string(i);
    auto radio = config_.backend->create_radio(
        std::move(name), static_cast<std::uint8_t>(i),
        util::WattHours(hub ? config_.hub_battery_wh
                            : config_.tag_battery_wh));
    nodes_.emplace_back(static_cast<std::uint32_t>(i), std::move(radio),
                        util::Rng::stream(config_.seed, i));
  }
  busy_until_s_.assign(total, 0.0);
  medium_.emplace(MediumConfig{}, topo_.positions);
  policy_ = make_mac_policy(config_.mac, total);
  plan_links();

  if (config_.flight_recorder) {
    record_.arm(topo_);
  }
}

void NetworkSimulator::plan_links() {
  const hal::Capabilities& caps = config_.backend->caps();
  const hal::ChannelModel& channel = config_.backend->channel();
  const std::size_t data_bits = mac::wire_bits_for(config_.payload_bytes);
  const std::size_t ack_bits = mac::wire_bits_for(0);
  links_.assign(topo_.size(), LinkPlan{});
  // The planner's direction rule decides which points a hop can run.
  // Every node carries the one backend, so one set serves every hop.
  const std::vector<hal::OperatingPoint> candidates =
      plan::OffloadPlanner::intersect_candidates(caps, caps);
  for (std::size_t i = 1; i < topo_.size(); ++i) {
    if (topo_.hops[i] == kNoRoute) continue;
    LinkPlan& plan = links_[i];
    plan.distance_m =
        distance_m(topo_.positions[i], topo_.positions[topo_.next_hop[i]]);
    // Uplink preference order (the asymmetric-energy default): reflect if
    // the pair can, source a carrier for a passive receiver otherwise,
    // burn active symmetric power only as the last resort.
    for (const hal::LinkMode mode :
         {hal::LinkMode::Backscatter, hal::LinkMode::PassiveRx,
          hal::LinkMode::Active}) {
      const auto rate = channel.best_bitrate(mode, plan.distance_m);
      if (!rate) continue;
      const auto point = std::find_if(
          candidates.begin(), candidates.end(),
          [&](const hal::OperatingPoint& c) {
            return c.mode == mode && c.rate == *rate;
          });
      if (point == candidates.end()) continue;
      plan.point = *point;
      plan.usable = true;
      plan.data_airtime_s =
          mac::PacketChannel::airtime_s(data_bits, plan.point.rate);
      plan.ack_airtime_s =
          mac::PacketChannel::airtime_s(ack_bits, plan.point.rate);
      plan.interferer_dbm =
          medium_->config().tx_power_dbm -
          (mode == hal::LinkMode::Backscatter ? kBackscatterLossDb : 0.0);
      break;
    }
  }
}

const Node& NetworkSimulator::node(std::uint32_t i) const {
  BRAIDIO_REQUIRE(i < nodes_.size(), "i", i, "nodes", nodes_.size());
  return nodes_[i];
}

std::optional<hal::OperatingPoint> NetworkSimulator::link_point(
    std::uint32_t i) const {
  BRAIDIO_REQUIRE(i < links_.size(), "i", i, "nodes", links_.size());
  if (!links_[i].usable) return std::nullopt;
  return links_[i].point;
}

void NetworkSimulator::charge_window(Node& node, double from_s,
                                     double to_s) {
  BRAIDIO_REQUIRE(node.alive(), "node", node.index());
  double& busy = busy_until_s_[node.index()];
  const double start = std::max(from_s, busy);
  if (to_s > start && !node.radio().advance(util::Seconds(to_s - start))) {
    mark_dead(node);
  }
  busy = std::max(busy, to_s);
}

void NetworkSimulator::mark_dead(Node& node) {
  node.set_alive(false);
  policy_->on_node_changed(node.index());
}

Node& NetworkSimulator::mac_node(std::uint32_t i) {
  BRAIDIO_REQUIRE(i < nodes_.size(), "i", i, "nodes", nodes_.size());
  return nodes_[i];
}

bool NetworkSimulator::uplink_usable(std::uint32_t i) const {
  BRAIDIO_REQUIRE(i < links_.size(), "i", i, "nodes", links_.size());
  return links_[i].usable;
}

double NetworkSimulator::data_airtime_s(std::uint32_t i) const {
  BRAIDIO_REQUIRE(i < links_.size() && links_[i].usable, "i", i);
  return links_[i].data_airtime_s;
}

double NetworkSimulator::control_airtime_s(std::uint32_t i) const {
  BRAIDIO_REQUIRE(i < links_.size() && links_[i].usable, "i", i);
  return links_[i].ack_airtime_s;
}

bool NetworkSimulator::sense_clear(std::uint32_t i) {
  Node& node = nodes_[i];
  // Sampled before the (charged) listen so the verdict reflects the
  // medium at the attempt instant, as before the listen was billed. The
  // medium applies IRadio::cca_clear's rule, ambient < threshold,
  // without converting the ambient power to dBm.
  const bool clear =
      medium_->ambient_below(i, i, node.radio().caps().cca_threshold_dbm);
  if (!node.radio().sense(util::Seconds(kCcaWindowS))) {
    mark_dead(node);
    return false;
  }
  return clear;
}

bool NetworkSimulator::register_exchange(std::uint32_t i) {
  // One bare control frame each way along i's uplink: the member
  // announces itself, the slot grant comes back after a turnaround. The
  // tag pays at its (cheap) transmit point; the uplink receiver — the
  // hub in a star — listens for the whole exchange at its own draw,
  // which is where the coordination cost lands by design.
  Node& node = nodes_[i];
  const LinkPlan& plan = links_[i];
  if (!node.alive() || !plan.usable) return false;
  Node& dest = nodes_[topo_.next_hop[i]];
  const double now = queue_.now_s();
  const double air = control_airtime_s(i);
  const double span = 2.0 * air + mac::kTurnaroundS;
  if (!node.radio().switch_to(plan.point, hal::Role::DataTransmitter)) {
    mark_dead(node);
    return false;
  }
  if (dest.alive() &&
      !dest.radio().switch_to(plan.point, hal::Role::DataReceiver)) {
    mark_dead(dest);
  }
  if (!node.radio().advance(util::Seconds(span))) mark_dead(node);
  if (dest.alive()) charge_window(dest, now, now + span);
  bool dropout = false;
  fault_loss_db(now, i, dest.index(), dropout);
  return node.alive() && dest.alive() && !dropout;
}

void NetworkSimulator::schedule_attempt(double at_s, std::uint32_t i) {
  queue_.schedule(at_s, i, kAttempt);
}

void NetworkSimulator::schedule_policy(double at_s, std::uint32_t i,
                                       std::uint64_t payload) {
  queue_.schedule(at_s, i, kPolicy, payload);
}

double NetworkSimulator::fault_loss_db(double now_s, std::uint32_t tx,
                                       std::uint32_t rx,
                                       bool& dropout) const {
  dropout = false;
  if (config_.impairments == nullptr || config_.impairments->empty()) {
    return 0.0;
  }
  const auto at_tx =
      config_.impairments->state_at(now_s, static_cast<int>(tx));
  const auto at_rx =
      config_.impairments->state_at(now_s, static_cast<int>(rx));
  dropout = at_tx.carrier_dropout || at_rx.carrier_dropout;
  return std::max(at_tx.extra_loss_db, at_rx.extra_loss_db);
}

NetworkSimulator::DeliveryOdds NetworkSimulator::delivery_odds(
    const LinkPlan& plan, double loss_db, double penalty_db) const {
  const hal::ChannelModel& channel = config_.backend->channel();
  const double snr =
      channel.snr_db(plan.point.mode, plan.point.rate, plan.distance_m) -
      loss_db - penalty_db;
  const double ber = channel.ber_from_snr_db(plan.point.mode, snr);
  const auto survives = [ber](std::size_t payload_bytes) {
    return std::pow(1.0 - ber,
                    static_cast<double>(mac::wire_bits_for(payload_bytes)));
  };
  return {survives(config_.payload_bytes), survives(0)};
}

void NetworkSimulator::handle_kick(const Event& ev) {
  Node& node = nodes_[ev.node];
  if (!node.alive() || node.transfer().active || node.queue_empty()) return;
  const QueuedPacket packet = node.dequeue();
  Node::Transfer& t = node.transfer();
  const double now = queue_.now_s();
  t.active = true;
  t.origin = packet.origin;
  t.dest = topo_.next_hop[ev.node];
  t.attempts = 0;
  t.packet_id = packet.packet_id;
  // A packet is born the first time its origin pops it off the queue;
  // relays inherit the birth stamp so latency is end-to-end.
  if (packet.birth_s < 0.0) {
    t.birth_s = now;
    trace_flow(obs::EventType::PacketFlowBegin, "enq", ev.node, now,
               t.packet_id);
  } else {
    t.birth_s = packet.birth_s;
    trace_flow(obs::EventType::PacketFlowStep, "enq", ev.node, now,
               t.packet_id);
  }
  policy_->on_kick(*this, ev.node);
}

void NetworkSimulator::handle_attempt(const Event& ev) {
  Node& node = nodes_[ev.node];
  Node::Transfer& t = node.transfer();
  const double now = queue_.now_s();
  if (!node.alive() || !links_[ev.node].usable) {
    t.active = false;
    return;
  }
  // A TDMA slot granted before this node's kick fired arrives with no
  // frame in flight; the next planned round serves it.
  if (!t.active) return;
  const LinkPlan& plan = links_[ev.node];
  Node& dest = nodes_[t.dest];
  trace_flow(obs::EventType::PacketFlowStep, "att", ev.node, now,
             t.packet_id);

  switch (policy_->on_attempt(*this, ev.node)) {
    case AttemptDecision::Deferred:
      return;
    case AttemptDecision::Drop:
      // Channel-access failure: the policy's budget is gone, the frame
      // never made it onto the air.
      ++node.stats().csma_failures;
      obs::count(obs::Counter::PacketsDropped);
      trace_flow(obs::EventType::PacketFlowEnd, "drop:access", ev.node,
                 now, t.packet_id);
      t.active = false;
      queue_.schedule(now + mac::kTurnaroundS, ev.node, kKick);
      return;
    case AttemptDecision::Transmit:
      break;
  }
  if (!node.alive()) {  // the charged CCA listen emptied the battery
    t.active = false;
    return;
  }

  if (!node.radio().switch_to(plan.point, hal::Role::DataTransmitter)) {
    mark_dead(node);
    t.active = false;
    return;
  }
  if (dest.alive() &&
      !dest.radio().switch_to(plan.point, hal::Role::DataReceiver)) {
    mark_dead(dest);
  }

  const double airtime = plan.data_airtime_s;
  ++t.attempts;
  ++node.stats().tx_attempts;
  obs::count(obs::Counter::PacketsTx);
  BRAIDIO_TRACE_EVENT(obs::EventType::PacketTx, "net", now,
                      static_cast<double>(ev.node));
  trace_flow(obs::EventType::PacketFlowStep, "air", ev.node, now,
             t.packet_id);

  if (!node.radio().advance(util::Seconds(airtime))) mark_dead(node);
  // A dead destination accrues no receive-window charge; the carrier is
  // physically on-air either way, so the medium occupancy stays.
  if (dest.alive()) charge_window(dest, now, now + airtime);
  medium_->begin(ev.node, t.dest, now + airtime, plan.interferer_dbm);
  // Interference is sampled here and again at tx-end; the worse sample
  // decides the SNR penalty (captures transmissions that start mid-air).
  const double pen0 = medium_->interference_penalty_db(t.dest, ev.node);
  queue_.schedule(now + airtime, ev.node, kTxEnd,
                  std::bit_cast<std::uint64_t>(pen0));
}

void NetworkSimulator::handle_tx_end(const Event& ev) {
  Node& node = nodes_[ev.node];
  Node::Transfer& t = node.transfer();
  LinkPlan& plan = links_[ev.node];
  Node& dest = nodes_[t.dest];
  const double now = queue_.now_s();

  const double pen1 = medium_->interference_penalty_db(t.dest, ev.node);
  medium_->end(ev.node);
  const double penalty =
      std::max(std::bit_cast<double>(ev.a), pen1);

  bool dropout = false;
  const double loss = fault_loss_db(now, ev.node, t.dest, dropout);

  bool data_ok = false;
  bool acked = false;
  double done = now;
  if (node.alive() && dest.alive() && !dropout) {
    // A clean tx-end sees the link's own SNR, so its odds are the link's
    // cached ones (filled here the first time).
    const bool clean = loss == 0.0 && penalty == 0.0;
    if (clean && !plan.clean_odds) {
      plan.clean_odds = delivery_odds(plan, loss, penalty);
    }
    const DeliveryOdds odds =
        clean ? *plan.clean_odds : delivery_odds(plan, loss, penalty);
    data_ok = node.rng().bernoulli(odds.data);
    if (data_ok) {
      // Ack leg: turnaround then a bare Ack frame at the same operating
      // point, roles held at both ends (one turnaround per exchange).
      done = now + mac::kTurnaroundS + plan.ack_airtime_s;
      if (!node.radio().advance(
              util::Seconds(mac::kTurnaroundS + plan.ack_airtime_s))) {
        mark_dead(node);
      }
      charge_window(dest, now, done);
      acked = node.rng().bernoulli(odds.ack);
    }
  }

  if (data_ok) {
    obs::count(obs::Counter::PacketsRx);
    BRAIDIO_TRACE_EVENT(obs::EventType::PacketRx, "net", now,
                        static_cast<double>(t.dest));
  } else {
    obs::count(obs::Counter::PacketsDropped);
    BRAIDIO_TRACE_EVENT(obs::EventType::PacketDrop, "net", now,
                        static_cast<double>(t.dest));
  }

  // The resolved attempt lands in exactly one uplink outcome, and a
  // failed one is attributed to dropout or interference when either was
  // present (bookkeeping only: no RNG, no schedule).
  NodeStats& counts = node.stats();
  if (acked) {
    ++counts.uplink_acked;
    finish_transfer(node, true, done);
    return;
  }
  ++(data_ok ? counts.uplink_ack_lost : counts.uplink_data_lost);
  if (dropout) {
    ++counts.fault_losses;
  } else if (penalty > 0.0) {
    ++counts.collisions;
  }
  if (t.attempts > mac::kMaxRetransmissions) {
    ++counts.arq_drops;
    obs::count(obs::Counter::ArqDrops);
    trace_flow(obs::EventType::PacketFlowEnd, "drop:arq", ev.node, now,
               t.packet_id);
    finish_transfer(node, false, done);
    return;
  }
  obs::count(obs::Counter::ArqRetries);
  BRAIDIO_TRACE_EVENT(obs::EventType::ArqRetry, "net", now,
                      static_cast<double>(ev.node));
  policy_->on_tx_done(*this, ev.node, done);
}

void NetworkSimulator::finish_transfer(Node& node, bool acked,
                                       double done_s) {
  Node::Transfer& t = node.transfer();
  t.active = false;
  const double next = done_s + mac::kTurnaroundS;
  if (acked) {
    if (t.dest == 0) {
      // Delivery is attributed to the ORIGIN node and closes the
      // packet's flow chain at the hub.
      ++nodes_[t.origin].stats().delivered;
      const double latency_s = done_s - t.birth_s;
      record_.note_delivery(latency_s);
      obs::observe(obs::Histogram::NetLatencySeconds, latency_s);
      trace_flow(obs::EventType::PacketFlowEnd, "ack hub", node.index(),
                 done_s, t.packet_id);
    } else {
      ++node.stats().forwarded;
      trace_flow(obs::EventType::PacketFlowStep, "relay", t.dest, done_s,
                 t.packet_id);
      nodes_[t.dest].enqueue(
          QueuedPacket{t.origin, t.packet_id, t.birth_s});
      policy_->on_node_changed(t.dest);
      queue_.schedule(next, t.dest, kKick);
    }
  }
  queue_.schedule(next, node.index(), kKick);
}

NetStats NetworkSimulator::run() {
  BRAIDIO_REQUIRE(!ran_, "ran", ran_);
  ran_ = true;
  stats_.reachable = topo_.reachable();
  stats_.max_hops = topo_.max_hops();

  BRAIDIO_ENERGY_SPAN(run_span, "net");

  // Packet ids are assigned here, in index order, so they are a pure
  // function of (config, seed) like everything else in the schedule.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    if (topo_.hops[i] == kNoRoute || !links_[i].usable) continue;
    ++stats_.planned;
    Node& node = nodes_[i];
    for (std::uint32_t p = 0; p < config_.packets_per_node; ++p) {
      node.enqueue(QueuedPacket{static_cast<std::uint32_t>(i),
                                ++next_packet_id_, -1.0});
    }
    node.stats().generated += config_.packets_per_node;
    const double start =
        config_.kick_spread_s > 0.0
            ? node.rng().uniform(0.0, config_.kick_spread_s)
            : 0.0;
    queue_.schedule(start, static_cast<std::uint32_t>(i), kKick);
  }

  // Precompute scripted fault activation edges once; the event loop
  // walks a cursor over them to emit FaultActive trace events exactly
  // when each fault toggles on (O(1) amortized, no RNG impact).
  if (config_.impairments != nullptr && !config_.impairments->empty()) {
    fault_edges_ = config_.impairments->activations_in(
        -1.0, std::numeric_limits<double>::max());
  }

  Event ev;
  while (queue_.pop(ev)) {
    if (fault_cursor_ < fault_edges_.size()) {
      emit_fault_activations(ev.time_s);
    }
    switch (ev.kind) {
      case kKick: handle_kick(ev); break;
      case kAttempt: handle_attempt(ev); break;
      case kTxEnd: handle_tx_end(ev); break;
      case kPolicy: policy_->on_policy_event(*this, ev); break;
      default:
        BRAIDIO_INVARIANT(false, "kind", ev.kind);
    }
  }

  // Sleep fill: every radio idles forward to the final virtual time, so
  // each ledger covers the whole run and conservation is exact. The
  // NetStats totals are the index-ordered sums of the per-node records.
  stats_.elapsed_s = queue_.now_s();
  stats_.node_joules.reserve(nodes_.size());
  NodeStats sum;
  for (Node& node : nodes_) {
    node.radio().go_idle();
    const double gap = stats_.elapsed_s - node.radio().clock_s();
    if (gap > 0.0 && !node.radio().advance(util::Seconds(gap))) {
      mark_dead(node);
    }
    const double joules = node.radio().ledger().total_joules();
    stats_.node_joules.push_back(joules);
    stats_.total_joules += joules;
    sum += node.stats();
    if (!node.alive()) ++stats_.battery_deaths;
  }
  stats_.generated = sum.generated;
  stats_.delivered = sum.delivered;
  stats_.forwarded = sum.forwarded;
  stats_.tx_attempts = sum.tx_attempts;
  stats_.csma_failures = sum.csma_failures;
  stats_.arq_drops = sum.arq_drops;
  stats_.delivered_payload_bits = static_cast<double>(sum.delivered) *
                                  static_cast<double>(config_.payload_bytes) *
                                  8.0;
  policy_->finalize(stats_.mac);
  stats_.mac.registrations = sum.slot_registrations;
  stats_.mac.slots_reclaimed = sum.slots_reclaimed;
  stats_.hub_joules = stats_.node_joules.empty() ? 0.0
                                                 : stats_.node_joules[0];
  stats_.events = queue_.processed();
  stats_.sched_retunes = queue_.retunes();
  stats_.sched_grows = queue_.grows();
  stats_.sched_peak_depth = queue_.peak_size();
  stats_.sched_scan_steps = queue_.scan_steps();
  stats_.sched_width_s = queue_.bucket_width_s();
  if (record_.enabled) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      record_.nodes[i] = nodes_[i].stats();
    }
    record_.events = stats_.events;
    record_.elapsed_s = stats_.elapsed_s;
  }
  obs::count(obs::Counter::NetEvents, stats_.events);
  return stats_;
}

void NetworkSimulator::emit_fault_activations(double now_s) {
  while (fault_cursor_ < fault_edges_.size() &&
         fault_edges_[fault_cursor_].start_s <= now_s) {
    [[maybe_unused]] const sim::faults::FaultEvent& edge =
        fault_edges_[fault_cursor_];
    ++fault_cursor_;
    obs::count(obs::Counter::FaultActivations);
#if BRAIDIO_OBS_COMPILED
    if (obs::Tracer::enabled()) {
      char label[obs::kEventLabelCapacity + 1];
      if (edge.node >= 0) {
        std::snprintf(label, sizeof label, "%s@%d",
                      sim::faults::to_string(edge.kind), edge.node);
      } else {
        std::snprintf(label, sizeof label, "%s",
                      sim::faults::to_string(edge.kind));
      }
      obs::Tracer::instance().record(
          obs::EventType::FaultActive, label, edge.start_s,
          static_cast<double>(edge.node));
    }
#endif
  }
}

}  // namespace braidio::net
