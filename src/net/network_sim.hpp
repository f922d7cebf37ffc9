// Many-node discrete-event network simulator.
//
// One EventQueue drives a population of Nodes sharing a medium: tags
// originate frames and relay them hop by hop toward the hub (node 0)
// with CSMA-CA channel access, stop-and-wait retries per hop, and
// interference-aware delivery. The per-link physics come from the
// backend's hal::ChannelModel; the network-level physics (ambient power
// for CCA, the I/N penalty concurrent transmissions inflict on a
// receiver) come from SharedMedium at its default MediumConfig. The
// protocol timings are shared constants: mac::kTurnaroundS and
// mac::kMaxRetransmissions (the per-hop retry budget), plus the CSMA and
// TDMA ones in net/csma.hpp and net/tdma.cpp.
//
// Protocol, per frame and hop:
//   kick    — the node pops its relay queue and hands the frame to the
//             MAC policy, which decides when the first attempt fires
//             (CSMA backoff, next assigned TDMA slot — see
//             net/mac_policy.hpp);
//   attempt — the policy rules on channel access. Under CSMA-CA that is
//             a *charged* CCA sample against the medium's ambient power
//             (when the hardware declares can_cca; pure-backscatter tags
//             have no receiver to sense with and rely on the backoff
//             jitter alone): busy raises BE and retries, an exhausted
//             budget drops the frame as a channel-access failure. Under
//             TDMA the slot is the node's by assignment. A transmit
//             verdict puts the frame on the air: both endpoint radios
//             switch to the link's operating point and are charged the
//             airtime (a dead destination accrues nothing — the carrier
//             still occupies the medium);
//   tx-end  — delivery is Bernoulli with p = (1 - BER)^wire_bits, where
//             the BER comes from the link SNR minus node-targeted fault
//             losses and the interference penalty (sampled at both the
//             start and end of the airtime; the worse sample wins). A
//             delivered frame is acked (turnaround + ack airtime at both
//             ends, roles held, one turnaround per exchange); an acked
//             frame either lands at the hub or joins the next relay's
//             queue. Failures retry through the per-hop ARQ budget.
//
// Static links: every uplink is planned once (plan_links). It takes the
// first of Backscatter > PassiveRx > Active whose best rate at the hop's
// distance is a candidate under the planner's direction rule
// (plan::OffloadPlanner::intersect_candidates). A link never moves, so
// its plan also carries the data and ack airtimes, and, from
// the link's first tx-end that sees no fault loss and no interference
// penalty (both exactly 0.0, so the SNR is the link's own), the two
// legs' delivery odds. Later clean tx-ends reuse them; any loss or
// penalty takes the full SNR -> BER -> odds path and leaves the cache
// alone. The RNG draws are the same either way.
//
// Determinism: node i draws only from util::Rng::stream(seed, i), always
// from within that node's event handlers, so the schedule is a pure
// function of (config, seed) and byte-identical under any SweepRunner
// thread count. All iteration is index-ordered (analyzer rule A6).
//
// Energy: every joule flows through each node's own radio (battery +
// ledger). Receive airtime at a shared receiver is clamped against a
// per-node busy-until mark so overlapping receptions charge the carrier
// once, not once per transmitter. After the last event every radio goes
// idle and sleeps forward to the queue's final time, so per-node ledger
// totals are exact: sum(ledger) == capacity - remaining, and the global
// total is the index-ordered sum of the per-node totals. The fill adds
// the gap to the radio's clock, and that sum rounds: a radio's clock_s()
// may end one ULP below the final time, never further (net_sim_test pins
// this over eight seeds).
//
// Scope notes: fault extra-loss and carrier-dropout windows apply (per
// node when the schedule targets one); DistanceJump/FadeBurst/Brownout
// are two-endpoint pair-link concepts consumed by BraidedLink, not here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include <memory>

#include "hal/backend.hpp"
#include "net/event_queue.hpp"
#include "net/mac_policy.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"
#include "net/topology.hpp"
#include "sim/faults/impairment.hpp"

namespace braidio::net {

struct NetConfig {
  /// Required: every node's radio + channel physics come from here.
  const hal::RadioBackend* backend = nullptr;
  TopologyConfig topology;
  /// Channel-access policy (net/mac_policy.hpp).
  MacKind mac = MacKind::Csma;
  std::uint64_t seed = 1;
  /// Frames each reachable tag originates toward the hub.
  std::uint32_t packets_per_node = 4;
  std::size_t payload_bytes = 24;
  double tag_battery_wh = 0.5;
  double hub_battery_wh = 99.5;
  /// First kicks are spread uniformly over this window so a dense
  /// deployment does not put every tag on the air in the same slot [s].
  double kick_spread_s = 1.0;
  /// Scripted faults (not owned; must outlive the run). Node-targeted
  /// events (`@<id>`) hit only that node's links.
  const sim::faults::ImpairmentSchedule* impairments = nullptr;
  /// Arm the flight recorder (net/netstats.hpp): an end-of-run copy of
  /// every node's NodeStats, and the delivery latency. Ignored (stays
  /// off) when BRAIDIO_OBS is compiled out.
  bool flight_recorder = false;
};

/// Run summary. The frame counts, delivered_payload_bits, and
/// mac.registrations/slots_reclaimed are index-ordered sums of the
/// per-node NodeStats, and battery_deaths counts the dead nodes, all
/// taken once when the run ends.
struct NetStats {
  std::uint64_t events = 0;       // events the queue processed
  double elapsed_s = 0.0;         // final virtual time
  std::uint64_t generated = 0;    // frames originated by tags
  std::uint64_t delivered = 0;    // origin frames that reached the hub
  std::uint64_t forwarded = 0;    // relay hops completed
  std::uint64_t tx_attempts = 0;  // physical transmissions
  std::uint64_t csma_failures = 0;
  std::uint64_t arq_drops = 0;
  std::uint64_t battery_deaths = 0;
  std::size_t reachable = 0;   // nodes with a route to the hub
  std::size_t planned = 0;     // tags whose first hop has a usable mode
  std::uint32_t max_hops = 0;
  double hub_joules = 0.0;
  double total_joules = 0.0;   // index-ordered sum of per-node ledgers
  std::vector<double> node_joules;  // per node; [0] is the hub
  double delivered_payload_bits = 0.0;
  MacPolicyStats mac;  // policy counters (zeros under plain CSMA)
  // Scheduler introspection, the run's one scheduler summary (always
  // collected — the queue's counters are one compare/add each).
  std::uint64_t sched_retunes = 0;     // calendar width re-tunes
  std::uint64_t sched_grows = 0;       // calendar doublings
  std::uint64_t sched_peak_depth = 0;  // max simultaneous events
  std::uint64_t sched_scan_steps = 0;  // cumulative insert scan steps
  double sched_width_s = 0.0;          // final calendar day length

  double bits_per_joule() const {
    return total_joules > 0.0 ? delivered_payload_bits / total_joules : 0.0;
  }
};

class NetworkSimulator final : public MacContext {
 public:
  /// Builds the topology and the node population. Throws
  /// std::invalid_argument when `backend` is null or the topology/MAC
  /// configuration is invalid.
  explicit NetworkSimulator(NetConfig config);

  /// Drain the event schedule to completion. Call once.
  NetStats run();

  const Topology& topology() const { return topo_; }
  /// Post-run inspection: per-node stats (the one per-node counter
  /// store), radio ledger/battery, CSMA state. Index 0 is the hub.
  const Node& node(std::uint32_t i) const;
  std::size_t node_count() const { return nodes_.size(); }
  /// The (mode, rate) chosen for node i's uplink hop; nullopt when no
  /// lattice point reaches i's next hop (or i is the hub / stranded).
  std::optional<hal::OperatingPoint> link_point(std::uint32_t i) const;
  /// The policy driving channel access (post-run introspection).
  const MacPolicy& mac_policy() const { return *policy_; }
  /// The flight recorder's record (inert/empty unless
  /// NetConfig::flight_recorder armed it). Stable across the
  /// simulator's lifetime, so sweeps can copy it out per point.
  const NetFlightRecord& flight_record() const { return record_; }

  // ---- MacContext: the surface the MAC policy drives (mac_policy.hpp).
  double now_s() const override { return queue_.now_s(); }
  Node& mac_node(std::uint32_t i) override;
  bool uplink_usable(std::uint32_t i) const override;
  double data_airtime_s(std::uint32_t i) const override;
  double control_airtime_s(std::uint32_t i) const override;
  bool sense_clear(std::uint32_t i) override;
  bool register_exchange(std::uint32_t i) override;
  void schedule_attempt(double at_s, std::uint32_t i) override;
  void schedule_policy(double at_s, std::uint32_t i,
                       std::uint64_t payload) override;

 private:
  /// Odds that each leg of one attempt survives: (1 - BER)^wire_bits.
  struct DeliveryOdds {
    double data = 0.0;
    double ack = 0.0;
  };

  struct LinkPlan {
    bool usable = false;
    hal::OperatingPoint point;
    double distance_m = 0.0;
    double interferer_dbm = 0.0;  // power this link radiates at others
    double data_airtime_s = 0.0;  // payload-sized data frame at point
    double ack_airtime_s = 0.0;   // bare control frame at point
    std::optional<DeliveryOdds> clean_odds;  // set on first clean tx-end
  };

  void plan_links();
  /// The leg odds at the link's SNR less `loss_db` and `penalty_db`.
  DeliveryOdds delivery_odds(const LinkPlan& plan, double loss_db,
                             double penalty_db) const;
  /// Every death funnels through here so the policy hears of it.
  void mark_dead(Node& node);
  /// Charge `node`'s radio for occupying [from_s, to_s] of air, clamped
  /// against its busy-until mark (shared receivers pay once). The node
  /// must be alive: post-death spend would hide in a drained battery's
  /// clamp, so callers guard and the contract here is loud.
  void charge_window(Node& node, double from_s, double to_s);
  double fault_loss_db(double now_s, std::uint32_t tx, std::uint32_t rx,
                       bool& dropout) const;

  void handle_kick(const Event& ev);
  void handle_attempt(const Event& ev);
  void handle_tx_end(const Event& ev);
  void finish_transfer(Node& node, bool acked, double now_s);
  /// Emit FaultActive trace events for scripted faults whose start time
  /// has been reached (cursor walk; O(1) amortized per event).
  void emit_fault_activations(double now_s);

  NetConfig config_;
  Topology topo_;
  std::vector<Node> nodes_;
  std::vector<LinkPlan> links_;
  std::vector<double> busy_until_s_;
  std::optional<SharedMedium> medium_;
  std::unique_ptr<MacPolicy> policy_;
  EventQueue queue_;
  NetStats stats_;
  NetFlightRecord record_;
  std::uint64_t next_packet_id_ = 0;
  // Scripted fault activations in start order + the emit cursor.
  std::vector<sim::faults::FaultEvent> fault_edges_;
  std::size_t fault_cursor_ = 0;
  bool ran_ = false;
};

}  // namespace braidio::net
