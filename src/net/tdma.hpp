// Hub-assigned TDMA slots for the network simulator: one hub carrier
// shared by many tags (DESIGN.md §16; experiment E3).
//
// Braidio's asymmetric-energy argument puts coordination cost on the
// energy-rich end: the hub holds the carrier, polls, and *assigns* air
// time, so tags never contend. This policy reproduces that shape over
// the simulator's calendar queue:
//
//   registration — each round opens with mini-slots in which nodes that
//       have traffic but no slot yet exchange one bare control frame
//       with their uplink neighbor (hub in a star). A targeted dropout
//       swallows the exchange; the node retries 50 ms later, up to 16
//       attempts before it is given up on (bounded, so a permanently
//       faulted node cannot keep rounds alive forever).
//       A given-up member never gets a slot: its frames, the one in
//       flight and every later one, end as channel-access drops, as a
//       CSMA frame does when its busy budget runs out;
//   data slots — registered members with pending traffic get one slot
//       each, in index order, sized from the member's own planned
//       operating point: data airtime + turnaround + ack airtime + a
//       200 us guard. One transmission is ever on the air, so CCA-deaf
//       passive backends are served exactly as well as active ones;
//   re-assignment — dead members are dropped (their slots reclaimed),
//       drained members are skipped until they queue again, newly
//       registered members join. Rounds chain while any slot was planned
//       and stop when the population goes quiet (re-armed by the next
//       kick);
//   ready set — a round visits only nodes that may need it: one bit per
//       node, walked in index order, always covering every node with
//       traffic and every registered member that died since the last
//       round (still owed its reclaim). Every tag starts set. The
//       planner clears a bit when it finds the node drained, unroutable,
//       given up or reclaimed, and exactly two transitions set it again,
//       both reported through on_node_changed: a relay enqueue and a
//       death. A kick does not: the enqueue before it already did.
//
// No randomness: the schedule is a pure function of the event order, so
// serial and parallel sweeps stay byte-identical trivially. The guards,
// the retry wait and the attempt budget are constants in tdma.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "net/mac_policy.hpp"

namespace braidio::net {

class ScheduledSlotMac final : public MacPolicy {
 public:
  explicit ScheduledSlotMac(std::size_t nodes);

  const char* name() const override { return "tdma"; }
  void on_kick(MacContext& ctx, std::uint32_t node) override;
  AttemptDecision on_attempt(MacContext& ctx, std::uint32_t node) override;
  void on_tx_done(MacContext& ctx, std::uint32_t node,
                  double done_s) override;
  void on_policy_event(MacContext& ctx, const Event& ev) override;
  void on_node_changed(std::uint32_t node) override;
  void finalize(MacPolicyStats& stats) const override;

  // Post-run introspection (tests).
  bool is_registered(std::uint32_t i) const { return registered_[i] != 0; }
  std::uint64_t rounds() const { return rounds_; }

 private:
  // Payloads on the policy-event channel.
  static constexpr std::uint64_t kRoundPlan = 0;  // plan the next round
  static constexpr std::uint64_t kRegister = 1;   // one registration slot

  /// Alive, routable, and holding traffic (in flight or queued).
  bool wants_service(MacContext& ctx, std::uint32_t i) const;
  /// Unregistered with the registration budget spent.
  bool given_up(std::uint32_t i) const;
  void plan_round(MacContext& ctx);
  /// Calls visit(i) for each ready node in ascending index order; visit
  /// may clear bits but must not set any.
  template <class Visit>
  void for_each_ready(Visit visit);
  void clear_ready(std::uint32_t i);

  std::vector<std::uint64_t> ready_;  // the ready set, 64 nodes per word
  std::vector<std::uint8_t> registered_;
  std::vector<unsigned> reg_attempts_;
  std::vector<double> next_reg_s_;
  bool armed_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace braidio::net
