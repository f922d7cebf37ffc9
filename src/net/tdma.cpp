#include "net/tdma.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "mac/arq.hpp"
#include "util/contract.hpp"

namespace braidio::net {

namespace {
/// Guard closing each data slot [s].
constexpr double kSlotGuardS = 200e-6;
/// A finished member's next kick fires one turnaround after its ack leg,
/// so it lands before the next round is planned.
static_assert(kSlotGuardS >= mac::kTurnaroundS);
/// Guard after each registration mini-slot [s].
constexpr double kRegGuardS = 100e-6;
/// Wait between one node's registration attempts [s] (rides out
/// transient dropout faults without spinning mini-slots).
constexpr double kRegRetryS = 50e-3;
/// Registration attempts before a node is abandoned (bounds the run when
/// a targeted fault never lifts).
constexpr unsigned kMaxRegistrationAttempts = 16;

std::uint64_t ready_bit(std::uint32_t i) {
  return std::uint64_t{1} << (i % 64);
}
}  // namespace

ScheduledSlotMac::ScheduledSlotMac(std::size_t nodes)
    : ready_((nodes + 63) / 64, 0),
      registered_(nodes, 0),
      reg_attempts_(nodes, 0),
      next_reg_s_(nodes, 0.0) {
  for (std::uint32_t i = 1; i < nodes; ++i) ready_[i / 64] |= ready_bit(i);
}

template <class Visit>
void ScheduledSlotMac::for_each_ready(Visit visit) {
  for (std::size_t w = 0; w < ready_.size(); ++w) {
    const auto first = static_cast<std::uint32_t>(w * 64);
    for (std::uint64_t bits = ready_[w]; bits != 0; bits &= bits - 1) {
      visit(first + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
}

void ScheduledSlotMac::clear_ready(std::uint32_t i) {
  ready_[i / 64] &= ~ready_bit(i);
}

void ScheduledSlotMac::on_node_changed(std::uint32_t node) {
  ready_[node / 64] |= ready_bit(node);
}

bool ScheduledSlotMac::wants_service(MacContext& ctx,
                                     std::uint32_t i) const {
  Node& node = ctx.mac_node(i);
  if (!node.alive() || !ctx.uplink_usable(i)) return false;
  return node.transfer().active || node.backlog() > 0;
}

bool ScheduledSlotMac::given_up(std::uint32_t i) const {
  return registered_[i] == 0 && reg_attempts_[i] >= kMaxRegistrationAttempts;
}

void ScheduledSlotMac::on_kick(MacContext& ctx, std::uint32_t node) {
  // A given-up member's frame will never get a slot: fail its channel
  // access at once (on_attempt rules Drop).
  if (given_up(node)) {
    ctx.schedule_attempt(ctx.now_s(), node);
    return;
  }
  // The frame waits for its assigned slot; all this kick may do is wake
  // the planner when the population had gone quiet.
  if (armed_) return;
  armed_ = true;
  ctx.schedule_policy(ctx.now_s(), 0, kRoundPlan);
}

AttemptDecision ScheduledSlotMac::on_attempt(MacContext&,
                                             std::uint32_t node) {
  // The slot is this node's by assignment: no sensing, no contention.
  return given_up(node) ? AttemptDecision::Drop : AttemptDecision::Transmit;
}

void ScheduledSlotMac::on_tx_done(MacContext&, std::uint32_t, double) {
  // The transfer stays active; the next planned round retries it.
}

void ScheduledSlotMac::on_policy_event(MacContext& ctx, const Event& ev) {
  switch (ev.a) {
    case kRoundPlan:
      plan_round(ctx);
      return;
    case kRegister: {
      const std::uint32_t i = ev.node;
      // The node may have died or drained since the round was planned.
      if (registered_[i] != 0 || !wants_service(ctx, i)) return;
      ++reg_attempts_[i];
      if (ctx.register_exchange(i)) {
        registered_[i] = 1;
        ++ctx.mac_node(i).stats().slot_registrations;
      } else if (!given_up(i)) {
        next_reg_s_[i] = ctx.now_s() + kRegRetryS;
      } else if (ctx.mac_node(i).transfer().active) {
        // Budget spent with a frame in flight: drop it now. A frame
        // still queued is dropped when its kick fires (on_kick).
        ctx.schedule_attempt(ctx.now_s(), i);
      }
      return;
    }
    default:
      BRAIDIO_INVARIANT(false, "tdma payload", ev.a);
  }
}

void ScheduledSlotMac::plan_round(MacContext& ctx) {
  double t = ctx.now_s();
  bool any = false;
  double deferred = std::numeric_limits<double>::infinity();

  // Registration mini-slots: unregistered nodes with traffic, in index
  // order. An exchange is one control frame each way plus turnaround.
  // Registered members keep their bit for the data pass.
  for_each_ready([&](std::uint32_t i) {
    if (registered_[i] != 0) return;
    if (!wants_service(ctx, i) || given_up(i)) {
      clear_ready(i);
      return;
    }
    if (next_reg_s_[i] > t) {
      deferred = std::min(deferred, next_reg_s_[i]);
      return;
    }
    ctx.schedule_policy(t, i, kRegister);
    t += 2.0 * ctx.control_airtime_s(i) + mac::kTurnaroundS + kRegGuardS;
    any = true;
  });

  // Data slots: registered members with traffic, in index order, each
  // slot sized from that member's own planned operating point.
  for_each_ready([&](std::uint32_t i) {
    if (registered_[i] == 0) return;
    if (!ctx.mac_node(i).alive()) {
      registered_[i] = 0;
      ++ctx.mac_node(i).stats().slots_reclaimed;
      clear_ready(i);
      return;
    }
    if (!wants_service(ctx, i)) {
      clear_ready(i);
      return;
    }
    ctx.schedule_attempt(t, i);
    t += ctx.data_airtime_s(i) + mac::kTurnaroundS +
         ctx.control_airtime_s(i) + kSlotGuardS;
    any = true;
  });

  if (any) {
    ++rounds_;
    ctx.schedule_policy(t, 0, kRoundPlan);
  } else if (deferred < std::numeric_limits<double>::infinity()) {
    // Only deferred registrations remain: idle until the earliest retry.
    ctx.schedule_policy(std::max(t, deferred), 0, kRoundPlan);
  } else {
    armed_ = false;
  }
}

void ScheduledSlotMac::finalize(MacPolicyStats& stats) const {
  stats.rounds = rounds_;
}

}  // namespace braidio::net
