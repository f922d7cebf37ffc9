#include "net/mac_policy.hpp"

#include <stdexcept>
#include <string>

#include "mac/arq.hpp"
#include "net/tdma.hpp"
#include "util/contract.hpp"

namespace braidio::net {

const char* to_string(MacKind kind) {
  return kind == MacKind::Tdma ? "tdma" : "csma";
}

MacKind parse_mac(std::string_view text) {
  if (text == "csma") return MacKind::Csma;
  if (text == "tdma") return MacKind::Tdma;
  throw std::invalid_argument("net::parse_mac: unknown MAC \"" +
                              std::string(text) + "\" (csma|tdma)");
}

void MacPolicy::on_policy_event(MacContext&, const Event& ev) {
  BRAIDIO_INVARIANT(false, "unexpected policy event", ev.kind);
}

void MacPolicy::on_node_changed(std::uint32_t) {}

void MacPolicy::finalize(MacPolicyStats&) const {}

void CsmaCaMac::on_kick(MacContext& ctx, std::uint32_t node) {
  Node& n = ctx.mac_node(node);
  n.csma().begin();
  ++n.stats().backoff_draws;
  ctx.schedule_attempt(ctx.now_s() + n.csma().backoff_s(n.rng()), node);
}

AttemptDecision CsmaCaMac::on_attempt(MacContext& ctx, std::uint32_t node) {
  Node& n = ctx.mac_node(node);
  // Pure-backscatter tags have no receiver to sense with and rely on the
  // backoff jitter alone.
  if (!n.radio().caps().can_cca) return AttemptDecision::Transmit;
  if (ctx.sense_clear(node)) return AttemptDecision::Transmit;
  ++n.stats().cca_busy;
  if (n.csma().busy()) {
    ++n.stats().backoff_draws;
    ctx.schedule_attempt(ctx.now_s() + n.csma().backoff_s(n.rng()), node);
    return AttemptDecision::Deferred;
  }
  return AttemptDecision::Drop;
}

void CsmaCaMac::on_tx_done(MacContext& ctx, std::uint32_t node,
                           double done_s) {
  Node& n = ctx.mac_node(node);
  n.csma().begin();
  ++n.stats().backoff_draws;
  ctx.schedule_attempt(done_s + mac::kTurnaroundS +
                           n.csma().backoff_s(n.rng()),
                       node);
}

std::unique_ptr<MacPolicy> make_mac_policy(MacKind kind, std::size_t nodes) {
  if (kind == MacKind::Tdma) {
    return std::make_unique<ScheduledSlotMac>(nodes);
  }
  return std::make_unique<CsmaCaMac>();
}

}  // namespace braidio::net
