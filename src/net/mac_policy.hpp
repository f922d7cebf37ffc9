// Pluggable channel-access policy for the network simulator.
//
// NetworkSimulator owns the physics — link planning, airtime, energy,
// interference, ARQ, delivery statistics. *When* a node is allowed onto
// the air is a policy question, and this interface extracts it: the
// simulator forwards its calendar-queue events to a MacPolicy through
// three hooks (on_kick when a node pops a fresh frame, on_attempt when a
// scheduled attempt fires, on_tx_done when an un-acked frame still has
// ARQ budget), an opaque policy-event channel for schedules the policy
// itself plants (TDMA round planning, registration slots), and a notice
// (on_node_changed) when a relay enqueue or a death may give a node work.
//
// Policies talk back through MacContext, a narrow view of the simulator:
// node state, link usability, airtime arithmetic, a *charged*
// carrier-sense sample, a registration exchange, and event scheduling.
// The turnaround is the shared protocol constant mac::kTurnaroundS.
// The context never exposes the medium or the queue directly, so a
// policy cannot bypass the physics, and the analyzer's layering rule
// keeps net/ policies from reaching into core/ (the two engines are
// siblings; neither includes the other).
//
// Determinism contract: a policy may draw randomness only from the
// handled node's own stream (node.rng()), and must iterate node sets in
// index order, exactly like the simulator (analyzer rule A6).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "net/csma.hpp"
#include "net/event_queue.hpp"
#include "net/node.hpp"

namespace braidio::net {

/// Which channel-access policy drives the population.
enum class MacKind : std::uint8_t { Csma, Tdma };

const char* to_string(MacKind kind);
/// Parse "csma" / "tdma"; throws std::invalid_argument on anything else.
MacKind parse_mac(std::string_view text);

/// What the policy decided about a fired attempt event.
enum class AttemptDecision : std::uint8_t {
  Transmit,  ///< put the frame on the air now
  Deferred,  ///< busy: the policy rescheduled the attempt itself
  Drop,      ///< channel-access failure: the simulator drops the frame
};

/// Policy counters surfaced into NetStats (zeros under plain CSMA).
/// rounds comes from MacPolicy::finalize; the other two are sums of the
/// per-node NodeStats fields the policy posts.
struct MacPolicyStats {
  std::uint64_t rounds = 0;         ///< TDMA rounds planned
  std::uint64_t registrations = 0;  ///< successful hub registrations
  std::uint64_t slots_reclaimed = 0;  ///< slots freed by node death
};

/// The simulator surface a policy may touch. Implemented by
/// NetworkSimulator; every method is deterministic given the event order.
class MacContext {
 public:
  virtual double now_s() const = 0;
  virtual Node& mac_node(std::uint32_t i) = 0;
  /// True when node i's uplink hop has a usable operating point.
  virtual bool uplink_usable(std::uint32_t i) const = 0;
  /// Airtime of one payload-sized data frame at node i's planned rate.
  virtual double data_airtime_s(std::uint32_t i) const = 0;
  /// Airtime of one bare control frame (ack/registration) at i's rate.
  virtual double control_airtime_s(std::uint32_t i) const = 0;
  /// Charged carrier-sense sample: node i spends one CCA window (its
  /// ledger pays), then reports whether the medium is clear for it.
  /// False when busy or when the battery died mid-listen.
  virtual bool sense_clear(std::uint32_t i) = 0;
  /// One registration exchange with the hub: a bare frame each way at
  /// node i's planned point, both ledgers charged. False when a targeted
  /// dropout (or a death) swallowed the exchange.
  virtual bool register_exchange(std::uint32_t i) = 0;
  virtual void schedule_attempt(double at_s, std::uint32_t i) = 0;
  /// Plant a policy-owned event; delivered back via on_policy_event.
  virtual void schedule_policy(double at_s, std::uint32_t i,
                               std::uint64_t payload) = 0;

 protected:
  ~MacContext() = default;
};

/// Channel-access policy. One instance per simulator run; all hooks run
/// on the single event-loop thread.
class MacPolicy {
 public:
  virtual ~MacPolicy() = default;

  virtual const char* name() const = 0;

  /// A node popped a fresh frame. The policy decides when its first
  /// attempt fires (immediately-scheduled backoff, next assigned slot...).
  virtual void on_kick(MacContext& ctx, std::uint32_t node) = 0;

  /// A scheduled attempt fired for an alive node with a usable link.
  virtual AttemptDecision on_attempt(MacContext& ctx, std::uint32_t node) = 0;

  /// An attempt ended un-acked with ARQ budget left; the policy decides
  /// when the retry attempt fires. `done_s` is when the ack leg ended.
  virtual void on_tx_done(MacContext& ctx, std::uint32_t node,
                          double done_s) = 0;

  /// A policy-planted event (schedule_policy) fired.
  virtual void on_policy_event(MacContext& ctx, const Event& ev);

  /// Node `node` may need the policy again: a relayed frame joined its
  /// queue, or it died (a TDMA member is still owed its slot reclaim).
  /// These are the only transitions that can give an idle node work, so
  /// a policy that polls may skip nodes between them. A notice only:
  /// it fires mid-handler and must not schedule. Default: no-op.
  virtual void on_node_changed(std::uint32_t node);

  /// Export policy counters after the run.
  virtual void finalize(MacPolicyStats& stats) const;
};

/// The CSMA-CA policy: per-node random backoff + charged CCA, busy raises
/// BE through the node's CsmaCa state machine. Byte-identical event
/// schedule to the pre-policy-layer simulator.
class CsmaCaMac final : public MacPolicy {
 public:
  const char* name() const override { return "csma"; }
  void on_kick(MacContext& ctx, std::uint32_t node) override;
  AttemptDecision on_attempt(MacContext& ctx, std::uint32_t node) override;
  void on_tx_done(MacContext& ctx, std::uint32_t node,
                  double done_s) override;
};

/// Factory; `nodes` sizes per-node policy state.
std::unique_ptr<MacPolicy> make_mac_policy(MacKind kind, std::size_t nodes);

}  // namespace braidio::net
