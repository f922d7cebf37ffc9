// Energy-aware carrier offload: the decision engine of Sec. 4.2 (Eq. 1).
//
// Given the per-bit costs (T_i, R_i) of every available (mode, bitrate)
// candidate and the energy levels (E1, E2) of the two endpoints, find the
// bit-fractions p_i that
//
//     minimize   sum_i p_i (T_i + R_i)
//     subject to sum_i p_i = 1,
//                (sum_i p_i T_i) / (sum_i p_i R_i) = E1 / E2.
//
// This is a linear program with two equality constraints, so some optimal
// solution mixes at most two candidates; we solve it exactly by pairwise
// enumeration (n <= ~9 candidates). Power-proportional drain maximizes the
// bits moved before the first battery dies whenever the target ratio is
// inside the achievable ratio span; outside it (Regimes B/C with extreme
// asymmetry) no plan can be proportional, and the best achievable plan is
// the single candidate that minimizes the binding end's per-bit cost.
//
// The planner sits below both engines (DESIGN.md §5): it reads only HAL
// types, so core/'s two-endpoint engines and net/'s many-node simulator
// plan through the same rules.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "hal/radio.hpp"

namespace braidio::plan {

/// One (mode, bitrate) candidate with its per-end powers.
using ModeCandidate = hal::OperatingPoint;

struct PlanEntry {
  ModeCandidate candidate;  // forward-direction operating point
  /// Bidirectional plans pair each forward operating point with a reverse
  /// one (roles swapped); unset for unidirectional plans.
  std::optional<ModeCandidate> reverse;
  double fraction = 0.0;  // fraction of bits sent in this operating point
};

struct OffloadPlan {
  std::vector<PlanEntry> entries;

  /// True when the drain ratio exactly matches E1/E2.
  bool proportional = false;

  /// Weighted per-bit drain at each end [J/bit].
  double tx_joules_per_bit = 0.0;
  double rx_joules_per_bit = 0.0;
  double total_joules_per_bit() const {
    return tx_joules_per_bit + rx_joules_per_bit;
  }
  /// Achieved TX:RX drain ratio.
  double achieved_ratio() const {
    return tx_joules_per_bit / rx_joules_per_bit;
  }

  /// True when a requested minimum throughput was met (always true for
  /// plans without a throughput constraint).
  bool meets_throughput = true;

  /// Bits moved before the first battery empties, from energies in joules.
  double bits_until_depletion(double e1_joules, double e2_joules) const;

  std::string summary() const;
};

/// Airtime of a plan [s/bit]: sum(p_i / rate_i), with bidirectional
/// composites averaging their two legs.
double plan_seconds_per_bit(const OffloadPlan& plan);

/// Delivered throughput of a plan [bits/s]: 1 / plan_seconds_per_bit.
double plan_throughput_bps(const OffloadPlan& plan);

class OffloadPlanner {
 public:
  /// Plan for data flowing TX(E1) -> RX(E2) over `candidates`.
  /// Throws std::invalid_argument when `candidates` is empty or energies
  /// are not positive.
  static OffloadPlan plan(const std::vector<ModeCandidate>& candidates,
                          double e1_joules, double e2_joules);

  /// The per-direction candidate set two heterogeneous radios can run
  /// for data tx -> rx. A (mode, rate) lattice point qualifies only when
  /// BOTH lattices contain it AND the direction's capability flags hold:
  ///   Active      — both ends can_active;
  ///   PassiveRx   — the data transmitter can_source_carrier (it holds
  ///                 the carrier the receiver passively decodes);
  ///   Backscatter — the transmitter can_backscatter and the receiver
  ///                 can_source_carrier (it holds the reflected carrier).
  /// Costs are per-end: tx_power from the transmitter's lattice entry,
  /// rx_power from the receiver's — so a braidio tag talking to a
  /// 640 mW reader pays tag-side reflection power against reader-side
  /// decode power, not one backend's symmetric numbers.
  /// The network simulator takes each hop's uplink candidates from here.
  static std::vector<ModeCandidate> intersect_candidates(
      const hal::Capabilities& tx_caps, const hal::Capabilities& rx_caps);

  /// Bi-directional plan with an equal data split: each "composite bit" is
  /// half a bit in each direction; direction 2 swaps the TX/RX roles of the
  /// candidate costs. Returns the plan over composite candidates whose
  /// labels read "fwd:<mode>|rev:<mode>".
  static OffloadPlan plan_bidirectional(
      const std::vector<ModeCandidate>& candidates, double e1_joules,
      double e2_joules);

  /// Eq. 1 with a deadline: the minimum-energy power-proportional plan
  /// whose throughput is at least `min_bps`. Energy-optimal braids lean on
  /// slow modes at distance; a transfer with a deadline may need to buy
  /// throughput with energy. With the extra (tight) throughput constraint
  /// an optimal basic solution mixes at most three candidates, found by
  /// exact triple enumeration. When no proportional plan can reach
  /// `min_bps`, returns the fastest proportional plan with
  /// `meets_throughput = false`.
  static OffloadPlan plan_with_min_throughput(
      const std::vector<ModeCandidate>& candidates, double e1_joules,
      double e2_joules, double min_bps);
};

/// The fluid engines' mode dwell [bits]: ~100 s at 1 Mbps.
inline constexpr double kDefaultBitsPerDwell = 1e8;
/// No amortization, for engines whose radios charge each Table 5 switch
/// as it happens (hal::StandardRadio::switch_to).
inline constexpr double kInfiniteDwell =
    std::numeric_limits<double>::infinity();

/// Bits `candidate` alone moves before the first battery dies.
double single_mode_bits(const ModeCandidate& candidate, double e1_joules,
                        double e2_joules, bool bidirectional);

/// The one planning step every engine runs (DESIGN.md §5): Eq. 1 in
/// either direction; a braid's Table 5 switch-in costs from
/// `caps.switch_overhead`, amortized over a cycle whose largest dwell is
/// `bits_per_dwell`; then the best exclusive mode when it moves more bits.
/// Throws std::invalid_argument when `bits_per_dwell` is not > 0.
OffloadPlan plan_link(const hal::Capabilities& caps,
                      const std::vector<ModeCandidate>& candidates,
                      double e1_joules, double e2_joules, bool bidirectional,
                      double bits_per_dwell);

}  // namespace braidio::plan
