#include "plan/offload.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/contract.hpp"

namespace braidio::plan {

namespace {

constexpr double kRatioTolerance = 1e-9;

struct CostPoint {
  double t = 0.0;  // J/bit at end 1
  double r = 0.0;  // J/bit at end 2
  std::size_t forward = 0;                 // index into the candidate list
  std::ptrdiff_t reverse = -1;             // second direction (bidirectional)
};

struct Mix {
  std::size_t i = 0;
  std::size_t j = 0;     // == i for single-candidate plans
  double p = 1.0;        // fraction on i
  double t = 0.0;
  double r = 0.0;
  bool proportional = false;
  bool valid = false;
  double total() const { return t + r; }
};

Mix evaluate_pair(const std::vector<CostPoint>& costs, std::size_t i,
                  std::size_t j, double k) {
  Mix mix;
  const auto& a = costs[i];
  const auto& b = costs[j];
  // Solve p*a.t + (1-p)*b.t = k * (p*a.r + (1-p)*b.r).
  const double denom = (a.t - b.t) - k * (a.r - b.r);
  if (std::fabs(denom) < 1e-30) return mix;
  const double p = (k * b.r - b.t) / denom;
  if (p < -1e-12 || p > 1.0 + 1e-12) return mix;
  mix.i = i;
  mix.j = j;
  mix.p = std::clamp(p, 0.0, 1.0);
  mix.t = mix.p * a.t + (1.0 - mix.p) * b.t;
  mix.r = mix.p * a.r + (1.0 - mix.p) * b.r;
  mix.proportional = true;
  mix.valid = true;
  return mix;
}

OffloadPlan solve(const std::vector<CostPoint>& costs,
                  const std::vector<ModeCandidate>& candidates,
                  const std::vector<ModeCandidate>& reverse_candidates,
                  double e1, double e2) {
  const double k = e1 / e2;

  Mix best;
  double best_total = std::numeric_limits<double>::infinity();

  // Single candidates that already hit the ratio.
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const double ratio = costs[i].t / costs[i].r;
    if (std::fabs(ratio - k) <= kRatioTolerance * std::max(ratio, k)) {
      const double total = costs[i].t + costs[i].r;
      if (total < best_total) {
        best = {i, i, 1.0, costs[i].t, costs[i].r, true, true};
        best_total = total;
      }
    }
  }
  // Pairwise mixes.
  for (std::size_t i = 0; i < costs.size(); ++i) {
    for (std::size_t j = i + 1; j < costs.size(); ++j) {
      const Mix mix = evaluate_pair(costs, i, j, k);
      if (mix.valid && mix.total() < best_total) {
        best = mix;
        best_total = mix.total();
      }
    }
  }

  if (!best.valid) {
    // The target ratio lies outside the achievable span: no plan can be
    // proportional. The first battery to die is then the same end for
    // every plan, so pick the single candidate that maximizes
    // min(E1 / T_i, E2 / R_i).
    double best_bits = -1.0;
    for (std::size_t i = 0; i < costs.size(); ++i) {
      const double bits = std::min(e1 / costs[i].t, e2 / costs[i].r);
      if (bits > best_bits) {
        best_bits = bits;
        best = {i, i, 1.0, costs[i].t, costs[i].r, false, true};
      }
    }
  }

  OffloadPlan plan;
  plan.proportional = best.proportional;
  plan.tx_joules_per_bit = best.t;
  plan.rx_joules_per_bit = best.r;
  auto push = [&](std::size_t idx, double fraction) {
    if (fraction <= 1e-12) return;
    PlanEntry entry;
    entry.candidate = candidates[costs[idx].forward];
    if (costs[idx].reverse >= 0) {
      entry.reverse =
          reverse_candidates[static_cast<std::size_t>(costs[idx].reverse)];
    }
    entry.fraction = fraction;
    plan.entries.push_back(entry);
  };
  push(best.i, best.p);
  if (best.j != best.i) push(best.j, 1.0 - best.p);
  return plan;
}

void check_inputs(const std::vector<ModeCandidate>& candidates,
                  double e1_joules, double e2_joules) {
  if (candidates.empty()) {
    throw std::invalid_argument("OffloadPlanner: no candidates");
  }
  if (!(e1_joules > 0.0) || !(e2_joules > 0.0)) {
    throw std::invalid_argument("OffloadPlanner: energies must be > 0");
  }
  BRAIDIO_REQUIRE(std::isfinite(e1_joules) && std::isfinite(e2_joules),
                  "e1_joules", e1_joules, "e2_joules", e2_joules);
}

// Postconditions every plan a planner hands out must satisfy: bit-fractions
// are probabilities summing to 1, and the per-bit drains are physical.
OffloadPlan checked_plan(OffloadPlan plan) {
  double fraction_sum = 0.0;
  for (const auto& entry : plan.entries) {
    fraction_sum += util::contract::check_probability(
        entry.fraction, "OffloadPlan::entry.fraction");
  }
  BRAIDIO_ENSURE(plan.entries.empty() ||
                     std::fabs(fraction_sum - 1.0) <= 1e-6,
                 "fraction_sum", fraction_sum);
  BRAIDIO_ENSURE(std::isfinite(plan.tx_joules_per_bit) &&
                     plan.tx_joules_per_bit >= 0.0 &&
                     std::isfinite(plan.rx_joules_per_bit) &&
                     plan.rx_joules_per_bit >= 0.0,
                 "tx_j_per_bit", plan.tx_joules_per_bit, "rx_j_per_bit",
                 plan.rx_joules_per_bit);
  return plan;
}

}  // namespace

double plan_seconds_per_bit(const OffloadPlan& plan) {
  double s = 0.0;
  for (const auto& e : plan.entries) {
    if (e.reverse) {
      s += e.fraction * (0.5 / e.candidate.bits_per_second() +
                         0.5 / e.reverse->bits_per_second());
    } else {
      s += e.fraction / e.candidate.bits_per_second();
    }
  }
  return s;
}

double plan_throughput_bps(const OffloadPlan& plan) {
  const double s = plan_seconds_per_bit(plan);
  return s > 0.0 ? 1.0 / s : 0.0;
}

double OffloadPlan::bits_until_depletion(double e1_joules,
                                         double e2_joules) const {
  if (entries.empty()) return 0.0;
  return std::min(e1_joules / tx_joules_per_bit,
                  e2_joules / rx_joules_per_bit);
}

std::string OffloadPlan::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) os << " + ";
    os << entries[i].fraction * 100.0 << "% ";
    os << entries[i].candidate.label();
    if (entries[i].reverse) os << "|rev:" << entries[i].reverse->label();
  }
  os << (proportional ? " (proportional)" : " (ratio clamped)");
  return os.str();
}

OffloadPlan OffloadPlanner::plan(const std::vector<ModeCandidate>& candidates,
                                 double e1_joules, double e2_joules) {
  check_inputs(candidates, e1_joules, e2_joules);
  obs::count(obs::Counter::OffloadPlans);
  std::vector<CostPoint> costs;
  costs.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    costs.push_back({candidates[i].tx_joules_per_bit(),
                     candidates[i].rx_joules_per_bit(), i, -1});
  }
  return checked_plan(solve(costs, candidates, candidates, e1_joules,
                            e2_joules));
}

OffloadPlan OffloadPlanner::plan_with_min_throughput(
    const std::vector<ModeCandidate>& candidates, double e1_joules,
    double e2_joules, double min_bps) {
  check_inputs(candidates, e1_joules, e2_joules);
  if (!(min_bps > 0.0)) {
    throw std::invalid_argument("plan_with_min_throughput: min_bps <= 0");
  }
  // The unconstrained optimum may already be fast enough.
  OffloadPlan best = plan(candidates, e1_joules, e2_joules);
  if (plan_throughput_bps(best) >= min_bps * (1.0 - 1e-9)) {
    return best;
  }

  // Otherwise enumerate the basic solutions of
  //   min cost  s.t.  sum p = 1,  sum p (T - k R) = 0,
  //                   sum p / r <= 1 / min_bps
  // Two families: (a) ratio-feasible pairs/singles where the throughput
  // constraint is slack, (b) triples (and degenerate pairs) where it is
  // tight.
  const double k = e1_joules / e2_joules;
  const double inv_rate_target = 1.0 / min_bps;
  const std::size_t n = candidates.size();
  auto t_of = [&](std::size_t i) {
    return candidates[i].tx_joules_per_bit();
  };
  auto r_of = [&](std::size_t i) {
    return candidates[i].rx_joules_per_bit();
  };
  auto inv_rate = [&](std::size_t i) {
    return 1.0 / candidates[i].bits_per_second();
  };

  double best_cost = std::numeric_limits<double>::infinity();
  OffloadPlan constrained;
  bool found = false;
  auto consider = [&](const std::vector<std::size_t>& idx,
                      const std::vector<double>& p) {
    double t = 0.0, r = 0.0;
    for (std::size_t m = 0; m < idx.size(); ++m) {
      if (p[m] < -1e-9) return;
      t += p[m] * t_of(idx[m]);
      r += p[m] * r_of(idx[m]);
    }
    const double cost = t + r;
    if (cost >= best_cost) return;
    best_cost = cost;
    constrained = OffloadPlan{};
    constrained.proportional = true;
    constrained.tx_joules_per_bit = t;
    constrained.rx_joules_per_bit = r;
    for (std::size_t m = 0; m < idx.size(); ++m) {
      if (p[m] <= 1e-12) continue;
      PlanEntry entry;
      entry.candidate = candidates[idx[m]];
      entry.fraction = std::clamp(p[m], 0.0, 1.0);
      constrained.entries.push_back(entry);
    }
    found = true;
  };

  // Family (a): proportional singles and pairs that happen to be fast
  // enough (throughput slack).
  auto consider_if_fast_enough = [&](const std::vector<std::size_t>& idx,
                                     const std::vector<double>& p) {
    double inv_bps = 0.0;
    for (std::size_t m = 0; m < idx.size(); ++m) {
      if (p[m] < -1e-9) return;
      inv_bps += std::max(p[m], 0.0) * inv_rate(idx[m]);
    }
    if (inv_bps > inv_rate_target * (1.0 + 1e-9)) return;  // too slow
    consider(idx, p);
  };
  for (std::size_t a = 0; a < n; ++a) {
    const double ratio_a = t_of(a) / r_of(a);
    if (std::fabs(ratio_a - k) <= 1e-9 * std::max(ratio_a, k)) {
      consider_if_fast_enough({a}, {1.0});
    }
    for (std::size_t b = a + 1; b < n; ++b) {
      const double denom = (t_of(a) - t_of(b)) - k * (r_of(a) - r_of(b));
      if (std::fabs(denom) < 1e-30) continue;
      const double p = (k * r_of(b) - t_of(b)) / denom;
      if (p < -1e-12 || p > 1.0 + 1e-12) continue;
      consider_if_fast_enough({a, b}, {std::clamp(p, 0.0, 1.0),
                                       1.0 - std::clamp(p, 0.0, 1.0)});
    }
  }

  // Family (b): throughput tight -> 3-equality system over triples.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        // Cramer's rule on the 3x3 system.
        const double m[3][3] = {
            {1.0, 1.0, 1.0},
            {t_of(a) - k * r_of(a), t_of(b) - k * r_of(b),
             t_of(c) - k * r_of(c)},
            {inv_rate(a), inv_rate(b), inv_rate(c)}};
        const double rhs[3] = {1.0, 0.0, inv_rate_target};
        auto det3 = [](const double mm[3][3]) {
          return mm[0][0] * (mm[1][1] * mm[2][2] - mm[1][2] * mm[2][1]) -
                 mm[0][1] * (mm[1][0] * mm[2][2] - mm[1][2] * mm[2][0]) +
                 mm[0][2] * (mm[1][0] * mm[2][1] - mm[1][1] * mm[2][0]);
        };
        const double d = det3(m);
        if (std::fabs(d) < 1e-30) continue;
        double p[3];
        for (int col = 0; col < 3; ++col) {
          double mc[3][3];
          for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j) mc[i][j] = m[i][j];
          }
          for (int i = 0; i < 3; ++i) mc[i][col] = rhs[i];
          p[col] = det3(mc) / d;
        }
        consider({a, b, c}, {p[0], p[1], p[2]});
      }
    }
  }
  // Pairs where the throughput constraint happens to be tight too.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double denom = inv_rate(a) - inv_rate(b);
      if (std::fabs(denom) < 1e-30) continue;
      const double p1 = (inv_rate_target - inv_rate(b)) / denom;
      const double p2 = 1.0 - p1;
      // Must also satisfy the ratio equality.
      const double lhs = p1 * (t_of(a) - k * r_of(a)) +
                         p2 * (t_of(b) - k * r_of(b));
      const double scale = std::max(
          {std::fabs(t_of(a)), std::fabs(k * r_of(a)), 1e-30});
      if (std::fabs(lhs) > 1e-9 * scale) continue;
      consider({a, b}, {p1, p2});
    }
  }
  if (found) return checked_plan(std::move(constrained));

  // No proportional plan reaches min_bps: hand back the fastest
  // proportional mix (maximize throughput subject to the ratio).
  OffloadPlan fastest = best;
  double fastest_bps = plan_throughput_bps(best);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      // Mix hitting the ratio exactly (same algebra as evaluate_pair).
      const double denom = (t_of(a) - t_of(b)) - k * (r_of(a) - r_of(b));
      if (std::fabs(denom) < 1e-30) continue;
      const double p = (k * r_of(b) - t_of(b)) / denom;
      if (p < -1e-12 || p > 1.0 + 1e-12) continue;
      OffloadPlan mix;
      mix.proportional = true;
      PlanEntry ea;
      ea.candidate = candidates[a];
      ea.fraction = std::clamp(p, 0.0, 1.0);
      PlanEntry eb;
      eb.candidate = candidates[b];
      eb.fraction = 1.0 - ea.fraction;
      if (ea.fraction > 1e-12) mix.entries.push_back(ea);
      if (eb.fraction > 1e-12) mix.entries.push_back(eb);
      mix.tx_joules_per_bit =
          ea.fraction * t_of(a) + eb.fraction * t_of(b);
      mix.rx_joules_per_bit =
          ea.fraction * r_of(a) + eb.fraction * r_of(b);
      const double bps = plan_throughput_bps(mix);
      if (bps > fastest_bps) {
        fastest_bps = bps;
        fastest = mix;
      }
    }
  }
  fastest.meets_throughput = false;
  return checked_plan(std::move(fastest));
}

std::vector<ModeCandidate> OffloadPlanner::intersect_candidates(
    const hal::Capabilities& tx_caps, const hal::Capabilities& rx_caps) {
  std::vector<ModeCandidate> out;
  for (const hal::OperatingPoint& tx_point : tx_caps.lattice) {
    const hal::OperatingPoint* rx_point =
        rx_caps.find(tx_point.mode, tx_point.rate);
    if (rx_point == nullptr) continue;
    bool ok = false;
    switch (tx_point.mode) {
      case hal::LinkMode::Active:
        ok = tx_caps.can_active && rx_caps.can_active;
        break;
      case hal::LinkMode::PassiveRx:
        ok = tx_caps.can_source_carrier;
        break;
      case hal::LinkMode::Backscatter:
        ok = tx_caps.can_backscatter && rx_caps.can_source_carrier;
        break;
    }
    if (!ok) continue;
    ModeCandidate merged = tx_point;
    merged.rx_power_w = rx_point->rx_power_w;
    out.push_back(merged);
  }
  return out;
}

OffloadPlan OffloadPlanner::plan_bidirectional(
    const std::vector<ModeCandidate>& candidates, double e1_joules,
    double e2_joules) {
  check_inputs(candidates, e1_joules, e2_joules);
  obs::count(obs::Counter::OffloadPlans);
  // A composite bit is half a bit device1 -> device2 using candidate i plus
  // half a bit device2 -> device1 using candidate j (roles swapped).
  std::vector<CostPoint> costs;
  costs.reserve(candidates.size() * candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double t1 = candidates[i].tx_joules_per_bit();
    const double r1 = candidates[i].rx_joules_per_bit();
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      const double t2 = candidates[j].tx_joules_per_bit();
      const double r2 = candidates[j].rx_joules_per_bit();
      costs.push_back({0.5 * t1 + 0.5 * r2, 0.5 * r1 + 0.5 * t2, i,
                       static_cast<std::ptrdiff_t>(j)});
    }
  }
  return checked_plan(solve(costs, candidates, candidates, e1_joules,
                            e2_joules));
}

double single_mode_bits(const ModeCandidate& candidate, double e1_joules,
                        double e2_joules, bool bidirectional) {
  const double t = candidate.tx_joules_per_bit();
  const double r = candidate.rx_joules_per_bit();
  if (!bidirectional) return std::min(e1_joules / t, e2_joules / r);
  // Roles alternate, so each end pays the mean of the two costs.
  return std::min(e1_joules, e2_joules) / (0.5 * (t + r));
}

OffloadPlan plan_link(const hal::Capabilities& caps,
                      const std::vector<ModeCandidate>& candidates,
                      double e1_joules, double e2_joules, bool bidirectional,
                      double bits_per_dwell) {
  if (!(bits_per_dwell > 0.0)) {
    throw std::invalid_argument("plan_link: bits_per_dwell must be > 0");
  }
  OffloadPlan plan =
      bidirectional
          ? OffloadPlanner::plan_bidirectional(candidates, e1_joules,
                                               e2_joules)
          : OffloadPlanner::plan(candidates, e1_joules, e2_joules);
  if (plan.entries.size() >= 2) {
    // One schedule cycle visits every entry once and charges its switch-in
    // cost at both ends; the largest entry dwells bits_per_dwell bits.
    double max_fraction = 0.0, tx_extra = 0.0, rx_extra = 0.0;
    for (const auto& e : plan.entries) {
      max_fraction = std::max(max_fraction, e.fraction);
      const auto& o =
          caps.switch_overhead[static_cast<int>(e.candidate.mode)];
      tx_extra += o.tx_joules;
      rx_extra += o.rx_joules;
      if (e.reverse) {  // roles swap: device 1 receives in the reverse leg
        const auto& ro =
            caps.switch_overhead[static_cast<int>(e.reverse->mode)];
        tx_extra += ro.rx_joules;
        rx_extra += ro.tx_joules;
      }
    }
    const double cycle_bits = bits_per_dwell / max_fraction;
    plan.tx_joules_per_bit += tx_extra / cycle_bits;
    plan.rx_joules_per_bit += rx_extra / cycle_bits;
  }
  // A lone mode pays no switches, and Eq. 1's proportional mix can trail
  // one even without them: stay in the best exclusive mode when it moves
  // more bits.
  double bits = plan.bits_until_depletion(e1_joules, e2_joules);
  double best_single = 0.0;
  const ModeCandidate* exclusive = nullptr;
  for (const auto& c : candidates) {
    const double single =
        single_mode_bits(c, e1_joules, e2_joules, bidirectional);
    best_single = std::max(best_single, single);
    if (single > bits) {
      bits = single;
      exclusive = &c;
    }
  }
  if (exclusive != nullptr) {
    const double t = exclusive->tx_joules_per_bit();
    const double r = exclusive->rx_joules_per_bit();
    plan.entries.assign(1, PlanEntry{*exclusive, std::nullopt, 1.0});
    if (bidirectional) plan.entries.front().reverse = *exclusive;
    plan.proportional = false;
    plan.tx_joules_per_bit = bidirectional ? 0.5 * (t + r) : t;
    plan.rx_joules_per_bit = bidirectional ? 0.5 * (t + r) : r;
  }
  BRAIDIO_ENSURE(std::isfinite(bits) && bits >= best_single, "bits", bits,
                 "best_single", best_single);
  return plan;
}

}  // namespace braidio::plan
