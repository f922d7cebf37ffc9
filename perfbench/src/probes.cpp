#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "backends/backends.hpp"
#include "core/offload.hpp"
#include "core/regimes.hpp"
#include "energy/device_catalog.hpp"
#include "energy/ledger.hpp"
#include "net/event_queue.hpp"
#include "net/medium.hpp"
#include "obs/metrics.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace bx = braidio;

constexpr int kRepeats = 5;
constexpr std::size_t kQueries = 200000;

/// Keeps probe results observable so the loops are not optimised away.
volatile double g_sink = 0.0;

/// Median over kRepeats of `loop()`'s seconds, divided by `calls`, in ns.
/// Library counters the loop posts land in a probe-local registry, as they
/// would in a sweep point's.
template <typename Loop>
double median_ns_per_call(std::size_t calls, Loop&& loop) {
  bx::obs::MetricsRegistry registry;
  const bx::obs::ScopedMetrics scoped(&registry);
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    g_sink = g_sink + loop();
    samples.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(calls));
  }
  return median(samples);
}

}  // namespace

double probe_event_queue_ns(const QueueShape& shape, std::uint64_t seed) {
  if (shape.events == 0 || shape.depth == 0) return 0.0;
  const std::size_t depth = shape.depth;
  const std::size_t ops =
      static_cast<std::size_t>(std::min<std::uint64_t>(shape.events, 400000));
  // Mean hold time that keeps `depth` events live over the run's span.
  double hold = shape.elapsed_s * static_cast<double>(depth) /
                static_cast<double>(shape.events);
  if (!(hold > 0.0)) hold = 1e-6;
  bx::util::Rng rng(seed);
  std::vector<double> first(depth);
  std::vector<double> step(ops);
  for (double& t : first) t = rng.uniform(0.0, hold);
  for (double& s : step) s = rng.exponential(hold);
  return median_ns_per_call(2 * ops, [&] {
    bx::net::EventQueue queue;
    for (std::size_t i = 0; i < depth; ++i) {
      queue.schedule(first[i], static_cast<std::uint32_t>(i), 0);
    }
    bx::net::Event ev;
    for (std::size_t i = 0; i < ops; ++i) {
      queue.pop(ev);
      queue.schedule(ev.time_s + step[i], ev.node, ev.kind);
    }
    return queue.now_s();
  });
}

double probe_medium_ns(const std::vector<bx::net::Vec2>& positions,
                       std::size_t active) {
  const std::size_t n = positions.size();
  if (n < 2) return 0.0;
  active = std::clamp<std::size_t>(active, 1, n - 1);
  const std::size_t stride = (n - 1) / active;
  bx::net::SharedMedium medium(bx::net::MediumConfig{}, positions);
  std::vector<std::uint32_t> txs;
  for (std::size_t k = 0; k < active; ++k) {
    const auto tx = static_cast<std::uint32_t>(1 + k * stride);
    txs.push_back(tx);
    medium.begin(tx, 0, 1e9, -30.0);  // a backscatter interferer
  }
  return median_ns_per_call(kQueries, [&] {
    double acc = 0.0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      if (q % 2 == 0) {
        acc += medium.interference_penalty_db(0, txs[q % txs.size()]);
      } else {
        const auto node = static_cast<std::uint32_t>(1 + (q * 7919) % (n - 1));
        acc += medium.ambient_dbm(node, node);
      }
    }
    return acc;
  });
}

double probe_ber_ns(const bx::hal::ChannelModel& channel,
                    const std::vector<LinkSample>& links) {
  if (links.empty()) return 0.0;
  return median_ns_per_call(kQueries, [&] {
    double acc = 0.0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const LinkSample& link = links[q % links.size()];
      const double snr = channel.snr_db(link.mode, link.rate, link.distance_m);
      acc += channel.ber_from_snr_db(link.mode, snr);
    }
    return acc;
  });
}

double probe_ledger_ns() {
  using bx::energy::EnergyCategory;
  const EnergyCategory categories[] = {
      EnergyCategory::CarrierGeneration, EnergyCategory::PassiveRx,
      EnergyCategory::BackscatterTx, EnergyCategory::ModeSwitch,
      EnergyCategory::Idle};
  return median_ns_per_call(kQueries, [&] {
    bx::energy::EnergyLedger ledger;
    for (std::size_t q = 0; q < kQueries; ++q) {
      ledger.charge(categories[q % 5], bx::util::Joules(1e-9),
                    bx::util::Seconds(static_cast<double>(q) * 1e-6));
    }
    return ledger.total_joules();
  });
}

double time_streams(std::uint64_t seed, std::size_t count) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    bx::util::Rng rng = bx::util::Rng::stream(seed, i);
    // Let the engine escape so its construction cannot be optimised away.
    asm volatile("" : : "r"(&rng) : "memory");
  }
  return seconds_since(start);
}

double probe_offload_ns(const std::vector<double>& distances_m) {
  const bx::core::RegimeMap regimes(bx::backends::braidio_backend());
  std::vector<std::vector<bx::core::ModeCandidate>> candidates;
  for (const double d : distances_m) {
    candidates.push_back(regimes.available_best_rate(d));
  }
  std::vector<double> joules;
  for (const auto& device : bx::energy::device_catalog()) {
    joules.push_back(
        bx::util::to_joules(bx::util::WattHours(device.battery_wh)).value());
  }
  const std::size_t plans = candidates.size() * joules.size() * joules.size();
  if (plans == 0) return 0.0;
  return median_ns_per_call(plans, [&] {
    double acc = 0.0;
    for (const auto& c : candidates) {
      for (const double e1 : joules) {
        for (const double e2 : joules) {
          acc += bx::core::OffloadPlanner::plan(c, e1, e2).tx_joules_per_bit;
        }
      }
    }
    return acc;
  });
}

}  // namespace perfbench
