// Google-benchmark microbenchmarks for the library's hot paths: the
// planner (runs on every replan), the BER evaluators (every packet), the
// waveform Monte-Carlo, CRC, the transient circuit solver, the energy
// post, and the observability overhead contract.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "backends/backends.hpp"
#include "core/lifetime_sim.hpp"
#include "circuits/charge_pump.hpp"
#include "energy/ledger.hpp"
#include "mac/crc.hpp"
#include "net/network_sim.hpp"
#include "obs/obs.hpp"
#include "phy/ber.hpp"
#include "phy/link_budget.hpp"
#include "phy/waveform.hpp"
#include "plan/offload.hpp"
#include "util/rng.hpp"

namespace {

using namespace braidio;

void BM_OffloadPlan(benchmark::State& state) {
  core::PowerTable table;
  const auto candidates = table.candidates();
  const double ratio = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan::OffloadPlanner::plan(candidates, ratio, 1.0));
  }
}
BENCHMARK(BM_OffloadPlan)->Arg(1)->Arg(100)->Arg(2546);

void BM_OffloadPlanBidirectional(benchmark::State& state) {
  core::PowerTable table;
  const auto candidates = table.candidates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan::OffloadPlanner::plan_bidirectional(candidates, 17.0, 1.0));
  }
}
BENCHMARK(BM_OffloadPlanBidirectional);

void BM_BerEvaluation(benchmark::State& state) {
  phy::LinkBudget budget;
  double d = 0.1;
  for (auto _ : state) {
    d = d > 5.0 ? 0.1 : d + 0.001;
    benchmark::DoNotOptimize(
        budget.ber(phy::LinkMode::Backscatter, phy::Bitrate::k100, d));
  }
}
BENCHMARK(BM_BerEvaluation);

void BM_Crc16(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac::crc16(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc16)->Arg(64)->Arg(1024);

void BM_WaveformMonteCarlo(benchmark::State& state) {
  phy::LinkBudget budget;
  phy::WaveformSimConfig cfg;
  cfg.mode = phy::LinkMode::Backscatter;
  cfg.rate = phy::Bitrate::M1;
  cfg.distance_m = 0.85;
  cfg.bits = 1000;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(phy::simulate_waveform(budget, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.bits));
}
BENCHMARK(BM_WaveformMonteCarlo);

void BM_ChargePumpTransient(benchmark::State& state) {
  circuits::ChargePump pump;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pump.simulate(5e-6, 0.0, 16));
  }
}
BENCHMARK(BM_ChargePumpTransient);

void BM_LifetimeMatrixCell(benchmark::State& state) {
  core::LifetimeSimulator sim(backends::braidio_backend());
  const auto& catalog = energy::device_catalog();
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.gain_vs_bluetooth(catalog[0], catalog[9], cfg));
  }
}
BENCHMARK(BM_LifetimeMatrixCell);

// Observability overhead contract: a Fig. 15-style gain-matrix inner
// loop with instrumentation compiled in. Arg(0) runs with everything
// DISABLED — compare its time against a -DBRAIDIO_OBS=OFF build to see
// the contract's <2% ceiling; the instrumented layers only pay a relaxed
// atomic load per hook when the tracer is off. Arg(1) runs with tracing
// ENABLED, recording every event into a bounded ring, to price the worst
// case.
// Arg(2) additionally turns on energy attribution (span paths + profile
// posts on every ledger charge) to price full provenance collection.
void BM_Fig15SweepObs(benchmark::State& state) {
#if BRAIDIO_OBS_COMPILED
  const bool trace = state.range(0) != 0;
  const bool attribute = state.range(0) >= 2;
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(std::size_t{1} << 12);
  tracer.clear();
  tracer.set_enabled(trace);
  obs::set_attribution_enabled(attribute);
  obs::reset_global_energy_profile();
#endif
  core::LifetimeSimulator sim(backends::braidio_backend());
  const auto& catalog = energy::device_catalog();
  core::LifetimeConfig cfg;
  cfg.distance_m = 0.5;
  for (auto _ : state) {
    double total = 0.0;
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = 0; b < 4; ++b) {
        total += sim.gain_vs_bluetooth(catalog[a], catalog[b + 4], cfg);
      }
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 16);
#if BRAIDIO_OBS_COMPILED
  tracer.set_enabled(false);
  tracer.set_lane_capacity(std::size_t{1} << 14);
  tracer.clear();
  obs::set_attribution_enabled(false);
  obs::reset_global_energy_profile();
#endif
}
BENCHMARK(BM_Fig15SweepObs)->Arg(0)->Arg(1)->Arg(2);

// The price of one energy post with metrics compiled in: a ledger charge
// under a sweep point's scoped registry, which counts it and files its
// magnitude in the energy_post_joules histogram. The magnitudes jump
// between decades (1 nJ .. 100 J) in a random order, as a network's
// posts do, so no branch predictor learns the bucket; perfbench's ledger
// probe posts a constant 1 nJ.
void BM_EnergyPost(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<double> joules(1024);
  for (double& j : joules) j = std::pow(10.0, rng.uniform(-9.0, 2.0));
  obs::MetricsRegistry registry;
  const obs::ScopedMetrics scoped(&registry);
  energy::EnergyLedger ledger;
  std::size_t i = 0;
  for (auto _ : state) {
    ledger.charge(static_cast<energy::EnergyCategory>(
                      i % energy::kEnergyCategoryCount),
                  util::Joules(joules[i % joules.size()]));
    ++i;
  }
  benchmark::DoNotOptimize(ledger.total_joules());
  benchmark::DoNotOptimize(registry.value(obs::Counter::EnergyPosts));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnergyPost);

// Network flight-recorder overhead contract (DESIGN.md §17): one dense
// star run per iteration. Arg(0) runs with the recorder and tracer OFF
// — the always-on per-node counters cost one increment per event, and
// the disarmed recorder one branch per delivery and a relaxed load per
// flow-stage site, which is where the <2% disabled-overhead ceiling is
// priced. Arg(1) arms the recorder (latency, the end-of-run node-stats
// copy); Arg(2) additionally turns on packet-lifecycle tracing into a
// bounded ring.
void BM_NetFlightRecorder(benchmark::State& state) {
  const bool stats = state.range(0) >= 1;
  const bool trace = state.range(0) >= 2;
#if BRAIDIO_OBS_COMPILED
  auto& tracer = obs::Tracer::instance();
  tracer.set_lane_capacity(std::size_t{1} << 12);
  tracer.clear();
  tracer.set_enabled(trace);
#else
  (void)trace;
#endif
  backends::register_all();
  const hal::RadioBackend& backend =
      hal::BackendRegistry::instance().get(backends::kBraidio);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net::NetConfig cfg;
    cfg.backend = &backend;
    cfg.topology.kind = net::TopologyKind::Star;
    cfg.topology.nodes = 256;
    cfg.packets_per_node = 2;
    cfg.seed = ++seed;
    cfg.flight_recorder = stats;
    net::NetworkSimulator sim(cfg);
    const auto stats_out = sim.run();
    benchmark::DoNotOptimize(stats_out.events);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(stats_out.events));
  }
#if BRAIDIO_OBS_COMPILED
  tracer.set_enabled(false);
  tracer.set_lane_capacity(std::size_t{1} << 14);
  tracer.clear();
#endif
}
BENCHMARK(BM_NetFlightRecorder)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
