// NET dense: scheduler throughput on the 10k-passive-tag star.
//
// The hub-wall scenario of the paper's asymmetric-IoT framing at adverse
// density: 10,000 tags packed on a 2 m disc around one wall-powered hub,
// every tag pushing frames uplink on a shared medium. Each replica is
// one full discrete-event run; the sweep reports the scheduler's event
// throughput (events/sec across all replicas) and the delivered bits per
// joule of the dense deployment.
//
// `--mac=` selects the channel-access policy and with it the story:
//   csma (default) — uncoordinated CSMA-CA. The delivery ratio is
//       intentionally terrible: ~20 backscatter reflections on the air
//       at once sum above the -60 dBm CCA threshold, so nearly every CCA
//       sample reads busy and nearly every frame is dropped for channel
//       access (see DESIGN.md §15) — maximal contention, maximal event
//       churn, a good scheduler stress test. Telemetry:
//       BENCH_net_dense.json.
//   tdma — the hub assigns slots (DESIGN.md §16): one transmission on
//       the air at a time, so the same 10k tags deliver instead of
//       colliding. Telemetry: BENCH_net_tdma.json.
//
// Everything except wall time is deterministic: replica r always runs
// with the sweep's child seed for flat index r, so the per-replica event
// counts, delivery counts, and joules in the BENCH json are
// byte-identical for any --threads value.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "bench_common.hpp"
#include "net/network_sim.hpp"
#include "obs/obs.hpp"
#include "sim/run_report.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

braidio::net::MacKind mac_from_cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mac=", 6) == 0) {
      return braidio::net::parse_mac(argv[i] + 6);
    }
    if (std::strcmp(argv[i], "--mac") == 0 && i + 1 < argc) {
      return braidio::net::parse_mac(argv[i + 1]);
    }
  }
  return braidio::net::MacKind::Csma;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace braidio;

  const net::MacKind mac = mac_from_cli(argc, argv);
  const bool tdma = mac == net::MacKind::Tdma;
  const std::string name = tdma ? "net_tdma" : "net_dense";
  sim::RunReport report(std::cout, tdma ? "NET dense (TDMA)" : "NET dense",
                        std::string("10k-tag dense star: ") +
                            (tdma ? "hub-assigned slots deliver"
                                  : "scheduler event throughput"));

  constexpr std::size_t kTags = 10000;
  constexpr std::size_t kReplicas = 8;

  backends::register_all();
  const hal::RadioBackend& backend =
      hal::BackendRegistry::instance().get(backends::kBraidio);

  // Attribution stays off: this bench measures raw scheduler throughput,
  // and per-charge span attribution would tax exactly the path under
  // test. bits/J comes from the per-node ledgers, which are always on.
  sim::Scenario scenario(
      name, {sim::Axis::indexed("replica", kReplicas)},
      {"events", "delivered", tdma ? "acc fail" : "csma fail", "bits/J"},
      [&](sim::SweepPoint& p) {
        net::NetConfig cfg;
        cfg.backend = &backend;
        cfg.topology.kind = net::TopologyKind::Star;
        cfg.topology.nodes = kTags;
        cfg.mac = mac;
        cfg.seed = p.seed();
        net::NetworkSimulator sim(cfg);
        const auto stats = sim.run();
        sim::RunRecord record;
        record.cells = {std::to_string(stats.events),
                        std::to_string(stats.delivered),
                        std::to_string(stats.csma_failures),
                        util::format_engineering(stats.bits_per_joule(), 4)};
        record.numbers = {static_cast<double>(stats.events),
                          stats.delivered_payload_bits, stats.total_joules,
                          static_cast<double>(stats.generated),
                          static_cast<double>(stats.delivered),
                          static_cast<double>(stats.sched_retunes),
                          static_cast<double>(stats.sched_grows),
                          static_cast<double>(stats.sched_peak_depth)};
        return record;
      });

  const auto out =
      sim::SweepRunner(bench::sweep_options(argc, argv)).run(scenario);
  report.table(out);
  report.metrics(out);
  report.export_csv(name, out);
  report.export_json(name, out);

  double events = 0.0, bits = 0.0, joules = 0.0;
  double generated = 0.0, delivered = 0.0;
  double retunes = 0.0, grows = 0.0, peak_depth = 0.0;
  for (std::size_t row = 0; row < out.row_count(); ++row) {
    const auto& numbers = out.record(row).numbers;
    events += numbers[0];
    bits += numbers[1];
    joules += numbers[2];
    generated += numbers[3];
    delivered += numbers[4];
    retunes += numbers[5];
    grows += numbers[6];
    peak_depth = std::max(peak_depth, numbers[7]);
  }
  const double wall = out.total_wall_seconds();
  const double events_per_second = wall > 0.0 ? events / wall : 0.0;
  const double bits_per_joule = joules > 0.0 ? bits / joules : 0.0;
  const double delivery_pct =
      generated > 0.0 ? 100.0 * delivered / generated : 0.0;

  // Scheduler introspection rides the telemetry as soft (report-only)
  // fields: bench_compare.py prints drifts but never gates on them.
  bench::export_bench_telemetry(
      report, name, out, bits_per_joule,
      {{"events_per_second", events_per_second},
       {"sched_retunes", retunes},
       {"sched_grows", grows},
       {"sched_peak_depth", peak_depth}});

  report.check("scheduler throughput",
               tdma ? ">= 100k events/sec" : ">= 1M events/sec",
               util::format_engineering(events_per_second, 4) +
                   "events/sec (" + std::to_string(out.threads_used()) +
                   " threads)");
  if (tdma) {
    report.check("dense delivery", "> 90% (hub-assigned slots)",
                 util::format_engineering(delivery_pct, 4) + "%");
    report.check("dense goodput", "no collapse",
                 util::format_engineering(bits_per_joule, 4) + "bits/J");
  } else {
    report.check("dense goodput", "collapse (CCA busy, access drops)",
                 util::format_engineering(bits_per_joule, 4) + "bits/J");
  }
  report.note("events/sec = sum(net_events) / sweep wall time; the "
              "per-replica rows above are deterministic, the rate is not.");
  return 0;
}
