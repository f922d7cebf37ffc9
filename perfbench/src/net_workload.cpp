// Network workloads: the dense CSMA star and the multi-hop TDMA grid.
//
// One operation is one replica: a one-point SweepRunner sweep on one
// thread, whose evaluation constructs a net::NetworkSimulator on the
// braidio backend, runs it to completion, exports the flight record when
// it is armed, and checks the outputs:
//   * energy is conserved: NetStats' per-node joules equal each radio's
//     ledger, sum in index order to total_joules, and each ledger equals
//     the battery's capacity minus its remaining charge;
//   * every generated frame is delivered, dropped (access or ARQ), or
//     stranded in a relay queue (a frame may be in flight only at a node
//     whose battery died);
//   * the replica's deterministic results match the first replica of the
//     same seed byte for byte.
//
// The traced operations add spans around the simulator's constructor and
// run, mirror the constructor's topology build and RNG-stream phases from
// outside, and hand the simulator a TracedBackend, which times the
// create_radio calls and counts BER evaluations and CCA windows.
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/backends.hpp"
#include "mac/frame.hpp"
#include "mac/packet_channel.hpp"
#include "net/network_sim.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_runner.hpp"
#include "traced_backend.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace bx = braidio;

struct NetShape {
  const char* name = "";
  bx::net::TopologyConfig topology;
  bx::net::MacKind mac = bx::net::MacKind::Csma;
  bool flight_recorder = false;
};

NetShape shape_for(const std::string& name) {
  NetShape shape;
  if (name == "star_csma_dense") {
    // The bench_net_dense headline: 10k tags on a 2 m sunflower disc.
    shape.name = "star_csma_dense";
    shape.topology.kind = bx::net::TopologyKind::Star;
    shape.topology.nodes = 10000;
    shape.topology.extent_m = 2.0;
    shape.mac = bx::net::MacKind::Csma;
  } else if (name == "grid_tdma_relay") {
    // 50 x 50 lattice (hub at the centre): 0.5 m pitch, 0.6 m range, so
    // routes step between 4-neighbours, up to 50 hops.
    shape.name = "grid_tdma_relay";
    shape.topology.kind = bx::net::TopologyKind::Grid;
    shape.topology.nodes = 2499;
    shape.topology.extent_m = 49 * 0.5;
    shape.topology.link_range_m = 0.6;
    shape.mac = bx::net::MacKind::Tdma;
    shape.flight_recorder = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return shape;
}

/// The conservation and frame-accounting checks; "" when both hold.
std::string check_replica(const bx::net::NetworkSimulator& sim,
                          const bx::net::NetStats& stats) {
  const std::size_t n = sim.topology().size();
  if (stats.node_joules.size() != n) return "node_joules size mismatch";
  double sum = 0.0;
  std::uint64_t stranded = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const bx::hal::IRadio& radio = sim.node(i).radio();
    const double ledger = radio.ledger().total_joules();
    if (stats.node_joules[i] != ledger) {
      return "node " + std::to_string(i) + ": NetStats joules != ledger";
    }
    const double capacity = radio.battery().capacity_joules();
    const double drained = capacity - radio.battery().remaining_joules();
    if (std::abs(ledger - drained) > 1e-9 * capacity) {
      return "node " + std::to_string(i) +
             ": ledger != capacity - remaining";
    }
    sum += stats.node_joules[i];
    stranded += sim.node(i).backlog();
  }
  if (sum != stats.total_joules) {
    return "per-node ledgers do not sum to total_joules";
  }
  const std::uint64_t settled =
      stats.delivered + stats.csma_failures + stats.arq_drops + stranded;
  if (settled > stats.generated ||
      stats.generated - settled > stats.battery_deaths) {
    return "frames unaccounted: generated " +
           std::to_string(stats.generated) + ", settled " +
           std::to_string(settled);
  }
  return "";
}

/// Everything one replica reports back to the operation.
struct Replica {
  bx::net::NetStats stats;
  double setup_s = 0.0;
  double run_s = 0.0;
  double export_s = 0.0;
  double sweep_inner_s = 0.0;  // ResultTable::total_wall_seconds()
  std::uint64_t export_bytes = 0;
  std::uint64_t export_hash = 0;
  std::uint64_t energy_posts = 0;
  std::uint64_t mode_switches = 0;
  std::uint64_t arq_retries = 0;
  std::string failure;
};

class NetWorkload final : public Workload {
 public:
  NetWorkload(NetShape shape, std::uint64_t seed, Trace& trace)
      : shape_(shape),
        seed_(seed),
        trace_(trace),
        backend_(bx::backends::braidio_backend()),
        traced_backend_(backend_) {
    traced_backend_.set_count_senses(shape_.mac == bx::net::MacKind::Csma);
  }

  const char* work_unit() const override { return "events"; }

  OpResult run_op(bool traced, std::uint32_t op) override {
    trace_.set_op(op);
    // SweepRunner hands point 0 this seed; the mirrors use it too.
    const std::uint64_t point_seed = bx::util::Rng::stream_seed(seed_, 0);
    if (traced) mirror_setup(point_seed);
    traced_backend_.reset_counts();
    const bx::hal::RadioBackend& backend =
        traced ? static_cast<const bx::hal::RadioBackend&>(traced_backend_)
               : backend_;

    Replica rep;
    const auto start = Clock::now();
    {
      const Span op_span(trace_, "bench.op");
      const bx::sim::Scenario scenario(
          shape_.name, {bx::sim::Axis::indexed("replica", 1)}, {"events"},
          [&](bx::sim::SweepPoint& p) {
            return evaluate(p, backend, traced, rep);
          });
      try {
        std::optional<bx::sim::ResultTable> table;
        {
          const Span span(trace_, "sim.sweep.run");
          table.emplace(bx::sim::SweepRunner({1, seed_}).run(scenario));
        }
        rep.sweep_inner_s = table->total_wall_seconds();
        const auto& registry = table->metrics_registry();
        rep.energy_posts = registry.value(bx::obs::Counter::EnergyPosts);
        rep.mode_switches = registry.value(bx::obs::Counter::ModeSwitches);
        rep.arq_retries = registry.value(bx::obs::Counter::ArqRetries);
      } catch (const std::exception& e) {
        rep.failure = e.what();
      }
    }
    OpResult result;
    result.wall_s = seconds_since(start);
    result.setup_s = rep.setup_s;
    result.run_s = rep.run_s;
    result.export_s = rep.export_s;
    result.work = static_cast<double>(rep.stats.events);
    result.attempted = 1;
    result.fingerprint = fingerprint(rep);
    if (rep.failure.empty()) {
      if (!reference_) {
        reference_ = result.fingerprint;
      } else if (*reference_ != result.fingerprint) {
        rep.failure = "results differ from the first replica of this seed";
      }
    }
    if (!rep.failure.empty()) {
      result.failed = 1;
      result.failure = rep.failure;
    }
    if (traced) {
      traced_ops_.push_back(
          {op, rep.sweep_inner_s, traced_backend_.counts()});
    }
    last_ = std::move(rep);
    return result;
  }

  MetricMap outcome() const override {
    const bx::net::NetStats& s = last_.stats;
    MetricMap m;
    m["bits_per_joule"] = s.bits_per_joule();
    m["delivery_ratio"] =
        s.generated > 0 ? static_cast<double>(s.delivered) /
                              static_cast<double>(s.generated)
                        : 0.0;
    return m;
  }

  MetricMap per_layer() override;

 private:
  struct TracedOp {
    std::uint32_t op = 0;
    double sweep_inner_s = 0.0;
    HalCounts hal;
  };

  bx::net::NetConfig config(const bx::hal::RadioBackend& backend,
                            std::uint64_t seed) const {
    bx::net::NetConfig config;
    config.backend = &backend;
    config.topology = shape_.topology;
    config.mac = shape_.mac;
    config.seed = seed;
    config.flight_recorder = shape_.flight_recorder;
    return config;
  }

  bx::sim::RunRecord evaluate(bx::sim::SweepPoint& p,
                              const bx::hal::RadioBackend& backend,
                              bool traced, Replica& rep) {
    const Span eval_span(trace_, "sim.point.eval");
    const auto setup_start = Clock::now();
    std::optional<bx::net::NetworkSimulator> sim;
    {
      const Span span(trace_, "net.sim.ctor");
      sim.emplace(config(backend, p.seed()));
    }
    rep.setup_s = seconds_since(setup_start);
    const auto run_start = Clock::now();
    {
      const Span span(trace_, "net.sim.run");
      rep.stats = sim->run();
    }
    rep.run_s = seconds_since(run_start);
    if (shape_.flight_recorder) {
      const auto export_start = Clock::now();
      std::string json, csv;
      {
        const Span span(trace_, "obs.netstats_export");
        json = sim->flight_record().to_json();
        csv = sim->flight_record().to_csv();
      }
      rep.export_s = seconds_since(export_start);
      rep.export_bytes = json.size() + csv.size();
      Fingerprint f;
      f.add(json);
      f.add(csv);
      rep.export_hash = f.value();
    }
    rep.failure = check_replica(*sim, rep.stats);
    if (traced) capture_shape(*sim, rep.stats);
    bx::sim::RunRecord record;
    record.cells = {std::to_string(rep.stats.events)};
    record.numbers = {static_cast<double>(rep.stats.events)};
    return record;
  }

  /// Time the constructor's topology build and RNG-stream phases by
  /// repeating them from outside with the same inputs.
  void mirror_setup(std::uint64_t point_seed) {
    {
      const Span span(trace_, "net.topology.build");
      bx::util::Rng rng =
          bx::util::Rng::stream(point_seed, shape_.topology.nodes + 1);
      positions_ = bx::net::build_topology(shape_.topology, rng).positions;
    }
    const Span span(trace_, "util.rng.stream");
    time_streams(point_seed, streams());
  }

  /// Node streams [0, nodes] plus the topology's own stream.
  std::size_t streams() const { return shape_.topology.nodes + 2; }

  /// Record the run's link shapes for the PHY and medium probes.
  void capture_shape(const bx::net::NetworkSimulator& sim,
                     const bx::net::NetStats& stats) {
    const bx::net::Topology& topo = sim.topology();
    links_.clear();
    std::map<bx::hal::Bitrate, double> airtime;
    double busy_s = 0.0;
    for (std::uint32_t i = 1; i < topo.size(); ++i) {
      const auto point = sim.link_point(i);
      if (!point) continue;
      links_.push_back(
          {point->mode, point->rate,
           bx::net::distance_m(topo.positions[i],
                               topo.positions[topo.next_hop[i]])});
      auto it = airtime.find(point->rate);
      if (it == airtime.end()) {
        bx::mac::Frame frame;
        frame.payload.assign(bx::net::NetConfig{}.payload_bytes, 0);
        it = airtime
                 .emplace(point->rate, bx::mac::PacketChannel::airtime_s(
                                           frame, point->rate))
                 .first;
      }
      busy_s +=
          it->second * static_cast<double>(sim.node(i).stats().tx_attempts);
    }
    mean_active_ = stats.elapsed_s > 0.0 ? busy_s / stats.elapsed_s : 0.0;
  }

  static std::uint64_t fingerprint(const Replica& rep) {
    const bx::net::NetStats& s = rep.stats;
    Fingerprint f;
    for (const std::uint64_t v :
         {s.events, s.generated, s.delivered, s.forwarded, s.tx_attempts,
          s.csma_failures, s.arq_drops, s.battery_deaths,
          static_cast<std::uint64_t>(s.reachable),
          static_cast<std::uint64_t>(s.planned),
          static_cast<std::uint64_t>(s.max_hops), s.mac.rounds,
          s.mac.registrations, s.mac.slots_reclaimed, s.sched_retunes,
          s.sched_grows, s.sched_peak_depth, s.sched_scan_steps,
          rep.energy_posts, rep.mode_switches, rep.arq_retries,
          rep.export_bytes, rep.export_hash}) {
      f.add(v);
    }
    for (const double v : {s.elapsed_s, s.hub_joules, s.total_joules,
                           s.delivered_payload_bits, s.sched_width_s}) {
      f.add(v);
    }
    for (const double v : s.node_joules) f.add(v);
    return f.value();
  }

  NetShape shape_;
  std::uint64_t seed_;
  Trace& trace_;
  const bx::hal::RadioBackend& backend_;
  TracedBackend traced_backend_;
  std::optional<std::uint64_t> reference_;
  Replica last_;
  std::vector<TracedOp> traced_ops_;
  // Shapes for the probes, from the last traced replica.
  std::vector<bx::net::Vec2> positions_;
  std::vector<LinkSample> links_;
  double mean_active_ = 0.0;
};

MetricMap NetWorkload::per_layer() {
  MetricMap m;
  const auto totals = trace_.totals();
  std::vector<double> rng, radios, topology, ctor, leftover, run, sweep,
      overhead, merge, exports;
  for (const TracedOp& t : traced_ops_) {
    const auto it = totals.find(t.op);
    if (it == totals.end()) continue;
    const auto span = [&](const char* name) {
      const auto found = it->second.find(name);
      return found == it->second.end() ? 0.0 : found->second;
    };
    rng.push_back(span("util.rng.stream"));
    radios.push_back(t.hal.radio_s);
    topology.push_back(span("net.topology.build"));
    ctor.push_back(span("net.sim.ctor"));
    leftover.push_back(span("net.sim.ctor") - t.hal.radio_s -
                       span("util.rng.stream") -
                       span("net.topology.build"));
    run.push_back(span("net.sim.run"));
    sweep.push_back(span("sim.sweep.run"));
    overhead.push_back(span("sim.sweep.run") - span("sim.point.eval"));
    merge.push_back(span("sim.sweep.run") - t.sweep_inner_s);
    exports.push_back(span("obs.netstats_export"));
  }
  const bx::net::NetStats& s = last_.stats;
  const HalCounts hal =
      traced_ops_.empty() ? HalCounts{} : traced_ops_.back().hal;
  const double events = static_cast<double>(s.events);

  m["util.rng.stream_s"] = median(rng);
  m["util.rng.ns_per_stream"] =
      median(rng) * 1e9 / static_cast<double>(streams());
  m["backends.create_radio_s"] = median(radios);
  m["net.topology.build_s"] = median(topology);
  m["net.sim.ctor_s"] = median(ctor);
  m["net.sim.ctor_leftover_s"] = median(leftover);
  const double run_s = median(run);
  m["net.sim.run_s"] = run_s;
  m["net.host_ns_per_event"] = events > 0.0 ? run_s * 1e9 / events : 0.0;
  m["sim.sweep.run_s"] = median(sweep);
  m["sim.sweep.overhead_s"] = median(overhead);
  m["sim.sweep.merge_s"] = median(merge);
  m["sim.points"] = 1.0;
  m["obs.netstats_export_s"] = median(exports);
  m["obs.export_bytes"] = static_cast<double>(last_.export_bytes);

  // Probe estimates at this workload's shape, times exact call counts.
  const double queue_ns =
      probe_event_queue_ns({s.events, s.sched_peak_depth, s.elapsed_s},
                           seed_);
  const double queue_est = queue_ns * 2.0 * events * 1e-9;
  const double medium_ns = probe_medium_ns(
      positions_, static_cast<std::size_t>(std::lround(mean_active_)));
  const double medium_queries =
      2.0 * static_cast<double>(s.tx_attempts) +
      static_cast<double>(hal.senses);
  const double medium_est = medium_ns * medium_queries * 1e-9;
  const double ber_ns = probe_ber_ns(backend_.channel(), links_);
  const double phy_est = ber_ns * static_cast<double>(hal.ber_calls) * 1e-9;
  const double ledger_ns = probe_ledger_ns();
  const double ledger_est =
      ledger_ns * static_cast<double>(last_.energy_posts) * 1e-9;

  m["net.event_queue.ns_per_op"] = queue_ns;
  m["net.event_queue.est_s"] = queue_est;
  m["net.event_queue.scan_steps"] = static_cast<double>(s.sched_scan_steps);
  m["net.event_queue.peak_depth"] = static_cast<double>(s.sched_peak_depth);
  m["net.event_queue.retunes"] = static_cast<double>(s.sched_retunes);
  m["net.event_queue.grows"] = static_cast<double>(s.sched_grows);
  m["net.medium.ns_per_query"] = medium_ns;
  m["net.medium.est_s"] = medium_est;
  m["net.medium.mean_active"] = mean_active_;
  m["net.medium.queries"] = medium_queries;
  m["phy.ns_per_ber"] = ber_ns;
  m["phy.est_s"] = phy_est;
  m["phy.ber_calls"] = static_cast<double>(hal.ber_calls);
  m["energy.ledger.ns_per_charge"] = ledger_ns;
  m["energy.ledger.est_s"] = ledger_est;
  m["energy.posts"] = static_cast<double>(last_.energy_posts);
  m["hal.mode_switches"] = static_cast<double>(last_.mode_switches);
  m["net.sim.unattributed_s"] =
      run_s - (queue_est + medium_est + phy_est + ledger_est);

  m["net.mac.tdma_rounds"] = static_cast<double>(s.mac.rounds);
  m["net.mac.registrations"] = static_cast<double>(s.mac.registrations);
  m["net.events"] = events;
  m["net.tx_attempts"] = static_cast<double>(s.tx_attempts);
  m["net.delivered"] = static_cast<double>(s.delivered);
  m["net.forwarded"] = static_cast<double>(s.forwarded);
  m["net.csma_failures"] = static_cast<double>(s.csma_failures);
  m["net.arq_drops"] = static_cast<double>(s.arq_drops);
  m["mac.arq_retries"] = static_cast<double>(last_.arq_retries);
  m["net.useful_tx_ratio"] =
      s.tx_attempts > 0
          ? static_cast<double>(s.delivered + s.forwarded) /
                static_cast<double>(s.tx_attempts)
          : 0.0;
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_net_workload(const std::string& name,
                                            std::uint64_t seed,
                                            Trace& trace) {
  return std::make_unique<NetWorkload>(shape_for(name), seed, trace);
}

}  // namespace perfbench
