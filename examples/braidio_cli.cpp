// braidio_cli: command-line front end to the library.
//
//   braidio_cli plan <e1_wh> <e2_wh> <distance_m> [--bidirectional]
//   braidio_cli braid <e1_wh> <e2_wh> <distance_m> [packets]
//                     [--bidirectional]
//   braidio_cli profile <e1_wh> <e2_wh> <distance_m> [packets]
//                     [--bidirectional] [--flame-out=<file>]
//   braidio_cli lifetime <tx-device> <rx-device> [distance_m]
//   braidio_cli matrix [distance_m]
//   braidio_cli ber <active|passive|backscatter> <10k|100k|1M>
//   braidio_cli net [--topology=<star|grid|rgg>] [--nodes=<n>]
//                   [--packets=<n>] [--extent=<m>] [--range=<m>]
//                   [--seed=<n>] [--mac=<csma|tdma>]
//   braidio_cli regimes
//   braidio_cli devices
//   braidio_cli backends
//
// Global flags (any command):
//   --trace-out=<file>   enable the obs tracer, write Chrome trace JSON
//                        (load in chrome://tracing / Perfetto) on exit
//   --trace-ring=<n>     per-lane trace ring capacity in events (default
//                        262144, at most 16777216); requires --trace-out
//   --metrics            print the metrics registry after the command
//   --log-level=<level>  trace|debug|info|warn|error|off (default warn)
//   --faults=<file>      scripted fault timeline (sim/faults text format)
//                        injected into commands that run the event
//                        simulator (currently: braid)
//   --backend=<name>     radio backend behind the HAL (default braidio;
//                        see `braidio_cli backends` for the registry)
//
// Device names are the Fig. 1 catalog entries ("Apple Watch", "iPhone 6S",
// ...). All output is plain tables; exit code 2 flags usage errors.
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "core/braidio_radio.hpp"
#include "core/efficiency.hpp"
#include "core/lifetime_sim.hpp"
#include "net/network_sim.hpp"
#include "obs/obs.hpp"
#include "plan/offload.hpp"
#include "sim/faults/fault_timeline.hpp"
#include "sim/faults/impairment.hpp"
#include "sim/run_report.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace braidio;

int usage() {
  std::cerr <<
      "usage:\n"
      "  braidio_cli plan <e1_wh> <e2_wh> <distance_m> [--bidirectional]\n"
      "  braidio_cli braid <e1_wh> <e2_wh> <distance_m> [packets]"
      " [--bidirectional]\n"
      "  braidio_cli profile <e1_wh> <e2_wh> <distance_m> [packets]"
      " [--bidirectional] [--flame-out=<file>]\n"
      "  braidio_cli lifetime <tx-device> <rx-device> [distance_m]\n"
      "  braidio_cli matrix [distance_m]\n"
      "  braidio_cli ber <active|passive|backscatter> <10k|100k|1M>\n"
      "  braidio_cli net [--topology=<star|grid|rgg>] [--nodes=<n>]"
      " [--packets=<n>]\n"
      "                  [--extent=<m>] [--range=<m>] [--seed=<n>]"
      " [--mac=<csma|tdma>]\n"
      "                  [--net-stats-out=<file>]\n"
      "  braidio_cli regimes\n"
      "  braidio_cli devices\n"
      "  braidio_cli backends\n"
      "global flags: --trace-out=<file> --trace-ring=<n> --metrics\n"
      "              --log-level=<level> --faults=<file>\n"
      "              --backend=<name>\n";
  return 2;
}

/// Default per-lane trace ring capacity when exporting with --trace-out.
/// A file export asks for the whole run, not a tail window, so the default
/// is sized for long runs (~256k events/lane, still bounded memory); drops
/// are reported on export either way. Override with --trace-ring=<n>.
constexpr std::size_t kDefaultTraceRingEvents = std::size_t{1} << 18;

struct GlobalOptions {
  std::string trace_out;
  std::size_t trace_ring = kDefaultTraceRingEvents;
  bool trace_ring_set = false;
  bool metrics = false;
  std::optional<sim::faults::ImpairmentSchedule> faults;
  std::string backend = backends::kBraidio;
};

/// Parse an unsigned integer flag value into `out`: the whole text, no
/// sign, within T's range. Otherwise report "bad <flag> value: <text>"
/// and return false (the caller exits 2).
template <typename T>
bool parse_unsigned_flag(const char* flag, const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc{} && ptr == end) return true;
  std::cerr << "bad " << flag << " value: " << text << '\n';
  return false;
}

/// Strip the global flags out of `args`; returns false on a bad value.
bool parse_global_flags(std::vector<std::string>& args,
                        GlobalOptions& options) {
  std::vector<std::string> rest;
  for (const auto& arg : args) {
    if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
      if (options.trace_out.empty()) return false;
    } else if (arg.rfind("--trace-ring=", 0) == 0) {
      const std::string value = arg.substr(13);
      if (!parse_unsigned_flag("--trace-ring", value, options.trace_ring)) {
        return false;
      }
      if (options.trace_ring == 0 ||
          options.trace_ring > obs::Tracer::kMaxLaneCapacity) {
        std::cerr << "bad --trace-ring value: " << value << " (want 1.."
                  << obs::Tracer::kMaxLaneCapacity << " events)\n";
        return false;
      }
      options.trace_ring_set = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      options.backend = arg.substr(10);
      if (options.backend.empty()) return false;
    } else if (arg.rfind("--faults=", 0) == 0) {
      std::string error;
      const auto timeline =
          sim::faults::FaultTimeline::parse_file(arg.substr(9), &error);
      if (!timeline) {
        std::cerr << "bad --faults file: " << error << '\n';
        return false;
      }
      options.faults.emplace(*timeline);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      util::LogLevel level;
      if (!util::parse_log_level(arg.substr(12), level)) {
        std::cerr << "bad --log-level value: " << arg.substr(12) << '\n';
        return false;
      }
      util::set_log_level(level);
    } else {
      rest.push_back(arg);
    }
  }
  if (options.trace_ring_set && options.trace_out.empty()) {
    std::cerr << "--trace-ring requires --trace-out (the ring only backs "
                 "the file export)\n";
    return false;
  }
  args = std::move(rest);
  return true;
}


std::optional<phy::LinkMode> parse_mode(const std::string& s) {
  if (s == "active") return phy::LinkMode::Active;
  if (s == "passive") return phy::LinkMode::PassiveRx;
  if (s == "backscatter") return phy::LinkMode::Backscatter;
  return std::nullopt;
}

std::optional<phy::Bitrate> parse_rate(const std::string& s) {
  if (s == "10k") return phy::Bitrate::k10;
  if (s == "100k") return phy::Bitrate::k100;
  if (s == "1M") return phy::Bitrate::M1;
  return std::nullopt;
}

/// Parse a finite number > 0 into `out`: the whole text. Otherwise report
/// "bad <name> value: <text>" and return false (the caller exits 2).
bool parse_positive(const char* name, const std::string& text, double& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc{} && ptr == end && std::isfinite(out) && out > 0.0) {
    return true;
  }
  std::cerr << "bad " << name << " value: " << text << '\n';
  return false;
}

/// The <e1_wh> <e2_wh> <distance_m> triple of plan, braid and profile.
bool parse_link_args(const std::vector<std::string>& args, double& e1_wh,
                     double& e2_wh, double& distance_m) {
  return parse_positive("e1_wh", args[0], e1_wh) &&
         parse_positive("e2_wh", args[1], e2_wh) &&
         parse_positive("distance_m", args[2], distance_m);
}

int cmd_plan(const hal::RadioBackend& backend,
             const std::vector<std::string>& args) {
  if (args.size() < 3) return usage();
  double e1_wh = 0.0, e2_wh = 0.0, d = 0.0;
  if (!parse_link_args(args, e1_wh, e2_wh, d)) return 2;
  const double e1 = util::wh_to_joules(e1_wh);
  const double e2 = util::wh_to_joules(e2_wh);
  const bool bidir = args.size() > 3 && args[3] == "--bidirectional";

  core::RegimeMap regimes(backend);
  const auto candidates = regimes.available_best_rate(d);
  if (candidates.empty()) {
    std::cout << "no link at " << d << " m\n";
    return 1;
  }
  const auto plan = plan::plan_link(regimes.caps(), candidates, e1, e2,
                                    bidir, plan::kInfiniteDwell);
  std::cout << "regime " << to_string(regimes.regime(d)) << " at " << d
            << " m; plan: " << plan.summary() << '\n'
            << "  device1 " << plan.tx_joules_per_bit * 1e9
            << " nJ/bit, device2 " << plan.rx_joules_per_bit * 1e9
            << " nJ/bit\n"
            << "  bits until first battery dies: "
            << plan.bits_until_depletion(e1, e2) << '\n';
  return 0;
}

int cmd_braid(const hal::RadioBackend& backend,
              const std::vector<std::string>& args,
              const GlobalOptions& options) {
  if (args.size() < 3) return usage();
  double e1_wh = 0.0, e2_wh = 0.0, d = 0.0;
  if (!parse_link_args(args, e1_wh, e2_wh, d)) return 2;
  std::uint64_t packets = 4096;
  bool bidir = false;
  for (std::size_t i = 3; i < args.size(); ++i) {
    if (args[i] == "--bidirectional") {
      bidir = true;
    } else if (!parse_unsigned_flag("packets", args[i], packets)) {
      return 2;
    }
  }

  core::RegimeMap regimes(backend);
  const auto device1 =
      backend.create_radio("device1", 1, util::WattHours(e1_wh));
  const auto device2 =
      backend.create_radio("device2", 2, util::WattHours(e2_wh));
  core::BraidedLinkConfig cfg;
  cfg.distance_m = d;
  cfg.bidirectional = bidir;
  if (options.faults) cfg.impairments = &*options.faults;
  core::BraidedLink link(*device1, *device2, regimes, cfg);
  const auto stats = link.run(packets);

  util::TablePrinter out({"metric", "value"});
  out.add_row({"packets offered", std::to_string(stats.data_packets_offered)});
  out.add_row({"packets delivered",
               std::to_string(stats.data_packets_delivered)});
  out.add_row({"delivery ratio",
               util::format_fixed(stats.delivery_ratio(), 4)});
  out.add_row({"retransmissions", std::to_string(stats.retransmissions)});
  out.add_row({"fallbacks", std::to_string(stats.fallbacks)});
  out.add_row({"replans", std::to_string(stats.replans)});
  out.add_row({"fault activations",
               std::to_string(stats.fault_activations)});
  out.add_row({"elapsed", util::format_fixed(stats.elapsed_s, 3) + " s"});
  out.add_row({"plan", stats.last_plan});
  out.print(std::cout);
  return 0;
}

// Run the same exchange as `braid` with energy attribution enabled and
// report where every joule went: the span-attributed tree, the
// per-device ledgers, and a conservation line (tree total vs ledger
// total). With --flame-out=<file>, also writes the collapsed-stack
// flame graph (feed to flamegraph.pl / speedscope).
int cmd_profile(const hal::RadioBackend& backend,
                const std::vector<std::string>& args,
                const GlobalOptions& options) {
  if (args.size() < 3) return usage();
  double e1_wh = 0.0, e2_wh = 0.0, d = 0.0;
  if (!parse_link_args(args, e1_wh, e2_wh, d)) return 2;
  std::uint64_t packets = 4096;
  bool bidir = false;
  std::string flame_out;
  for (std::size_t i = 3; i < args.size(); ++i) {
    if (args[i] == "--bidirectional") {
      bidir = true;
    } else if (args[i].rfind("--flame-out=", 0) == 0) {
      flame_out = args[i].substr(12);
      if (flame_out.empty()) return usage();
    } else if (!parse_unsigned_flag("packets", args[i], packets)) {
      return 2;
    }
  }

  obs::reset_global_energy_profile();
  obs::set_attribution_enabled(true);

  core::RegimeMap regimes(backend);
  const auto device1 =
      backend.create_radio("device1", 1, util::WattHours(e1_wh));
  const auto device2 =
      backend.create_radio("device2", 2, util::WattHours(e2_wh));
  core::BraidedLinkConfig cfg;
  cfg.distance_m = d;
  cfg.bidirectional = bidir;
  if (options.faults) cfg.impairments = &*options.faults;
  core::BraidedLink link(*device1, *device2, regimes, cfg);
  const auto stats = link.run(packets);

  obs::set_attribution_enabled(false);
  const auto profile = obs::global_energy_profile_snapshot();

  std::cout << "delivered " << stats.data_packets_delivered << "/"
            << stats.data_packets_offered << " packets in "
            << util::format_fixed(stats.elapsed_s, 3) << " s (plan: "
            << stats.last_plan << ")\n\n";
  if (profile.empty()) {
    std::cout << "(no energy attribution recorded — observability "
                 "disabled build?)\n";
    return 0;
  }
  std::cout << "energy attribution (span tree):\n" << profile.tree_report()
            << '\n';
  std::cout << "device1 ledger:\n" << device1->ledger().report() << '\n'
            << "device2 ledger:\n" << device2->ledger().report() << '\n';

  const double ledger_total =
      device1->ledger().total_joules() + device2->ledger().total_joules();
  std::cout << "conservation: tree "
            << util::format_engineering(profile.total_joules(), 6)
            << "J vs ledgers "
            << util::format_engineering(ledger_total, 6) << "J\n";

  if (!flame_out.empty()) {
    std::ofstream f(flame_out, std::ios::binary | std::ios::trunc);
    if (f) f << profile.to_collapsed_stack();
    if (!f.good()) {
      std::cerr << "flame-graph export failed: " << flame_out << '\n';
      return 1;
    }
    std::cout << "[flame] wrote " << flame_out
              << " (collapsed-stack; render with flamegraph.pl)\n";
  }
  return 0;
}

int cmd_lifetime(const hal::RadioBackend& backend,
                 const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const auto tx = energy::find_device(args[0]);
  const auto rx = energy::find_device(args[1]);
  if (!tx || !rx) {
    std::cerr << "unknown device; try `braidio_cli devices`\n";
    return 2;
  }
  core::LifetimeConfig cfg;
  if (args.size() > 2 &&
      !parse_positive("distance_m", args[2], cfg.distance_m)) {
    return 2;
  }

  core::LifetimeSimulator sim(backend);
  const auto e1 = util::to_joules(util::WattHours(tx->battery_wh));
  const auto e2 = util::to_joules(util::WattHours(rx->battery_wh));
  const auto outcome = sim.braidio(e1, e2, cfg);

  util::TablePrinter out({"radio", "total bits", "duration", "plan"});
  out.add_row({"Braidio", util::format_scientific(outcome.bits, 4),
               util::format_fixed(outcome.seconds / 3600.0, 1) + " h",
               outcome.plan.summary()});
  const double bt = sim.bluetooth_bits(e1, e2, false);
  out.add_row({"Bluetooth", util::format_scientific(bt, 4),
               util::format_fixed(bt / 1e6 / 3600.0, 1) + " h", "-"});
  out.print(std::cout);
  std::cout << "gain: " << util::format_fixed(outcome.bits / bt, 2)
            << "x\n";
  return 0;
}

int cmd_matrix(const hal::RadioBackend& backend,
               const std::vector<std::string>& args) {
  core::LifetimeConfig cfg;
  if (!args.empty() &&
      !parse_positive("distance_m", args[0], cfg.distance_m)) {
    return 2;
  }
  core::LifetimeSimulator sim(backend);
  const auto& catalog = energy::device_catalog();
  std::vector<std::string> headers{"RX \\ TX"};
  for (const auto& d : catalog) headers.push_back(d.name.substr(0, 8));
  util::TablePrinter out(std::move(headers));
  for (const auto& rx : catalog) {
    std::vector<std::string> row{rx.name.substr(0, 8)};
    for (const auto& tx : catalog) {
      row.push_back(util::format_engineering(
          sim.gain_vs_bluetooth(tx, rx, cfg), 3));
    }
    out.add_row(std::move(row));
  }
  out.print(std::cout);
  return 0;
}

int cmd_ber(const hal::RadioBackend& backend,
            const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const auto mode = parse_mode(args[0]);
  const auto rate = parse_rate(args[1]);
  if (!mode || !rate) return usage();
  if (backend.caps().find(*mode, *rate) == nullptr) {
    std::cerr << "backend '" << backend.name() << "' does not support "
              << hal::to_string(*mode) << "@" << hal::to_string(*rate)
              << '\n';
    return 1;
  }
  const hal::ChannelModel& channel = backend.channel();
  util::TablePrinter out({"distance [m]", "SNR [dB]", "BER"});
  for (double d = 0.25; d <= 6.01; d += 0.25) {
    out.add_row({util::format_fixed(d, 2),
                 util::format_fixed(channel.snr_db(*mode, *rate, d), 1),
                 util::format_scientific(channel.ber(*mode, *rate, d), 3)});
  }
  out.print(std::cout);
  const double range = channel.range_m(*mode, *rate);
  std::cout << "operating range (BER < "
            << channel.ber(*mode, *rate, range)
            << "): " << util::format_fixed(range, 2)
            << " m\n";
  return 0;
}

/// The per-node CSV beside the stats JSON: a trailing ".json" becomes
/// ".csv", any other path gains ".csv" — "run.json" -> "run.csv",
/// "run" -> "run.csv".
std::string stats_csv_path(const std::string& path) {
  const std::string json_ext = ".json";
  if (path.size() > json_ext.size() &&
      path.compare(path.size() - json_ext.size(), json_ext.size(),
                   json_ext) == 0) {
    return path.substr(0, path.size() - json_ext.size()) + ".csv";
  }
  return path + ".csv";
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.flush();
  if (!out) {
    std::cerr << "failed to write " << path << '\n';
    return false;
  }
  return true;
}

// Many-node discrete-event network run: build the topology, drain the
// scheduler, and report delivery + energy. Global --backend and --faults
// plug straight into the NetConfig.
int cmd_net(const hal::RadioBackend& backend,
            const std::vector<std::string>& args,
            const GlobalOptions& options) {
  net::NetConfig cfg;
  cfg.backend = &backend;
  if (options.faults) cfg.impairments = &*options.faults;
  std::string stats_out;
  for (const auto& arg : args) {
    if (arg.rfind("--topology=", 0) == 0) {
      const auto kind = net::parse_topology(arg.substr(11));
      if (!kind) {
        std::cerr << "bad --topology value: " << arg.substr(11)
                  << " (want star|grid|rgg)\n";
        return 2;
      }
      cfg.topology.kind = *kind;
    } else if (arg.rfind("--nodes=", 0) == 0) {
      if (!parse_unsigned_flag("--nodes", arg.substr(8),
                               cfg.topology.nodes)) {
        return 2;
      }
    } else if (arg.rfind("--packets=", 0) == 0) {
      if (!parse_unsigned_flag("--packets", arg.substr(10),
                               cfg.packets_per_node)) {
        return 2;
      }
    } else if (arg.rfind("--extent=", 0) == 0) {
      if (!parse_positive("--extent", arg.substr(9),
                          cfg.topology.extent_m)) {
        return 2;
      }
    } else if (arg.rfind("--range=", 0) == 0) {
      if (!parse_positive("--range", arg.substr(8),
                          cfg.topology.link_range_m)) {
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parse_unsigned_flag("--seed", arg.substr(7), cfg.seed)) return 2;
    } else if (arg.rfind("--mac=", 0) == 0) {
      try {
        cfg.mac = net::parse_mac(arg.substr(6));
      } catch (const std::invalid_argument&) {
        std::cerr << "bad --mac value: " << arg.substr(6)
                  << " (want csma|tdma)\n";
        return 2;
      }
    } else if (arg.rfind("--net-stats-out=", 0) == 0) {
      stats_out = arg.substr(16);
      if (stats_out.empty()) {
        std::cerr << "--net-stats-out needs a file path\n";
        return 2;
      }
      cfg.flight_recorder = true;
    } else {
      std::cerr << "unknown net flag: " << arg << '\n';
      return usage();
    }
  }

  net::NetworkSimulator sim(cfg);
  const auto stats = sim.run();

  util::TablePrinter out({"metric", "value"});
  out.add_row({"topology", net::to_string(cfg.topology.kind)});
  out.add_row({"mac", net::to_string(cfg.mac)});
  out.add_row({"nodes (tags + hub)",
               std::to_string(cfg.topology.nodes + 1)});
  out.add_row({"reachable", std::to_string(stats.reachable)});
  out.add_row({"planned uplinks", std::to_string(stats.planned)});
  out.add_row({"max hops", std::to_string(stats.max_hops)});
  out.add_row({"events", std::to_string(stats.events)});
  out.add_row({"virtual time",
               util::format_fixed(stats.elapsed_s, 3) + " s"});
  out.add_row({"generated", std::to_string(stats.generated)});
  out.add_row({"delivered", std::to_string(stats.delivered)});
  out.add_row({"forwarded", std::to_string(stats.forwarded)});
  out.add_row({"tx attempts", std::to_string(stats.tx_attempts)});
  out.add_row({"access failures", std::to_string(stats.csma_failures)});
  out.add_row({"arq drops", std::to_string(stats.arq_drops)});
  if (cfg.mac == net::MacKind::Tdma) {
    out.add_row({"tdma rounds", std::to_string(stats.mac.rounds)});
    out.add_row({"registrations", std::to_string(stats.mac.registrations)});
    out.add_row({"slots reclaimed",
                 std::to_string(stats.mac.slots_reclaimed)});
  }
  out.add_row({"battery deaths", std::to_string(stats.battery_deaths)});
  out.add_row({"hub energy",
               util::format_engineering(stats.hub_joules, 4) + "J"});
  out.add_row({"total energy",
               util::format_engineering(stats.total_joules, 4) + "J"});
  out.add_row({"goodput", util::format_engineering(
                              stats.bits_per_joule(), 4) + "bits/J"});
  out.print(std::cout);

  if (!stats_out.empty()) {
    const auto& record = sim.flight_record();
    if (!record.enabled) {
      std::cerr << "--net-stats-out: flight recorder unavailable "
                   "(built with BRAIDIO_OBS=OFF)\n";
      return 1;
    }
    const std::string csv_path = stats_csv_path(stats_out);
    if (!write_text_file(stats_out, record.to_json()) ||
        !write_text_file(csv_path, record.to_csv())) {
      return 1;
    }
    std::cout << "net stats: " << stats_out << " (+ " << csv_path << ")\n";
  }
  return 0;
}

int cmd_regimes(const hal::RadioBackend& backend) {
  core::RegimeMap map(backend);
  std::cout << "Regime A (carrier movable to either end): <= "
            << util::format_fixed(map.regime_a_limit_m(), 2) << " m\n"
            << "Regime B (receiver can shed its carrier): <= "
            << util::format_fixed(map.regime_b_limit_m(), 2) << " m\n"
            << "Regime C (active only) beyond that.\n";
  const auto region = efficiency_region(map, 0.3);
  std::cout << "dynamic range at 0.3 m: "
            << util::format_fixed(region.span_orders_of_magnitude(), 2)
            << " orders of magnitude\n";
  return 0;
}

int cmd_backends() {
  backends::register_all();
  util::TablePrinter out({"backend", "description"});
  for (const auto& name : hal::BackendRegistry::instance().names()) {
    out.add_row({name,
                 hal::BackendRegistry::instance().get(name).description()});
  }
  out.print(std::cout);
  return 0;
}

int cmd_devices() {
  util::TablePrinter out({"device", "battery [Wh]"});
  for (const auto& d : energy::device_catalog()) {
    out.add_row({d.name, util::format_fixed(d.battery_wh, 2)});
  }
  out.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  GlobalOptions options;
  if (!parse_global_flags(args, options)) return usage();
  if (args.empty()) return usage();
  const std::string cmd = args.front();
  args.erase(args.begin());
  if (!options.trace_out.empty()) {
    // The one place the ring is sized: the documented default
    // (kDefaultTraceRingEvents) or the explicit --trace-ring=<n> value.
    obs::Tracer::instance().set_lane_capacity(options.trace_ring);
    obs::Tracer::instance().set_enabled(true);
  }

  backends::register_all();
  if (!hal::BackendRegistry::instance().contains(options.backend)) {
    std::cerr << "unknown backend '" << options.backend
              << "'; try `braidio_cli backends`\n";
    return 2;
  }
  const hal::RadioBackend& backend =
      hal::BackendRegistry::instance().get(options.backend);

  int rc = 2;
  bool ran = true;
  try {
    if (cmd == "plan") rc = cmd_plan(backend, args);
    else if (cmd == "braid") rc = cmd_braid(backend, args, options);
    else if (cmd == "profile") rc = cmd_profile(backend, args, options);
    else if (cmd == "lifetime") rc = cmd_lifetime(backend, args);
    else if (cmd == "matrix") rc = cmd_matrix(backend, args);
    else if (cmd == "ber") rc = cmd_ber(backend, args);
    else if (cmd == "net") rc = cmd_net(backend, args, options);
    else if (cmd == "regimes") rc = cmd_regimes(backend);
    else if (cmd == "devices") rc = cmd_devices();
    else if (cmd == "backends") rc = cmd_backends();
    else ran = false;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    rc = 1;
  }
  if (!ran) return usage();

  if (options.metrics) {
    const auto snapshot = obs::global_metrics_snapshot();
    if (snapshot.empty()) {
      std::cout << "(no metrics recorded)\n";
    } else {
      snapshot.to_table().print(std::cout);
    }
  }
  if (!options.trace_out.empty() &&
      !sim::write_trace_json(options.trace_out, std::cout)) {
    rc = rc == 0 ? 1 : rc;
  }
  return rc;
}
