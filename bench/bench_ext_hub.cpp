// Extension: carrier amortization across a fleet of tags.
//
// One hub carrier serving N backscatter tags in hub-assigned TDMA slots
// (the network simulator's star under --mac=tdma): the hub's J/bit
// stays flat while the served traffic scales with N — the per-*tag*
// cost of the asymmetric architecture goes to the tag floor.
#include <iostream>

#include "backends/backends.hpp"
#include "net/network_sim.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Extension",
                        "One carrier, many tags (TDMA hub)");

  util::TablePrinter out({"nodes", "delivered", "hub J/bit", "mean node J",
                          "elapsed [s]"});
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    net::NetConfig config;
    config.backend = &backends::braidio_backend();
    config.topology.kind = net::TopologyKind::Star;
    config.topology.nodes = n;
    config.topology.extent_m = 0.8;  // every tag within backscatter@1M reach
    config.mac = net::MacKind::Tdma;
    config.packets_per_node = 400;
    config.payload_bytes = 24;
    config.tag_battery_wh = 0.5;
    config.kick_spread_s = 0.0;  // every tag has traffic at t = 0
    net::NetworkSimulator star(config);
    const net::NetStats stats = star.run();
    double node_j = 0.0;
    for (std::size_t i = 1; i < stats.node_joules.size(); ++i) {
      node_j += stats.node_joules[i];
    }
    node_j /= static_cast<double>(n);
    out.add_row({std::to_string(n),
                 util::format_engineering(
                     static_cast<double>(stats.delivered), 4),
                 util::format_scientific(
                     stats.hub_joules / stats.delivered_payload_bits, 3),
                 util::format_scientific(node_j, 3),
                 util::format_fixed(stats.elapsed_s, 2)});
  }
  out.print(std::cout);

  report.note("Hub J/bit is constant in fleet size (it pays per served "
              "bit, not per node) while each tag pays only the uW-class "
              "reflection cost — the paper's asymmetry story, scaled out.");
  return 0;
}
