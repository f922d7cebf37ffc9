// Extension: carrier amortization across a fleet of tags.
//
// One hub carrier serving N backscatter nodes in TDMA: the hub's J/bit
// stays flat while the served traffic scales with N — the per-*node* cost
// of the asymmetric architecture goes to the tag floor.
#include <iostream>

#include "backends/backends.hpp"
#include "core/carrier_hub.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Extension",
                        "One carrier, many tags (TDMA hub)");

  util::TablePrinter out({"nodes", "delivered", "hub J/bit", "mean node J",
                          "elapsed [s]"});
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    std::vector<core::HubNodeConfig> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back({"tag" + std::to_string(i), 0.5,
                       0.5 + 0.04 * static_cast<double>(i), 0.0, 24});
    }
    core::CarrierHub hub(backends::braidio_backend(), {}, nodes);
    const auto stats = hub.run(50);
    double node_j = 0.0;
    for (const auto& s : stats.nodes) node_j += s.node_joules;
    node_j /= static_cast<double>(stats.nodes.size());
    out.add_row({std::to_string(n),
                 util::format_engineering(stats.delivered_total(), 4),
                 util::format_scientific(stats.hub_joules_per_bit(24), 3),
                 util::format_scientific(node_j, 3),
                 util::format_fixed(stats.elapsed_s, 2)});
  }
  out.print(std::cout);

  report.note("Hub J/bit is constant in fleet size (it pays per served "
              "bit, not per node) while each tag pays only the uW-class "
              "reflection cost — the paper's asymmetry story, scaled out.");
  return 0;
}
