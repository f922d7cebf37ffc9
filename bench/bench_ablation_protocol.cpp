// Ablation: the packetized protocol (event simulator) vs the fluid model —
// where do the protocol's joules go, and what does ARQ/fallback cost?
#include <iostream>

#include "backends/backends.hpp"
#include "core/braided_link.hpp"
#include "core/lifetime_sim.hpp"
#include "hal/radio.hpp"
#include "sim/run_report.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using namespace braidio;
  sim::RunReport report(std::cout, "Ablation",
                        "Packetized protocol overhead vs fluid model");

  const hal::RadioBackend& backend = backends::braidio_backend();
  core::RegimeMap regimes(backend);

  util::TablePrinter out({"payload [B]", "delivery", "J/bit phone",
                          "J/bit watch", "overhead vs fluid"});
  for (std::size_t payload : {8u, 32u, 128u, 512u}) {
    hal::StandardRadio a("phone", 1, util::WattHours(6.55), backend.caps());
    hal::StandardRadio b("watch", 2, util::WattHours(0.78), backend.caps());
    const auto e1 = util::Joules(a.battery().remaining_joules());
    const auto e2 = util::Joules(b.battery().remaining_joules());
    core::BraidedLinkConfig cfg;
    cfg.distance_m = 0.4;
    cfg.payload_bytes = payload;
    core::BraidedLink link(a, b, regimes, cfg);
    const auto stats = link.run(4096);

    core::LifetimeSimulator sim(backend);
    core::LifetimeConfig fluid;
    fluid.distance_m = 0.4;
    const auto outcome = sim.braidio(e1, e2, fluid);

    const double d1 = (e1.value() - a.battery().remaining_joules()) /
                      stats.payload_bits_delivered;
    const double d2 = (e2.value() - b.battery().remaining_joules()) /
                      stats.payload_bits_delivered;
    out.add_row({std::to_string(payload),
                 util::format_fixed(100.0 * stats.delivery_ratio(), 1) + " %",
                 util::format_scientific(d1, 3),
                 util::format_scientific(d2, 3),
                 util::format_fixed(
                     d1 / outcome.plan.tx_joules_per_bit, 2) +
                     "x / " +
                     util::format_fixed(d2 / outcome.plan.rx_joules_per_bit,
                                        2) +
                     "x"});
  }
  out.print(std::cout);

  report.note("Headers, acks and half-duplex turnarounds multiply per-bit "
              "energy; larger payloads amortize it toward the fluid model's "
              "1.0x. The paper's lifetime numbers assume the fluid limit.");

  // Energy breakdown of one session.
  hal::StandardRadio a("phone", 1, util::WattHours(6.55), backend.caps());
  hal::StandardRadio b("watch", 2, util::WattHours(0.78), backend.caps());
  core::BraidedLinkConfig cfg;
  cfg.distance_m = 0.4;
  core::BraidedLink link(a, b, regimes, cfg);
  link.run(2048);
  std::cout << "\n  phone " << a.ledger().report();
  std::cout << "  watch " << b.ledger().report();
  return 0;
}
