#include "energy/ledger.hpp"

#include <cmath>
#include <sstream>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/table.hpp"

namespace braidio::energy {

const char* to_string(EnergyCategory category) {
  switch (category) {
    case EnergyCategory::CarrierGeneration: return "carrier";
    case EnergyCategory::ActiveTx: return "active-tx";
    case EnergyCategory::ActiveRx: return "active-rx";
    case EnergyCategory::PassiveRx: return "passive-rx";
    case EnergyCategory::BackscatterTx: return "backscatter-tx";
    case EnergyCategory::ModeSwitch: return "mode-switch";
    case EnergyCategory::Mcu: return "mcu";
    case EnergyCategory::Idle: return "idle";
  }
  return "?";
}

void EnergyLedger::charge(EnergyCategory category, util::Joules amount,
                          util::Seconds sim_time) {
  const double joules = amount.value();
  const double sim_time_s = sim_time.value();
  // A NaN or negative posting would silently corrupt every downstream
  // total (NaN compares false against 0, so a plain `< 0` check let it
  // through); a non-finite timestamp would poison the power series. NaN
  // sim_time_s stays legal — it is the documented "no sim time"
  // sentinel.
  BRAIDIO_REQUIRE(std::isfinite(joules) && joules >= 0.0, "joules",
                  joules);
  BRAIDIO_REQUIRE(std::isnan(sim_time_s) ||
                      (std::isfinite(sim_time_s) && sim_time_s >= 0.0),
                  "sim_time_s", sim_time_s);
  joules_[static_cast<std::size_t>(category)] += joules;
  obs::count(obs::Counter::EnergyPosts);
  obs::observe(obs::Histogram::EnergyPostJoules, joules);
  if (obs::attribution_enabled()) {
    obs::post_energy(to_string(category), joules, sim_time_s);
  }
  BRAIDIO_TRACE_EVENT(obs::EventType::EnergyPost, to_string(category),
                      sim_time_s, joules);
}

double EnergyLedger::total_joules() const {
  double sum = 0.0;
  for (const double j : joules_) sum += j;
  // Conservation: the total is a sum of non-negative postings.
  return util::contract::check_nonneg_energy_j(sum,
                                               "EnergyLedger::total_joules");
}

double EnergyLedger::joules(EnergyCategory category) const {
  return joules_[static_cast<std::size_t>(category)];
}

std::string EnergyLedger::report() const {
  std::ostringstream os;
  os << "energy breakdown (J):\n";
  for (std::size_t c = 0; c < kEnergyCategoryCount; ++c) {
    if (joules_[c] == 0.0) continue;
    os << "  " << to_string(static_cast<EnergyCategory>(c)) << ": "
       << joules_[c] << '\n';
  }
  os << "  total: " << total_joules() << '\n';
  return os.str();
}

}  // namespace braidio::energy
