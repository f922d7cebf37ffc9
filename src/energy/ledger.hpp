// Per-component energy accounting.
//
// Every simulator charge (carrier generation, decoding, MCU, mode-switch
// overhead, ...) is posted to an EnergyLedger so experiments can report where
// the joules went, not just totals.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "util/units.hpp"

namespace braidio::energy {

/// The accounting categories used by the radio simulators.
enum class EnergyCategory {
  CarrierGeneration,  // PLL/PA while emitting a carrier
  ActiveTx,           // full active-radio transmit chain
  ActiveRx,           // full active-radio receive chain
  PassiveRx,          // envelope detector + comparator + amp
  BackscatterTx,      // tag-side reflection (RF transistor + clock)
  ModeSwitch,         // Table 5 transition overheads
  Mcu,                // controller baseline
  Idle,               // sleep / listen floor
};

/// Number of EnergyCategory values (Idle is the last).
inline constexpr std::size_t kEnergyCategoryCount =
    static_cast<std::size_t>(EnergyCategory::Idle) + 1;

/// Human-readable category name.
const char* to_string(EnergyCategory category);

class EnergyLedger {
 public:
  /// Post `amount` against a category. Contract: `amount` must be finite
  /// and >= 0, `sim_time` must be NaN (the "no sim time" sentinel for
  /// callers that do not track simulated time) or finite and >= 0.
  /// `sim_time` is only used for observability (the EnergyPost trace
  /// event and the attributed power series). When energy attribution is
  /// enabled (obs/span.hpp) every charge is also posted to the current
  /// span path as `<spans>/<category>`.
  void charge(EnergyCategory category, util::Joules amount,
              util::Seconds sim_time = util::Seconds::nan());

  /// Total posted across all categories.
  double total_joules() const;

  /// Total for one category (0 if never charged).
  double joules(EnergyCategory category) const;

  /// Multi-line breakdown report, categories in enum order, omitting zeros.
  std::string report() const;

 private:
  // Indexed by category. A never-charged category holds +0.0, which
  // adds nothing to a total.
  std::array<double, kEnergyCategoryCount> joules_{};
};

}  // namespace braidio::energy
