// The calibrated Braidio power model.
//
// The paper publishes, for each (mode, bitrate), the TX:RX bits-per-joule
// ratio (Figs. 9 and 14), the carrier-side power budget (129 mW for the
// carrier-holding end), and the floor (16 uW, the backscatter tag at
// 10 kbps). Those constraints pin the full power table; see DESIGN.md §4.
// The table is the single source of truth for the braidio backend's
// capability lattice and Table 5 switch overheads.
#pragma once

#include <vector>

#include "hal/radio.hpp"
#include "phy/link_mode.hpp"

namespace braidio::core {

/// One operating point. The struct itself now lives at the HAL boundary
/// (hal::OperatingPoint) so every backend shares it; these aliases keep the
/// historical core:: spellings valid.
using ModeCandidate = hal::OperatingPoint;

/// Per-mode energy cost of switching *into* a mode (Table 5), per end.
using SwitchOverhead = hal::SwitchOverhead;

class PowerTable {
 public:
  /// Build the calibrated table (DESIGN.md §4).
  PowerTable();

  /// All nine (mode, bitrate) operating points.
  const std::vector<ModeCandidate>& candidates() const { return entries_; }

  /// Lookup one operating point.
  const ModeCandidate& candidate(phy::LinkMode mode, phy::Bitrate rate) const;

  /// Table 5 switching overhead for a mode.
  const SwitchOverhead& switch_overhead(phy::LinkMode mode) const;

 private:
  std::vector<ModeCandidate> entries_;
  SwitchOverhead overheads_[3];
};

}  // namespace braidio::core
