#include "core/prototypes.hpp"

namespace braidio::core {

const std::vector<PrototypeSpec>& prototype_table() {
  // Concurrency contract: const magic static, safe to read from concurrent
  // sweep workers (audited for the sim engine).
  static const std::vector<PrototypeSpec> table = {
      {"v1 (off-the-shelf)",
       "CC2541 + AS3993 reader IC + Moo tag",
       0.640,  // the AS3993's own budget (Table 2)
       "highly unsatisfactory from a power perspective"},
      {"v2 (coupler + Zero-IF)",
       "directional coupler isolation, direct conversion",
       0.240,  // "the reader by itself combined more than 240mW"
       "also unsatisfactory"},
      {"v3 (passive cancellation)",
       "charge pump + SAW + antenna diversity",
       0.129, "the design used in the paper"},
  };
  return table;
}

std::vector<ModeCandidate> prototype_candidates(
    const PrototypeSpec& proto, const PowerTable& v3_table) {
  std::vector<ModeCandidate> out;
  for (auto candidate : v3_table.candidates()) {
    if (candidate.mode == phy::LinkMode::Backscatter) {
      candidate.rx_power_w = proto.backscatter_rx_power_w;
    }
    out.push_back(candidate);
  }
  return out;
}

}  // namespace braidio::core
