#include "core/braidio_radio.hpp"

namespace braidio::core {

hal::Capabilities braidio_capabilities(const PowerTable& table) {
  hal::Capabilities caps;
  caps.can_active = true;
  caps.can_source_carrier = true;
  caps.can_backscatter = true;
  // The passive chain's envelope detector doubles as a carrier sensor.
  caps.can_cca = true;
  caps.cca_threshold_dbm = -60.0;
  caps.sleep_power = util::Watts{2e-6};
  caps.lattice = table.candidates();
  for (phy::LinkMode mode : phy::kAllLinkModes) {
    caps.switch_overhead[static_cast<int>(mode)] = table.switch_overhead(mode);
  }
  return caps;
}

}  // namespace braidio::core
