// analyzer-path: src/net/fixture_policy_includes_core.cpp
// Known-bad fixture: a net/ MAC policy depending on core/. The
// network simulator runs its own per-hop exchange and slot schedule;
// pulling core/ headers in directly would couple the many-node
// simulator to the two-endpoint session layer.

// expect: A5-layering
#include "core/braided_link.hpp"

// No finding when the dependency is explicitly justified:
// analyzer: layering(fixture demonstrates a documented waiver)
#include "core/power_table.hpp"

// hal/ and mac/ are the sanctioned dependencies — no finding.
#include "hal/radio.hpp"

namespace braidio::net {

inline int fixture_round_count() { return 4; }

}  // namespace braidio::net
