// analyzer-path: src/mac/fixture_includes_core.cpp
// Known-bad fixture: a MAC file depending upward on core/. Policy
// (regime planning, braided scheduling) lives above the MAC; a MAC file
// that includes core/ headers inverts the layering.

// expect: A5-layering
#include "core/regimes.hpp"

// No finding when the dependency is explicitly justified:
// analyzer: layering(fixture demonstrates a documented waiver)
#include "core/power_table.hpp"

#include "util/contract.hpp"

namespace braidio::mac {

inline int fixture_slot_count() { return 8; }

}  // namespace braidio::mac
