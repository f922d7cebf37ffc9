// analyzer-path: src/core/fixture_hub_includes_net.cpp
// Known-bad fixture: a core/ engine depending on the many-node network
// simulator. BraidedLink runs its exchanges as a plain loop; chaining
// them through net/'s calendar queue would make the two-endpoint
// engines link the network simulator.

// expect: A5-layering
#include "net/event_queue.hpp"

// No finding when the dependency is explicitly justified:
// analyzer: layering(fixture demonstrates a documented waiver)
#include "net/topology.hpp"

// hal/ and mac/ are the sanctioned shared layers — no finding.
#include "hal/radio.hpp"
#include "mac/arq.hpp"

namespace braidio::core {

inline int fixture_round_count() { return 4; }

}  // namespace braidio::core
