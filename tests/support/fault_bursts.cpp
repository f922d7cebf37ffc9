#include "support/fault_bursts.hpp"

#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace braidio::sim::faults {

FaultTimeline periodic_bursts(FaultKind kind, unsigned count,
                              double first_start_s, double period_s,
                              double duration_s, double magnitude,
                              double param) {
  BRAIDIO_REQUIRE(period_s > 0.0 || count <= 1, "period_s", period_s,
                  "count", count);
  std::vector<FaultEvent> events;
  events.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    FaultEvent ev;
    ev.kind = kind;
    ev.start_s = first_start_s + static_cast<double>(i) * period_s;
    ev.duration_s = is_instant(kind) ? 0.0 : duration_s;
    ev.magnitude = magnitude;
    ev.param = param;
    events.push_back(ev);
  }
  return FaultTimeline(std::move(events));
}

}  // namespace braidio::sim::faults
