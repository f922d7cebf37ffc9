// analyzer-path: src/net/fixture_named_metric.cpp
// Known-bad fixture: per-node accounting through string-keyed named
// metrics. Every transmit attempt pays a std::map lookup on the key —
// O(events) map traffic on the exact scheduler path the flight
// recorder measures. Hot-path counters must post to net::NodeStats
// fields or the obs::Counter builtins; named metrics are for one-shot
// run summaries only.

#include "obs/metrics.hpp"

namespace braidio::net {

struct FixtureHotNode {
  obs::MetricsRegistry* registry = nullptr;

  void on_attempt() {
    // expect: A7-net-hot-counter
    registry->counter("tx_attempts") += 1;
  }

  void on_backoff(double backoff_s) {
    // expect: A7-net-hot-counter
    registry->histogram("backoff_seconds", {1e-4, 1e-3}).record(backoff_s);
  }

  void on_depth(double depth) {
    // expect: A7-net-hot-counter
    registry->gauge("queue_depth") = depth;
  }
};

}  // namespace braidio::net
