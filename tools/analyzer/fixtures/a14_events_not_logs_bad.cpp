// analyzer-path: src/net/fixture_info_logs.cpp
// Known-bad fixture: simulator state changes written as log lines. They
// belong on the trace timeline (BRAIDIO_TRACE_EVENT), where tools can
// read them; Warn and Error stay legal for real problems.
#include "util/log.hpp"

namespace braidio::net {

void on_delivery(int node) {
  // expect: A14-events-not-logs
  BRAIDIO_LOG_INFO << "node " << node << " delivered";
  // expect: A14-events-not-logs
  BRAIDIO_LOG(LogLevel::Debug) << "queue drained";
}

void on_export_failure(const char* path) {
  // No finding: a failed export is a problem, not a state change.
  BRAIDIO_LOG_ERROR << "export failed: " << path;
}

}  // namespace braidio::net
