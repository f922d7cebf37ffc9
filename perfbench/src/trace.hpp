// In-memory span recorder for the traced benchmark run.
//
// The library carries no timing hooks of its own, so the benchmark records
// spans in its own code around calls into the library's public API. A span
// has a name, a start and end on the steady clock, the span that was open
// when it began (its parent), and the benchmark operation it belongs to.
// Spans stay in memory until the run ends; to_chrome_json() writes them out
// for chrome://tracing or Perfetto.
//
// Recording is single-threaded: spans are only opened on the thread that
// drives the workload (the net workloads run on one thread, and the fluid
// sweep's worker threads are covered by one enclosing span).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SpanRecord {
  const char* name = "";  // string literal; never owned
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Trace::spans(), -1 at the root
  std::uint32_t op = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Trace {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Operation id stamped on spans opened from now on.
  void set_op(std::uint32_t op) { op_ = op; }

  /// Open a span named by the string literal `name`; returns its index.
  std::int32_t open(const char* name);
  /// Close the span `id` (must be the innermost open span).
  void close(std::int32_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Summed span durations by name, for every operation: result[op][name].
  std::map<std::uint32_t, std::map<std::string, double>> totals() const;

  /// Chrome trace-event JSON: one "ph":"X" event per span, the operation
  /// and parent in "args".
  std::string to_chrome_json() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_ = false;
  std::uint32_t op_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; records nothing while the trace is disabled.
class Span {
 public:
  Span(Trace& trace, const char* name)
      : trace_(trace), id_(trace.enabled() ? trace.open(name) : -1) {}
  ~Span() {
    if (id_ >= 0) trace_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace& trace_;
  std::int32_t id_;
};

}  // namespace perfbench
