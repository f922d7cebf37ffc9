#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Trace::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Trace::close(std::int32_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("perfbench::Trace: spans closed out of order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::map<std::uint32_t, std::map<std::string, double>> Trace::totals()
    const {
  std::map<std::uint32_t, std::map<std::string, double>> out;
  for (const SpanRecord& span : spans_) {
    out[span.op][span.name] += span.seconds();
  }
  return out;
}

std::string Trace::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.op,
                  s.parent);
    out += line;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
