#include "sim/faults/fault_timeline.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/contract.hpp"

namespace braidio::sim::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Shadowing: return "shadowing";
    case FaultKind::Interferer: return "interferer";
    case FaultKind::CarrierDropout: return "dropout";
    case FaultKind::FadeBurst: return "fade";
    case FaultKind::DistanceJump: return "distance";
    case FaultKind::Brownout: return "brownout";
  }
  return "?";
}

bool is_instant(FaultKind kind) {
  return kind == FaultKind::DistanceJump || kind == FaultKind::Brownout;
}

namespace {

void validate(const FaultEvent& ev) {
  const auto fail = [&](const char* why) {
    throw std::invalid_argument(std::string("FaultTimeline: ") + why +
                                " (" + to_string(ev.kind) + " at " +
                                std::to_string(ev.start_s) + " s)");
  };
  if (!std::isfinite(ev.start_s) || ev.start_s < 0.0) {
    fail("start_s must be finite and >= 0");
  }
  if (!std::isfinite(ev.magnitude) || !std::isfinite(ev.param)) {
    fail("magnitude/param must be finite");
  }
  if (!is_instant(ev.kind) &&
      (!std::isfinite(ev.duration_s) || ev.duration_s <= 0.0)) {
    fail("windowed events need duration_s > 0");
  }
  switch (ev.kind) {
    case FaultKind::Shadowing:
      if (ev.magnitude < 0.0) fail("shadowing loss must be >= 0 dB");
      break;
    case FaultKind::Interferer:
      if (ev.param < 0.0) fail("interferer offset must be >= 0 Hz");
      break;
    case FaultKind::FadeBurst:
      if (ev.magnitude < 0.0) fail("fade depth must be >= 0 dB");
      if (ev.param < 0.0) fail("fade coherence time must be >= 0 s");
      break;
    case FaultKind::DistanceJump:
      if (ev.magnitude <= 0.0) fail("distance must be > 0 m");
      break;
    case FaultKind::Brownout:
      if (ev.magnitude < 0.0) fail("brownout joules must be >= 0");
      if (ev.target != kTargetA && ev.target != kTargetB &&
          ev.target != kTargetBoth) {
        fail("brownout target must be a, b, or both");
      }
      break;
    case FaultKind::CarrierDropout:
      break;
  }
  if (ev.node < kNodeBroadcast) {
    fail("node must be a node id >= 0 or broadcast");
  }
}

}  // namespace

FaultTimeline::FaultTimeline(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const auto& ev : events_) validate(ev);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.start_s < b.start_s;
                   });
}

std::vector<FaultEvent> FaultTimeline::starting_in(double t0,
                                                   double t1) const {
  BRAIDIO_REQUIRE(t0 <= t1, "t0", t0, "t1", t1);
  std::vector<FaultEvent> out;
  for (const auto& ev : events_) {
    if (ev.start_s > t1) break;  // sorted by start
    if (ev.start_s > t0) out.push_back(ev);
  }
  return out;
}

std::optional<FaultTimeline> FaultTimeline::parse(std::istream& in,
                                                  std::string* error) {
  std::vector<FaultEvent> events;
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& why) {
    if (error) *error = "line " + std::to_string(lineno) + ": " + why;
    return std::nullopt;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind)) continue;  // blank / comment-only line

    FaultEvent ev;
    double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
    if (kind == "shadowing" || kind == "interferer" || kind == "fade") {
      if (!(fields >> a >> b >> c)) {
        return fail(kind + " needs <start_s> <duration_s> <magnitude>");
      }
      ev.kind = kind == "shadowing" ? FaultKind::Shadowing
                : kind == "interferer" ? FaultKind::Interferer
                                       : FaultKind::FadeBurst;
      ev.start_s = a;
      ev.duration_s = b;
      ev.magnitude = c;
      // The optional field (interferer and fade; shadowing has none, so a
      // fourth token fails below as trailing): absent (end of line or an
      // `@<id>` scope), it takes the kind's default; present, it must
      // parse. A read that consumed the token and failed (`1e999`
      // overflows) fails the line.
      fields >> std::ws;
      const auto next = fields.peek();
      if (ev.kind == FaultKind::Shadowing) {
        // no optional field
      } else if (next != std::char_traits<char>::eof() && next != '@') {
        if (!(fields >> d)) {
          return fail(kind + " optional field is not a finite number");
        }
        ev.param = d;
      } else if (ev.kind == FaultKind::Interferer) {
        ev.param = 100e3;  // default offset: mid data band
      } else {
        ev.param = 5e-3;  // default coherence: milliseconds (Sec. 3.1)
      }
    } else if (kind == "dropout") {
      if (!(fields >> a >> b)) {
        return fail("dropout needs <start_s> <duration_s>");
      }
      ev.kind = FaultKind::CarrierDropout;
      ev.start_s = a;
      ev.duration_s = b;
    } else if (kind == "distance") {
      if (!(fields >> a >> b)) {
        return fail("distance needs <t_s> <new_distance_m>");
      }
      ev.kind = FaultKind::DistanceJump;
      ev.start_s = a;
      ev.magnitude = b;
    } else if (kind == "brownout") {
      if (!(fields >> a >> b)) {
        return fail("brownout needs <t_s> <joules> [a|b|both]");
      }
      ev.kind = FaultKind::Brownout;
      ev.start_s = a;
      ev.magnitude = b;
      std::string target;
      if (fields >> target) {
        if (target == "a") ev.target = kTargetA;
        else if (target == "b") ev.target = kTargetB;
        else if (target == "both") ev.target = kTargetBoth;
        else return fail("brownout target must be a, b, or both");
      }
    } else {
      return fail("unknown fault kind '" + kind + "'");
    }
    // Optional node scope (`@<id>`), then nothing else. An optional
    // field read at the end of the line leaves the stream failed: clear.
    fields.clear();
    std::string extra;
    if (fields >> extra) {
      if (extra.size() < 2 || extra[0] != '@') {
        return fail("trailing tokens after " + kind);
      }
      std::size_t used = 0;
      int node = -1;
      try {
        node = std::stoi(extra.substr(1), &used);
      } catch (const std::exception&) {
        return fail("bad node scope '" + extra + "'");
      }
      if (used + 1 != extra.size() || node < 0) {
        return fail("bad node scope '" + extra + "'");
      }
      ev.node = node;
      if (fields >> extra) return fail("trailing tokens after " + kind);
    }
    events.push_back(ev);
  }
  try {
    return FaultTimeline(std::move(events));
  } catch (const std::invalid_argument& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

std::optional<FaultTimeline> FaultTimeline::parse_file(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  auto timeline = parse(in, error);
  if (!timeline && error) *error = path + ": " + *error;
  return timeline;
}

}  // namespace braidio::sim::faults
