// Scripted fault timelines for deterministic adversity injection.
//
// A FaultTimeline is an ordered list of fault events — interferer bursts,
// carrier dropouts, step shadowing, coherent fade bursts, mid-run distance
// jumps, battery brownouts — expressed in *simulated* seconds. It is pure
// data: the same timeline plus the same seed always reproduces the same
// run, which is what makes degradation experiments sweepable axes with
// byte-identical serial/parallel results (the PR 2 guarantee extends to
// faulted runs). Consumers query it through ImpairmentSchedule
// (impairment.hpp); this header owns the event vocabulary, validation and
// the `--faults=FILE` text format.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace braidio::sim::faults {

enum class FaultKind : std::uint8_t {
  Shadowing,       // windowed extra path loss; magnitude [dB]
  Interferer,      // windowed in-band interferer; magnitude [dBm received],
                   // param = |f_interferer - f_carrier| [Hz]
  CarrierDropout,  // windowed total outage (carrier gone, 100% loss)
  FadeBurst,       // windowed coherent fading; magnitude = mean fade depth
                   // [dB], param = coherence time [s]
  DistanceJump,    // instant; magnitude = new link distance [m]
  Brownout,        // instant; magnitude = joules drained from `target`
};

inline constexpr std::size_t kFaultKindCount = 6;

const char* to_string(FaultKind kind);

/// True for one-shot events (DistanceJump, Brownout) whose duration is
/// meaningless; false for windowed impairments.
bool is_instant(FaultKind kind);

/// Brownout targets: which endpoint loses the energy.
inline constexpr int kTargetA = 0;
inline constexpr int kTargetB = 1;
inline constexpr int kTargetBoth = -1;

/// Node scope: an event hits every node (the single-link legacy reading)
/// unless it names a specific simulator node id.
inline constexpr int kNodeBroadcast = -1;

struct FaultEvent {
  FaultKind kind = FaultKind::Shadowing;
  double start_s = 0.0;
  double duration_s = 0.0;  // 0 for instant kinds
  double magnitude = 0.0;   // dB / dBm / m / J depending on kind
  double param = 0.0;       // kind-specific second knob (offset Hz, tau s)
  int target = kTargetBoth; // Brownout only
  /// Network-simulator node this event targets; kNodeBroadcast hits all.
  /// Single-link consumers (state_at without a node) ignore this field.
  int node = kNodeBroadcast;

  /// Exclusive end of the active window (== start_s for instant kinds).
  double end_s() const { return is_instant(kind) ? start_s
                                                 : start_s + duration_s; }
  /// True when the windowed event covers sim time `t` (instant events
  /// never report active; they are consumed as edges).
  bool active_at(double t) const {
    return !is_instant(kind) && t >= start_s && t < end_s();
  }
};

/// An immutable, validated, start-sorted fault script.
class FaultTimeline {
 public:
  FaultTimeline() = default;

  /// Validates every event (finite non-negative times, kind-specific
  /// magnitude domains) and sorts by start time; throws
  /// std::invalid_argument on a bad event.
  explicit FaultTimeline(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Events whose start lies in (t0, t1] — the activation edges a consumer
  /// crosses when its clock advances from t0 to t1.
  std::vector<FaultEvent> starting_in(double t0, double t1) const;

  /// Parse the `--faults=FILE` text format: one event per line,
  ///   shadowing  <start_s> <duration_s> <loss_db>
  ///   interferer <start_s> <duration_s> <power_dbm> [offset_hz]
  ///   dropout    <start_s> <duration_s>
  ///   fade       <start_s> <duration_s> <depth_db> [coherence_s]
  ///   distance   <t_s> <new_distance_m>
  ///   brownout   <t_s> <joules> [a|b|both]
  /// Any line may end with `@<node>` to scope the event to one network
  /// node id (default: broadcast — every node, and every single-link
  /// consumer). Blank lines and `#` comments are ignored. Returns nullopt
  /// and fills `error` (file:line plus reason) on malformed input.
  static std::optional<FaultTimeline> parse(std::istream& in,
                                            std::string* error);
  static std::optional<FaultTimeline> parse_file(const std::string& path,
                                                 std::string* error);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace braidio::sim::faults
