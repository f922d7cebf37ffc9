#include "obs/tracer.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/contract.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace braidio::obs {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::ModeSwitch: return "ModeSwitch";
    case EventType::DwellStart: return "DwellStart";
    case EventType::DwellEnd: return "DwellEnd";
    case EventType::PacketTx: return "PacketTx";
    case EventType::PacketRx: return "PacketRx";
    case EventType::PacketDrop: return "PacketDrop";
    case EventType::ArqRetry: return "ArqRetry";
    case EventType::EnergyPost: return "EnergyPost";
    case EventType::BatteryDeath: return "BatteryDeath";
    case EventType::SweepPointStart: return "SweepPointStart";
    case EventType::SweepPointEnd: return "SweepPointEnd";
    case EventType::FaultActive: return "FaultActive";
    case EventType::PacketFlowBegin: return "PacketFlowBegin";
    case EventType::PacketFlowStep: return "PacketFlowStep";
    case EventType::PacketFlowEnd: return "PacketFlowEnd";
  }
  return "?";
}

char chrome_phase(EventType type) {
  switch (type) {
    case EventType::DwellStart:
    case EventType::SweepPointStart:
      return 'B';
    case EventType::DwellEnd:
    case EventType::SweepPointEnd:
      return 'E';
    case EventType::PacketFlowBegin:
      return 's';
    case EventType::PacketFlowStep:
      return 't';
    case EventType::PacketFlowEnd:
      return 'f';
    default:
      return 'i';
  }
}

bool is_flow_event(EventType type) {
  return type == EventType::PacketFlowBegin ||
         type == EventType::PacketFlowStep ||
         type == EventType::PacketFlowEnd;
}

// One lane: a fixed ring plus its bookkeeping. `released` lanes belonged
// to threads that exited; the next new thread claims the lowest-id one.
struct Tracer::Lane {
  explicit Lane(std::uint32_t id_, std::size_t capacity)
      : id(id_), ring(capacity) {}

  std::uint32_t id;
  std::mutex mu;
  std::vector<Event> ring;      // capacity fixed at construction
  std::uint64_t recorded = 0;   // events accepted into the ring
  bool released = false;        // owner thread exited; reusable
};

namespace {

// RAII holder: releases the lane back to the tracer's free pool when the
// owning thread exits (thread_local destructor).
struct LaneHandle {
  std::shared_ptr<Tracer::Lane> lane;
  ~LaneHandle();
};

}  // namespace

std::atomic<bool> Tracer::g_enabled{false};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void Tracer::set_lane_capacity(std::size_t events) {
  BRAIDIO_REQUIRE(events >= 1 && events <= kMaxLaneCapacity,
                  "lane_capacity", events, "max", kMaxLaneCapacity);
  lane_capacity_.store(events, std::memory_order_relaxed);
}

std::size_t Tracer::lane_capacity() const {
  return lane_capacity_.load(std::memory_order_relaxed);
}

namespace {
thread_local LaneHandle t_lane;
}  // namespace

LaneHandle::~LaneHandle() {
  if (!lane) return;
  std::lock_guard<std::mutex> lock(lane->mu);
  lane->released = true;
}

Tracer::Lane& Tracer::lane_for_this_thread() {
  if (t_lane.lane) return *t_lane.lane;
  std::lock_guard<std::mutex> lock(lanes_mu_);
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lane_lock(lane->mu);
    if (lane->released) {
      lane->released = false;
      t_lane.lane = lane;
      return *lane;
    }
  }
  auto lane = std::make_shared<Lane>(
      static_cast<std::uint32_t>(lanes_.size()),
      lane_capacity_.load(std::memory_order_relaxed));
  lanes_.push_back(lane);
  t_lane.lane = lane;
  return *lane;
}

void Tracer::record(EventType type, const char* label, double sim_s,
                    double value) {
  Lane& lane = lane_for_this_thread();
  std::lock_guard<std::mutex> lock(lane.mu);
  Event& slot = lane.ring[lane.recorded % lane.ring.size()];
  slot.wall_s = util::monotonic_seconds();
  slot.sim_s = sim_s;
  slot.value = value;
  slot.seq = lane.recorded;
  slot.type = type;
  if (label) {
    std::size_t i = 0;
    for (; i < kEventLabelCapacity && label[i] != '\0'; ++i) {
      const char c = label[i];
      // Keep labels CSV/JSON-clean: one flat token, no separators.
      slot.label[i] =
          (c == ',' || c == '"' || c == '\n' || c == '\r') ? ';' : c;
    }
    slot.label[i] = '\0';
  } else {
    slot.label[0] = '\0';
  }
  ++lane.recorded;
}

Tracer::Snapshot Tracer::snapshot() const {
  Snapshot out;
  std::vector<std::shared_ptr<Lane>> lanes;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    lanes = lanes_;
  }
  for (const auto& lane : lanes) {
    std::lock_guard<std::mutex> lock(lane->mu);
    LaneSnapshot snap;
    snap.lane = lane->id;
    snap.recorded = lane->recorded;
    const std::size_t cap = lane->ring.size();
    const std::uint64_t kept =
        std::min<std::uint64_t>(lane->recorded, cap);
    snap.dropped = lane->recorded - kept;
    snap.events.reserve(static_cast<std::size_t>(kept));
    // Oldest surviving event first: the ring wraps at `recorded % cap`.
    const std::uint64_t start = lane->recorded - kept;
    for (std::uint64_t i = start; i < lane->recorded; ++i) {
      snap.events.push_back(lane->ring[i % cap]);
    }
    out.lanes.push_back(std::move(snap));
  }
  std::sort(out.lanes.begin(), out.lanes.end(),
            [](const LaneSnapshot& a, const LaneSnapshot& b) {
              return a.lane < b.lane;
            });
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  const std::size_t cap = lane_capacity_.load(std::memory_order_relaxed);
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lane_lock(lane->mu);
    lane->recorded = 0;
    // Surviving lanes adopt the current capacity, so
    // set_lane_capacity() + clear() takes effect everywhere.
    if (lane->ring.size() != cap) lane->ring.assign(cap, Event{});
  }
}

std::uint64_t Tracer::Snapshot::total_recorded() const {
  std::uint64_t sum = 0;
  for (const auto& lane : lanes) sum += lane.recorded;
  return sum;
}

std::uint64_t Tracer::Snapshot::total_dropped() const {
  std::uint64_t sum = 0;
  for (const auto& lane : lanes) sum += lane.dropped;
  return sum;
}

std::size_t Tracer::Snapshot::total_events() const {
  std::size_t sum = 0;
  for (const auto& lane : lanes) sum += lane.events.size();
  return sum;
}

std::string chrome_trace_json(const Tracer::Snapshot& snapshot) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& lane : snapshot.lanes) {
    for (const auto& ev : lane.events) {
      if (!first) os << ",\n";
      first = false;
      const char phase = chrome_phase(ev.type);
      const bool flow = is_flow_event(ev.type);
      os << "{\"name\": \"";
      // Spans are named by their label so B/E pairs match, flow stages
      // share one name so the viewer chains them by id, and instants
      // are named by their type so event classes group in the viewer.
      if ((phase == 'B' || phase == 'E') && ev.label[0] != '\0') {
        os << util::json_escape(ev.label);
      } else if (flow) {
        os << "packet";
      } else {
        os << to_string(ev.type);
      }
      os << "\", \"cat\": \"braidio\", \"ph\": \"" << phase << "\"";
      if (phase == 'i') os << ", \"s\": \"t\"";
      if (flow) {
        // The packet id rides `value`; matching ids + name + cat make
        // begin -> step -> end render as one connected arrow chain.
        os << ", \"id\": " << util::format_fixed(ev.value, 0);
        if (phase == 'f') os << ", \"bp\": \"e\"";
      }
      os << ", \"ts\": " << util::format_fixed(ev.wall_s * 1e6, 3)
         << ", \"pid\": 1, \"tid\": " << lane.lane << ", \"args\": {";
      os << "\"type\": \"" << to_string(ev.type) << "\"";
      if (ev.label[0] != '\0') {
        os << ", \"label\": \"" << util::json_escape(ev.label) << "\"";
      }
      if (ev.has_sim_time()) {
        os << ", \"sim_s\": " << util::format_fixed(ev.sim_s, 6);
      }
      os << ", \"value\": " << util::format_fixed(ev.value, 9) << "}}";
    }
  }
  os << "\n],\n\"otherData\": {\"recorded\": "
     << snapshot.total_recorded()
     << ", \"dropped\": " << snapshot.total_dropped() << "}}\n";
  return os.str();
}

std::string trace_csv(const Tracer::Snapshot& snapshot) {
  std::ostringstream os;
  os << "wall_s,lane,seq,type,label,sim_s,value\n";
  for (const auto& lane : snapshot.lanes) {
    for (const auto& ev : lane.events) {
      os << util::format_fixed(ev.wall_s, 9) << ',' << lane.lane << ','
         << ev.seq << ',' << to_string(ev.type) << ',';
      // Labels are truncated to a fixed width and never contain commas
      // or quotes by construction; write them bare.
      os << ev.label << ',';
      if (ev.has_sim_time()) os << util::format_fixed(ev.sim_s, 9);
      os << ',' << util::format_fixed(ev.value, 9) << '\n';
    }
  }
  return os.str();
}

std::string Tracer::to_chrome_json() const {
  return chrome_trace_json(snapshot());
}

std::string Tracer::to_csv() const { return trace_csv(snapshot()); }

}  // namespace braidio::obs
