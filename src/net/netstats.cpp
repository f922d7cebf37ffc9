#include "net/netstats.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "util/contract.hpp"
#include "util/table.hpp"

namespace braidio::net {

NodeStats& NodeStats::operator+=(const NodeStats& other) {
  generated += other.generated;
  delivered += other.delivered;
  forwarded += other.forwarded;
  tx_attempts += other.tx_attempts;
  csma_failures += other.csma_failures;
  arq_drops += other.arq_drops;
  cca_busy += other.cca_busy;
  backoff_draws += other.backoff_draws;
  collisions += other.collisions;
  fault_losses += other.fault_losses;
  slot_registrations += other.slot_registrations;
  slots_reclaimed += other.slots_reclaimed;
  uplink_acked += other.uplink_acked;
  uplink_data_lost += other.uplink_data_lost;
  uplink_ack_lost += other.uplink_ack_lost;
  return *this;
}
// A new field must be added to operator+= above.
static_assert(sizeof(NodeStats) == 15 * sizeof(std::uint64_t));

namespace {

/// An exported column: its name in the braidio-netstats/v1 JSON and CSV,
/// and the NodeStats field it reads.
struct Column {
  const char* name;
  std::uint64_t NodeStats::*field;
};

/// The "node_counters" columns, in export order.
constexpr Column kNodeColumns[] = {
    {"tx_attempts", &NodeStats::tx_attempts},
    {"cca_busy", &NodeStats::cca_busy},
    {"backoff_draws", &NodeStats::backoff_draws},
    {"collisions", &NodeStats::collisions},
    {"fault_losses", &NodeStats::fault_losses},
    {"delivered", &NodeStats::delivered},
    {"relayed", &NodeStats::forwarded},
    {"drops_access", &NodeStats::csma_failures},
    {"drops_arq", &NodeStats::arq_drops},
    {"slot_registrations", &NodeStats::slot_registrations},
    {"slots_reclaimed", &NodeStats::slots_reclaimed},
};

/// The per-link "links" columns (after dst), in export order.
constexpr Column kLinkColumns[] = {
    {"attempts", &NodeStats::tx_attempts},
    {"acked", &NodeStats::uplink_acked},
    {"data_lost", &NodeStats::uplink_data_lost},
    {"ack_lost", &NodeStats::uplink_ack_lost},
};

}  // namespace

void SchedulerSeries::sample(double sim_s, std::uint64_t depth,
                             std::uint64_t retune_delta,
                             std::uint64_t scan_delta) {
  BRAIDIO_REQUIRE(bucket_s > 0.0, "bucket_s", bucket_s);
  const auto index = static_cast<std::size_t>(sim_s / bucket_s);
  if (index >= kMaxBuckets) {
    ++skipped;
    return;
  }
  if (index >= events.size()) {
    events.resize(index + 1, 0);
    peak_depth.resize(index + 1, 0);
    retunes.resize(index + 1, 0);
    scan_steps.resize(index + 1, 0);
  }
  ++events[index];
  peak_depth[index] = std::max(peak_depth[index], depth);
  retunes[index] += retune_delta;
  scan_steps[index] += scan_delta;
}

void NetFlightRecord::arm(const Topology& topo, double sched_bucket_s) {
#if BRAIDIO_OBS_COMPILED
  BRAIDIO_REQUIRE(sched_bucket_s > 0.0, "sched_bucket_s", sched_bucket_s);
  enabled = true;
  nodes.assign(topo.size(), NodeStats{});
  dst = topo.next_hop;
  latency = obs::HistogramData(
      obs::bucket_bounds(obs::Histogram::NetLatencySeconds));
  sched = SchedulerSeries{};
  sched.bucket_s = sched_bucket_s;
#else
  (void)topo;
  (void)sched_bucket_s;
#endif
}

namespace {

void write_u64_array(std::ostringstream& os, const char* key,
                     const std::vector<std::uint64_t>& values) {
  os << "    \"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) os << ", ";
    os << values[i];
  }
  os << "]";
}

/// One array per column, one value per node, keyed by the column name.
void write_columns(std::ostringstream& os, std::span<const Column> columns,
                   const std::vector<NodeStats>& nodes) {
  std::vector<std::uint64_t> values(nodes.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      values[i] = nodes[i].*columns[c].field;
    }
    write_u64_array(os, columns[c].name, values);
    os << (c + 1 < columns.size() ? ",\n" : "\n");
  }
}

/// kNoRoute renders as -1: stranded nodes have no uplink row.
void write_dst(std::ostringstream& os, std::uint32_t dst) {
  if (dst == kNoRoute) {
    os << -1;
  } else {
    os << dst;
  }
}

}  // namespace

std::string NetFlightRecord::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"braidio-netstats/v1\",\n";
  os << "  \"enabled\": " << (enabled ? "true" : "false") << ",\n";
  os << "  \"nodes\": " << nodes.size() << ",\n";
  os << "  \"events\": " << events << ",\n";
  os << "  \"elapsed_s\": " << util::format_fixed(elapsed_s, 6) << ",\n";

  os << "  \"node_counters\": {\n";
  write_columns(os, kNodeColumns, nodes);
  os << "  },\n";

  os << "  \"links\": {\n";
  os << "    \"dst\": [";
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (i != 0) os << ", ";
    write_dst(os, dst[i]);
  }
  os << "],\n";
  write_columns(os, kLinkColumns, nodes);
  os << "  },\n";

  os << "  \"latency\": {\n";
  os << "    \"count\": " << latency.count() << ",\n";
  os << "    \"sum_s\": " << util::format_fixed(latency.sum(), 9) << ",\n";
  os << "    \"min_s\": " << util::format_fixed(latency.min(), 9) << ",\n";
  os << "    \"max_s\": " << util::format_fixed(latency.max(), 9) << ",\n";
  os << "    \"p50_s\": " << util::format_fixed(latency.p50(), 9) << ",\n";
  os << "    \"p95_s\": " << util::format_fixed(latency.p95(), 9) << ",\n";
  os << "    \"p99_s\": " << util::format_fixed(latency.p99(), 9) << ",\n";
  os << "    \"bounds_s\": [";
  for (std::size_t i = 0; i < latency.bounds().size(); ++i) {
    if (i != 0) os << ", ";
    os << util::format_fixed(latency.bounds()[i], 6);
  }
  os << "],\n    \"buckets\": [";
  for (std::size_t i = 0; i < latency.bucket_count(); ++i) {
    if (i != 0) os << ", ";
    os << latency.bucket(i);
  }
  os << "]\n  },\n";

  os << "  \"scheduler\": {\n";
  os << "    \"retunes\": " << sched_retunes << ",\n";
  os << "    \"grows\": " << sched_grows << ",\n";
  os << "    \"peak_depth\": " << sched_peak_depth << ",\n";
  os << "    \"scan_steps\": " << sched_scan_steps << ",\n";
  os << "    \"buckets\": " << sched_buckets << ",\n";
  os << "    \"width_s\": " << util::format_fixed(sched_width_s, 9) << ",\n";
  os << "    \"series_bucket_s\": " << util::format_fixed(sched.bucket_s, 6)
     << ",\n";
  os << "    \"series_skipped\": " << sched.skipped << ",\n";
  write_u64_array(os, "series_events", sched.events);
  os << ",\n";
  write_u64_array(os, "series_peak_depth", sched.peak_depth);
  os << ",\n";
  write_u64_array(os, "series_retunes", sched.retunes);
  os << ",\n";
  write_u64_array(os, "series_scan_steps", sched.scan_steps);
  os << "\n  }\n}\n";
  return os.str();
}

std::string NetFlightRecord::to_csv() const {
  std::ostringstream os;
  os << "node,dst";
  for (const Column& column : kNodeColumns) os << ',' << column.name;
  for (const Column& column : kLinkColumns) os << ",link_" << column.name;
  os << '\n';
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    os << i << ',';
    write_dst(os, dst[i]);
    for (const Column& column : kNodeColumns) {
      os << ',' << nodes[i].*column.field;
    }
    for (const Column& column : kLinkColumns) {
      os << ',' << nodes[i].*column.field;
    }
    os << '\n';
  }
  return os.str();
}

std::string NetFlightRecord::sched_chrome_counters() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < sched.events.size(); ++i) {
    if (i != 0) os << ",\n";
    const double t_us = static_cast<double>(i) * sched.bucket_s * 1e6;
    os << "{\"name\": \"net.sched\", \"ph\": \"C\", \"ts\": "
       << util::format_fixed(t_us, 3) << ", \"pid\": 1, \"tid\": 0, "
       << "\"args\": {\"events\": " << sched.events[i]
       << ", \"peak_depth\": " << sched.peak_depth[i]
       << ", \"retunes\": " << sched.retunes[i]
       << ", \"scan_steps\": " << sched.scan_steps[i] << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace braidio::net
