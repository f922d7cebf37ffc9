#include "net/netstats.hpp"

#include <span>
#include <sstream>

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

/// An exported column: its name in the braidio-netstats/v2 JSON and CSV,
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

void NetFlightRecord::arm(const Topology& topo) {
#if BRAIDIO_OBS_COMPILED
  enabled = true;
  nodes.assign(topo.size(), NodeStats{});
  dst = topo.next_hop;
  latency = obs::HistogramData(obs::Histogram::NetLatencySeconds);
#else
  (void)topo;
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
  os << "{\n  \"schema\": \"braidio-netstats/v2\",\n";
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
  os << "]\n  }\n}\n";
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

}  // namespace braidio::net
