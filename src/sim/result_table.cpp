#include "sim/result_table.hpp"

#include <sstream>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace braidio::sim {

ResultTable::ResultTable(const Scenario& scenario, std::uint64_t master_seed)
    : name_(scenario.name()),
      seed_(master_seed),
      axes_(scenario.axes()),
      columns_(scenario.value_columns()) {}

const RunRecord& ResultTable::record(std::size_t row) const {
  BRAIDIO_REQUIRE(row < records_.size(), "row", row);
  return records_[row];
}

const std::string& ResultTable::axis_label(std::size_t row,
                                           std::size_t axis) const {
  BRAIDIO_REQUIRE(axis < axes_.size(), "axis", axis);
  // Recover the coordinate along `axis` from the row-major flat index.
  std::size_t stride = 1;
  for (std::size_t a = axes_.size(); a-- > axis + 1;) {
    stride *= axes_[a].size();
  }
  BRAIDIO_REQUIRE(row < records_.size(), "row", row);
  const std::size_t coord = (row / stride) % axes_[axis].size();
  return axes_[axis].labels[coord];
}

util::TablePrinter ResultTable::to_printer() const {
  std::vector<std::string> headers;
  for (const auto& axis : axes_) headers.push_back(axis.name);
  for (const auto& col : columns_) headers.push_back(col);
  util::TablePrinter table(std::move(headers));
  for (std::size_t r = 0; r < records_.size(); ++r) {
    std::vector<std::string> row;
    row.reserve(axes_.size() + columns_.size());
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      row.push_back(axis_label(r, a));
    }
    for (const auto& cell : records_[r].cells) row.push_back(cell);
    table.add_row(std::move(row));
  }
  return table;
}

std::string ResultTable::to_csv() const { return to_printer().to_csv(); }

std::string ResultTable::to_json() const {
  std::ostringstream os;
  os << "{\n  \"scenario\": \"" << util::json_escape(name_) << "\",\n"
     << "  \"seed\": " << seed_ << ",\n  \"axes\": [";
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    os << (a ? ", " : "") << '"' << util::json_escape(axes_[a].name) << '"';
  }
  os << "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < records_.size(); ++r) {
    os << "    {";
    bool first = true;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      os << (first ? "" : ", ") << '"' << util::json_escape(axes_[a].name)
         << "\": \"" << util::json_escape(axis_label(r, a)) << '"';
      first = false;
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << (first ? "" : ", ") << '"' << util::json_escape(columns_[c])
         << "\": \"" << util::json_escape(records_[r].cells[c]) << '"';
      first = false;
    }
    os << '}' << (r + 1 < records_.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string ResultTable::to_json_with_meta() const {
  std::ostringstream os;
  os << "{\n  \"meta\": {\n"
     << "    \"scenario\": \"" << util::json_escape(name_) << "\",\n"
     << "    \"seed\": " << seed_ << ",\n"
     << "    \"points\": " << records_.size() << ",\n"
     << "    \"threads\": " << threads_used_ << ",\n"
     << "    \"wall_seconds\": " << total_wall_seconds_ << ",\n"
     << "    \"obs_compiled\": " << (BRAIDIO_OBS_COMPILED ? "true" : "false")
     << ",\n"
     << "    \"trace_enabled\": " << (obs::tracing() ? "true" : "false")
     << ",\n";
  // Truncated traces must be self-announcing: surface the tracer's total
  // and per-lane drop counters next to the run metadata so a consumer of
  // an exported trace can tell how much of it the rings overwrote.
  const auto trace = obs::Tracer::instance().snapshot();
  os << "    \"trace\": {\"recorded\": " << trace.total_recorded()
     << ", \"dropped\": " << trace.total_dropped() << ", \"lanes\": [";
  for (std::size_t i = 0; i < trace.lanes.size(); ++i) {
    os << (i ? ", " : "") << "{\"lane\": " << trace.lanes[i].lane
       << ", \"recorded\": " << trace.lanes[i].recorded
       << ", \"dropped\": " << trace.lanes[i].dropped << "}";
  }
  os << "]},\n"
     << "    \"energy_attribution_joules\": "
     << energy_profile_.total_joules() << "\n  },\n"
     << "  \"metrics\": "
     << (metrics_registry_.empty() ? std::string("null\n")
                                   : metrics_registry_.to_json())
     << ",\n  \"data\": " << to_json() << "}\n";
  return os.str();
}

util::TablePrinter ResultTable::pivot(std::size_t row_axis,
                                      std::size_t col_axis,
                                      std::size_t value_col) const {
  BRAIDIO_REQUIRE(row_axis < axes_.size() && col_axis < axes_.size() &&
                      row_axis != col_axis,
                  "row_axis", row_axis, "col_axis", col_axis);
  BRAIDIO_REQUIRE(value_col < columns_.size(), "value_col", value_col);
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    BRAIDIO_REQUIRE(a == row_axis || a == col_axis || axes_[a].size() == 1,
                    "axis", a, "size", axes_[a].size());
  }
  const Axis& rows = axes_[row_axis];
  const Axis& cols = axes_[col_axis];

  std::vector<std::string> headers{rows.name + " \\ " + cols.name};
  for (const auto& label : cols.labels) headers.push_back(label);
  util::TablePrinter table(std::move(headers));

  // Strides of the two varying axes in the row-major flat index.
  auto stride_of = [&](std::size_t axis) {
    std::size_t stride = 1;
    for (std::size_t a = axes_.size(); a-- > axis + 1;) {
      stride *= axes_[a].size();
    }
    return stride;
  };
  const std::size_t row_stride = stride_of(row_axis);
  const std::size_t col_stride = stride_of(col_axis);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> out{rows.labels[r]};
    for (std::size_t c = 0; c < cols.size(); ++c) {
      const std::size_t flat = r * row_stride + c * col_stride;
      out.push_back(record(flat).cells[value_col]);
    }
    table.add_row(std::move(out));
  }
  return table;
}

std::string ResultTable::metrics_summary() const {
  std::ostringstream os;
  os << records_.size() << " points on " << threads_used_ << " thread"
     << (threads_used_ == 1 ? "" : "s") << " in "
     << util::format_fixed(total_wall_seconds_ * 1e3, 1) << " ms ("
     << (total_wall_seconds_ > 0.0
             ? util::format_engineering(
                   static_cast<double>(records_.size()) /
                       total_wall_seconds_,
                   3)
             : std::string("inf"))
     << " evals/s)";
  return os.str();
}

}  // namespace braidio::sim
