#include "sim/result_table.hpp"

#include <sstream>
#include <string_view>

#include "obs/obs.hpp"
#include "util/contract.hpp"
#include "util/csv.hpp"
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

std::size_t ResultTable::stride(std::size_t axis) const {
  std::size_t stride = 1;
  for (std::size_t a = axes_.size(); a-- > axis + 1;) {
    stride *= axes_[a].size();
  }
  return stride;
}

const std::string& ResultTable::axis_label(std::size_t row,
                                           std::size_t axis) const {
  BRAIDIO_REQUIRE(axis < axes_.size(), "axis", axis);
  BRAIDIO_REQUIRE(row < records_.size(), "row", row);
  // Recover the coordinate along `axis` from the row-major flat index.
  return axes_[axis].labels[(row / stride(axis)) % axes_[axis].size()];
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

std::string ResultTable::to_csv() const {
  std::string out;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    if (a) out += ',';
    util::append_csv_cell(out, axes_[a].name);
  }
  for (const auto& col : columns_) {
    out += ',';
    util::append_csv_cell(out, col);
  }
  out += '\n';
  std::vector<std::size_t> strides(axes_.size());
  for (std::size_t a = 0; a < axes_.size(); ++a) strides[a] = stride(a);
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const std::size_t row_start = out.size();
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      if (a) out += ',';
      const Axis& axis = axes_[a];
      util::append_csv_cell(out, axis.labels[(r / strides[a]) % axis.size()]);
    }
    for (const auto& cell : records_[r].cells) {
      out += ',';
      util::append_csv_cell(out, cell);
    }
    out += '\n';
    if (r == 0) {
      out.reserve(out.size() +
                  (out.size() - row_start) * (records_.size() - 1));
    }
  }
  return out;
}

std::string ResultTable::to_json() const {
  std::string out = "{\n  \"scenario\": \"";
  util::append_json_escaped(out, name_);
  out += "\",\n  \"seed\": ";
  out += std::to_string(seed_);
  out += ",\n  \"axes\": [";
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    out += a ? ", \"" : "\"";
    util::append_json_escaped(out, axes_[a].name);
    out += '"';
  }
  out += "],\n  \"rows\": [\n";
  // One `"key": "value"` member; `first` leads the row without a comma.
  const auto member = [&out](std::string_view key, std::string_view value,
                             bool first) {
    out += first ? "\"" : ", \"";
    util::append_json_escaped(out, key);
    out += "\": \"";
    util::append_json_escaped(out, value);
    out += '"';
  };
  std::vector<std::size_t> strides(axes_.size());
  for (std::size_t a = 0; a < axes_.size(); ++a) strides[a] = stride(a);
  for (std::size_t r = 0; r < records_.size(); ++r) {
    const std::size_t row_start = out.size();
    out += "    {";
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const Axis& axis = axes_[a];
      member(axis.name, axis.labels[(r / strides[a]) % axis.size()], a == 0);
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      member(columns_[c], records_[r].cells[c], false);
    }
    out += r + 1 < records_.size() ? "},\n" : "}\n";
    if (r == 0) {
      out.reserve(out.size() +
                  (out.size() - row_start) * (records_.size() - 1));
    }
  }
  out += "  ]\n}\n";
  return out;
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

  const std::size_t row_stride = stride(row_axis);
  const std::size_t col_stride = stride(col_axis);

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
