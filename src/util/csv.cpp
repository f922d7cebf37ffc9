#include "util/csv.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace braidio::util {

CsvWriter::CsvWriter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("CsvWriter: need at least one column");
  }
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("CsvWriter: row width mismatch");
  }
  rows_.push_back(cells);
}

void CsvWriter::add_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    std::ostringstream os;
    os.precision(12);
    os << v;
    cells.push_back(os.str());
  }
  add_row(cells);
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_document(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows) {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << csv_escape(row[i]);
    }
    os << '\n';
  };
  emit(headers);
  for (const auto& row : rows) emit(row);
  return os.str();
}

std::string CsvWriter::to_string() const {
  return csv_document(headers_, rows_);
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("CsvWriter: cannot open " + path);
  f << to_string();
  if (!f) throw std::runtime_error("CsvWriter: write failed for " + path);
}

}  // namespace braidio::util
