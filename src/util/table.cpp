#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace braidio::util {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("TablePrinter: need at least one column");
  }
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("TablePrinter: row wider than header");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      if (c + 1 < row.size()) os << "  ";
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w;
  total += 2 * (widths.size() - 1);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void TablePrinter::print(std::ostream& os) const { os << to_string(); }

std::string TablePrinter::to_csv() const {
  return csv_document(headers_, rows_);
}

std::string format_si_power(double watts) {
  const double aw = std::fabs(watts);
  std::ostringstream os;
  os << std::setprecision(4);
  if (aw >= 1.0) {
    os << watts << " W";
  } else if (aw >= 1e-3) {
    os << watts * 1e3 << " mW";
  } else if (aw >= 1e-6) {
    os << watts * 1e6 << " uW";
  } else if (aw == 0.0) {
    os << "0 W";
  } else {
    os << watts * 1e9 << " nW";
  }
  return os.str();
}

std::string format_engineering(double value, int significant) {
  std::ostringstream os;
  os << std::setprecision(significant) << value;
  return os.str();
}

std::string format_fixed(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string format_scientific(double value, int significant) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(significant - 1) << value;
  return os.str();
}

}  // namespace braidio::util
