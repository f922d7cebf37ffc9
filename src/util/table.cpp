#include "util/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "util/contract.hpp"
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

namespace {

/// `value` as printf's "%.*g" (general), "%.*e" (scientific) or "%.*f"
/// (fixed) renders it in the "C" locale: std::to_chars with a precision
/// is specified as exactly that, so these are the bytes an ostream with
/// setprecision (and std::scientific/std::fixed) wrote, without a stream
/// or a locale per call. A negative precision means 6, as in both.
std::string render(double value, std::chars_format format, int precision) {
  char buf[128];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, value, format, precision);
  if (ec == std::errc{}) return std::string(buf, end);
  // Only fixed notation of a large magnitude, or a large precision, gets
  // here: DBL_MAX has 309 integer digits, and a precision adds at most
  // its own count plus sign, point and exponent.
  std::string out(330 + static_cast<std::size_t>(std::max(precision, 0)),
                  '\0');
  const auto [big_end, big_ec] = std::to_chars(
      out.data(), out.data() + out.size(), value, format, precision);
  BRAIDIO_ENSURE(big_ec == std::errc{}, "precision", precision);
  out.resize(static_cast<std::size_t>(big_end - out.data()));
  return out;
}

}  // namespace

std::string format_si_power(double watts) {
  const double aw = std::fabs(watts);
  const auto g4 = [](double v) {
    return render(v, std::chars_format::general, 4);
  };
  if (aw >= 1.0) return g4(watts) + " W";
  if (aw >= 1e-3) return g4(watts * 1e3) + " mW";
  if (aw >= 1e-6) return g4(watts * 1e6) + " uW";
  if (aw == 0.0) return "0 W";
  return g4(watts * 1e9) + " nW";
}

std::string format_engineering(double value, int significant) {
  return render(value, std::chars_format::general, significant);
}

std::string format_fixed(double value, int decimals) {
  return render(value, std::chars_format::fixed, decimals);
}

std::string format_scientific(double value, int significant) {
  return render(value, std::chars_format::scientific, significant - 1);
}

}  // namespace braidio::util
