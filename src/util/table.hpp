// ASCII table rendering for benchmark/report binaries.
//
// The reproduction benches print the same rows/series the paper reports;
// TablePrinter keeps those reports aligned and consistent.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace braidio::util {

/// Column-aligned plain-text table. Rows are vectors of pre-formatted cells.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Append one row; it may have fewer cells than there are headers
  /// (missing cells render empty) but not more.
  void add_row(std::vector<std::string> cells);

  /// Render with a header rule, 2-space column gaps.
  std::string to_string() const;

  /// Convenience: stream the rendered table.
  void print(std::ostream& os) const;

  /// The same data as CSV (for plot scripts).
  std::string to_csv() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Number formatters used across benches and exporters, each printf's
/// conversion in the "C" locale (std::to_chars with a precision):
/// format_engineering is %.*g of `significant`, format_fixed %.*f of
/// `decimals`, format_scientific %.*e of `significant - 1`, and
/// format_si_power %.4g of the scaled value plus its unit.
std::string format_si_power(double watts);     // "129 mW", "36.4 uW"
std::string format_engineering(double value, int significant = 3);
std::string format_fixed(double value, int decimals);
std::string format_scientific(double value, int significant = 3);

}  // namespace braidio::util
