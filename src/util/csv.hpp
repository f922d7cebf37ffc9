// Minimal CSV writer so bench binaries can optionally dump plot-ready data.
#pragma once

#include <string>
#include <vector>

namespace braidio::util {

/// Accumulates rows and writes RFC-4180-ish CSV (quotes cells containing
/// commas, quotes, or newlines).
class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> headers);

  void add_row(const std::vector<std::string>& cells);
  void add_row(const std::vector<double>& values);

  /// Render the full document.
  std::string to_string() const;

  /// Write to a file; throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escape a single CSV cell.
std::string csv_escape(const std::string& cell);

/// Render a header line and the rows, one line each, cells escaped.
std::string csv_document(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows);

}  // namespace braidio::util
