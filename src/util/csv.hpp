// CSV rendering shared by every table export.
#pragma once

#include <string>
#include <vector>

namespace braidio::util {

/// Escape a single CSV cell: RFC-4180-ish, quoting cells that contain
/// commas, quotes, or newlines.
std::string csv_escape(const std::string& cell);

/// Render a header line and the rows, one line each, cells escaped.
std::string csv_document(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows);

}  // namespace braidio::util
