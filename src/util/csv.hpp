// CSV rendering shared by every table export.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace braidio::util {

/// Append one CSV cell to `out`, RFC-4180-ish: a cell that contains a
/// comma, a quote or a newline is quoted, its quotes doubled. The one
/// quoting rule of every CSV export; a long document appends into one
/// string with it.
void append_csv_cell(std::string& out, std::string_view cell);

/// Render a header line and the rows, one line each, cells escaped.
std::string csv_document(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows);

}  // namespace braidio::util
