#include "util/csv.hpp"

namespace braidio::util {

void append_csv_cell(std::string& out, std::string_view cell) {
  if (cell.find_first_of(",\"\n") == std::string_view::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

std::string csv_document(const std::vector<std::string>& headers,
                         const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += ',';
      append_csv_cell(out, row[i]);
    }
    out += '\n';
  };
  emit(headers);
  for (const auto& row : rows) emit(row);
  return out;
}

}  // namespace braidio::util
