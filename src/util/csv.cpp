#include "util/csv.hpp"

#include <sstream>

namespace braidio::util {

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

}  // namespace braidio::util
