// JSON string escape shared by every exporter. Numbers go through
// util/table.hpp: format_engineering(v, 17) for round-trip values and
// format_fixed(v, d) for fixed-decimal ones.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace braidio::util {

/// Append `s` to `out`, escaped for the inside of a JSON string: quote
/// and backslash are backslash-escaped, newline and tab become \n and \t,
/// and every other control character becomes \u00XX. The one escape rule
/// of every exporter; a long document appends into one string with it.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// `s` escaped for the inside of a JSON string (append_json_escaped).
inline std::string json_escape(std::string_view s) {
  std::string out;
  append_json_escaped(out, s);
  return out;
}

}  // namespace braidio::util
