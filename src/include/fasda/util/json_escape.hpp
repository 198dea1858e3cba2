#pragma once
// The one JSON string escaper. Every hand-written JSON writer — the serve
// protocol (serve/json.hpp), the JSON log sink, the serve trace and the
// metrics snapshot — escapes strings through it, so a name or message
// holding quotes, backslashes or control bytes still yields valid JSON.

#include <string>
#include <string_view>

namespace fasda::util::json {

/// Appends `s` JSON-escaped (no surrounding quotes).
inline void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += "0123456789abcdef"[u >> 4];
          out += "0123456789abcdef"[u & 0xf];
        } else {
          out += c;
        }
    }
  }
}

/// `"s"` with escaping — the building block for handwritten writers.
inline std::string quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  append_escaped(out, s);
  out += '"';
  return out;
}

}  // namespace fasda::util::json
