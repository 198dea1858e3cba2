#pragma once
// Minimal JSON for the serve protocol (DESIGN.md §15): enough to parse a
// JobRequest from an untrusted socket and to build responses. Bounded
// recursion, strict (trailing bytes rejected), no dependencies. Numbers
// keep an exact int64 view when the text was integral, so seeds and job
// ids round-trip without double rounding; bitwise-critical doubles
// (energies, coordinates) never travel as JSON numbers at all — the job
// codec ships them as hex bit patterns.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fasda/util/json_escape.hpp"

namespace fasda::serve::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  long long integer = 0;       ///< exact when `integral` is set
  bool integral = false;       ///< number text had no '.', 'e' or 'E'
  std::string string;
  std::vector<Value> items;                               ///< kArray
  std::vector<std::pair<std::string, Value>> members;     ///< kObject, in order

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_bool() const { return type == Type::kBool; }

  /// First member with `key`, or nullptr.
  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  double num_or(double fallback) const {
    return is_number() ? number : fallback;
  }
  long long int_or(long long fallback) const {
    if (!is_number()) return fallback;
    return integral ? integer : static_cast<long long>(number);
  }
  bool bool_or(bool fallback) const { return is_bool() ? boolean : fallback; }
  std::string str_or(std::string_view fallback) const {
    return is_string() ? string : std::string(fallback);
  }
};

/// Strict parse of a complete JSON document. Returns nullopt and sets
/// `error` (if non-null) on malformed input, depth overflow (64), or
/// trailing non-whitespace.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

using util::json::quoted;

/// Serializes a Value (round-trip form; integral numbers print exactly).
std::string dump(const Value& v);

}  // namespace fasda::serve::json
