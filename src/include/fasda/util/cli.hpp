#pragma once
// Tiny flag parser shared by the tools, benches and examples: --key value /
// --key=value / bare --switch. Every flag is collected; a tool that rejects
// the ones it does not read runs its body through Cli::run().

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fasda/geom/vec3.hpp"

namespace fasda::util {

/// Parses a grid/config dimension triple: either the artifact's 3-digit
/// shorthand ("444" → 4×4×4) or the general "XxYxZ" form ("12x4x4"),
/// which is the only way to express axes ≥ 10 cells. Every component must
/// be ≥ 1; throws std::invalid_argument otherwise.
geom::IVec3 parse_dims(std::string_view s);

class Cli {
 public:
  Cli(int argc, char** argv);

  /// True if --name was present (with or without a value).
  bool has(std::string_view name) const;

  /// True if the bare switch --name was present. A bare switch followed by
  /// a word would take it as its value under the --key value grammar, so a
  /// value throws std::invalid_argument instead of dropping the word.
  bool has_switch(std::string_view name) const;

  std::optional<std::string> get(std::string_view name) const;
  std::string get_or(std::string_view name, std::string_view fallback) const;
  /// Numeric values must parse whole: an empty value, trailing characters
  /// ("2fs") or overflow throw std::invalid_argument naming the flag.
  long get_or(std::string_view name, long fallback) const;
  double get_or(std::string_view name, double fallback) const;
  /// A TCP port: --name as an integer in [min_port, 65535]. Absent, it is
  /// `fallback`, or with no fallback the flag is required. A missing
  /// required port or one out of range throws std::invalid_argument naming
  /// the flag and the range.
  std::uint16_t get_port(std::string_view name, long min_port,
                         std::optional<long> fallback = std::nullopt) const;

  /// The first flag not in `known` ("--name"), else the first positional
  /// argument, else nullopt.
  std::optional<std::string> first_unknown(
      std::initializer_list<std::string_view> known) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// The command-line front end of the tools: parses argv, refuses a flag
  /// outside `known` or a positional argument, then runs `body`. Either
  /// refusal, or a std::invalid_argument out of `body` (a malformed number,
  /// an unknown enum value), prints one line "prog: message" to stderr and
  /// returns exit code 1. Otherwise returns what `body` returns.
  static int run(int argc, char** argv, const char* prog,
                 std::initializer_list<std::string_view> known,
                 const std::function<int(const Cli&)>& body);

 private:
  std::vector<std::pair<std::string, std::string>> flags_;  // name -> value ("" if none)
  std::vector<std::string> positional_;
};

}  // namespace fasda::util
