#include "fasda/util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace fasda::util {

namespace {

int parse_axis(std::string_view s) {
  if (s.empty() || s.size() > 9) {
    throw std::invalid_argument("parse_dims: bad axis '" + std::string(s) + "'");
  }
  int v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("parse_dims: bad axis '" + std::string(s) +
                                  "'");
    }
    v = v * 10 + (c - '0');
  }
  if (v < 1) {
    throw std::invalid_argument("parse_dims: axes must be >= 1, got '" +
                                std::string(s) + "'");
  }
  return v;
}

}  // namespace

geom::IVec3 parse_dims(std::string_view s) {
  if (s.find('x') != std::string_view::npos) {
    const auto first = s.find('x');
    const auto second = s.find('x', first + 1);
    if (second == std::string_view::npos ||
        s.find('x', second + 1) != std::string_view::npos) {
      throw std::invalid_argument("parse_dims: expected XxYxZ, got '" +
                                  std::string(s) + "'");
    }
    return {parse_axis(s.substr(0, first)),
            parse_axis(s.substr(first + 1, second - first - 1)),
            parse_axis(s.substr(second + 1))};
  }
  if (s.size() != 3) {
    throw std::invalid_argument(
        "parse_dims: expected 3 digits (e.g. 444) or XxYxZ (e.g. 12x4x4), "
        "got '" + std::string(s) + "'");
  }
  return {parse_axis(s.substr(0, 1)), parse_axis(s.substr(1, 1)),
          parse_axis(s.substr(2, 1))};
}

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      std::string_view body = arg.substr(2);
      if (auto eq = body.find('='); eq != std::string_view::npos) {
        flags_.emplace_back(std::string(body.substr(0, eq)),
                            std::string(body.substr(eq + 1)));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        flags_.emplace_back(std::string(body), std::string(argv[++i]));
      } else {
        flags_.emplace_back(std::string(body), std::string());
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool Cli::has(std::string_view name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return true;
  }
  return false;
}

bool Cli::has_switch(std::string_view name) const {
  const auto v = get(name);
  if (v && !v->empty()) {
    throw std::invalid_argument("--" + std::string(name) +
                                " takes no value, got '" + *v + "'");
  }
  return v.has_value();
}

std::optional<std::string> Cli::get(std::string_view name) const {
  for (const auto& [key, value] : flags_) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::string Cli::get_or(std::string_view name, std::string_view fallback) const {
  auto v = get(name);
  return v ? *v : std::string(fallback);
}

namespace {

/// Runs a strtol/strtod-style parser over a flag's whole value; throws
/// when it consumes no digits, leaves characters over or overflows.
template <class T, class Parse>
T parse_number(std::string_view name, const std::string& value, Parse parse) {
  char* end = nullptr;
  errno = 0;
  const T v = parse(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("--" + std::string(name) +
                                ": not a number: '" + value + "'");
  }
  return v;
}

}  // namespace

long Cli::get_or(std::string_view name, long fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  return parse_number<long>(name, *v, [](const char* s, char** end) {
    return std::strtol(s, end, 10);
  });
}

double Cli::get_or(std::string_view name, double fallback) const {
  auto v = get(name);
  if (!v) return fallback;
  return parse_number<double>(name, *v, std::strtod);
}

std::uint16_t Cli::get_port(std::string_view name, long min_port,
                            std::optional<long> fallback) const {
  const std::string range =
      " (" + std::to_string(min_port) + "-65535)";
  if (!has(name)) {
    if (!fallback) {
      throw std::invalid_argument("--" + std::string(name) + " is required" +
                                  range);
    }
    return static_cast<std::uint16_t>(*fallback);
  }
  const long port = get_or(name, 0L);
  if (port < min_port || port > 65535) {
    throw std::invalid_argument("--" + std::string(name) + " " +
                                std::to_string(port) + " is out of range" +
                                range);
  }
  return static_cast<std::uint16_t>(port);
}

std::optional<std::string> Cli::first_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [key, value] : flags_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return "--" + key;
    }
  }
  if (!positional_.empty()) return positional_.front();
  return std::nullopt;
}

int Cli::run(int argc, char** argv, const char* prog,
             std::initializer_list<std::string_view> known,
             const std::function<int(const Cli&)>& body) {
  try {
    const Cli cli(argc, argv);
    if (const auto bad = cli.first_unknown(known)) {
      throw std::invalid_argument("unknown argument '" + *bad + "'");
    }
    return body(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 1;
  }
}

}  // namespace fasda::util
