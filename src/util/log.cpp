#include "fasda/util/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>

#include "fasda/util/json_escape.hpp"

namespace fasda::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_emit_mutex;
LogSink g_sink;                  // guarded by g_emit_mutex
std::FILE* g_json = nullptr;     // guarded by g_emit_mutex
std::atomic<bool> g_json_open{false};

const char* json_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

/// One JSON line per message; caller holds g_emit_mutex.
void json_emit_locked(LogLevel level, const LogFields& fields,
                      std::string_view msg) {
  if (g_json == nullptr) return;
  const auto ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  std::string line = "{\"ts_us\":" + std::to_string(ts_us) +
                     ",\"level\":\"" + json_level_name(level) + '"';
  if (!fields.component.empty()) {
    line += ",\"component\":" + json::quoted(fields.component);
  }
  if (fields.job != 0) line += ",\"job\":" + std::to_string(fields.job);
  if (!fields.tenant.empty()) {
    line += ",\"tenant\":" + json::quoted(fields.tenant);
  }
  line += ",\"msg\":" + json::quoted(msg) + "}\n";
  std::fwrite(line.data(), 1, line.size(), g_json);
  std::fflush(g_json);
}
}  // namespace

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

LogLevel parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  throw std::invalid_argument("unknown log level '" + std::string(name) +
                              "' (expected debug|info|warn|error|off)");
}

void set_log_sink(LogSink sink) {
  std::lock_guard lock(g_emit_mutex);
  g_sink = std::move(sink);
}

bool open_json_log(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  std::lock_guard lock(g_emit_mutex);
  if (g_json != nullptr) std::fclose(g_json);
  g_json = f;
  g_json_open.store(true);
  return true;
}

void close_json_log() {
  std::lock_guard lock(g_emit_mutex);
  if (g_json != nullptr) {
    std::fclose(g_json);
    g_json = nullptr;
  }
  g_json_open.store(false);
}

bool json_log_active() { return g_json_open.load(); }

namespace detail {
void log_emit(LogLevel level, const LogFields& fields, const char* fmt,
              std::va_list args) {
  std::lock_guard lock(g_emit_mutex);
  // Format once to a buffer: the sink contract and the JSON sink both need
  // one complete line.
  char stack_buf[512];
  std::string big;
  std::va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(stack_buf, sizeof stack_buf, fmt, copy);
  va_end(copy);
  if (n < 0) return;
  std::string_view msg;
  if (static_cast<std::size_t>(n) < sizeof stack_buf) {
    msg = std::string_view(stack_buf, static_cast<std::size_t>(n));
  } else {
    big.assign(static_cast<std::size_t>(n) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, args);
    msg = std::string_view(big.data(), static_cast<std::size_t>(n));
  }
  json_emit_locked(level, fields, msg);
  if (g_sink) {
    g_sink(level, msg);
    return;
  }
  std::fprintf(stderr, "[fasda %-5s] ", log_level_name(level));
  if (!fields.component.empty()) {
    std::fprintf(stderr, "%.*s: ", static_cast<int>(fields.component.size()),
                 fields.component.data());
  }
  std::fwrite(msg.data(), 1, msg.size(), stderr);
  std::fputc('\n', stderr);
}
}  // namespace detail

}  // namespace fasda::util
