// Wall-clock serve observability (obs/server_stats.hpp): the ServerStats
// registry wrapper and the ServeTrace span recorder (DESIGN.md §17).

#include "fasda/obs/server_stats.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "fasda/util/json_escape.hpp"

namespace fasda::obs {

std::uint64_t wall_micros() {
  using namespace std::chrono;
  // Capture both clocks once; afterwards only the monotonic clock is read,
  // so the stream of stamps can never go backwards inside one process.
  struct Base {
    steady_clock::time_point steady = steady_clock::now();
    std::uint64_t real_us = static_cast<std::uint64_t>(
        duration_cast<microseconds>(system_clock::now().time_since_epoch())
            .count());
  };
  static const Base base;
  const auto mono =
      duration_cast<microseconds>(steady_clock::now() - base.steady).count();
  return base.real_us + static_cast<std::uint64_t>(mono);
}

ServerStats::ServerStats() {
  submit_to_result_us = reg_.histogram(
      "serve.latency.submit_to_result_us",
      "wall micros from durable admission to the kResult push");
  queue_wait_us = reg_.histogram(
      "serve.latency.queue_wait_us",
      "wall micros an admitted job waited before a worker popped it");
  execute_us = reg_.histogram("serve.latency.execute_us",
                              "wall micros inside execute_job");
  journal_append_us =
      reg_.histogram("serve.latency.journal_append_us",
                     "wall micros for one journal append incl. fsync");
  journal_fsync_us = reg_.histogram("serve.latency.journal_fsync_us",
                                    "wall micros for the journal fsync alone");
  recovery_us = reg_.histogram("serve.latency.recovery_us",
                               "wall micros of the startup replay window");
  frames_decoded =
      reg_.counter("serve.frames.decoded", "well-formed frames received");
  frames_bad_length =
      reg_.counter("serve.frames.bad_length", "frames dropped: bad length");
  frames_bad_crc =
      reg_.counter("serve.frames.bad_crc", "frames dropped: CRC mismatch");
  frames_bad_type =
      reg_.counter("serve.frames.bad_type", "frames dropped: unknown type");
  rejected_bad_request = reg_.counter("serve.rejected.bad_request",
                                      "submits rejected: malformed request");
  rejected_queue_full =
      reg_.counter("serve.rejected.queue_full", "submits rejected: queue full");
  rejected_tenant_quota = reg_.counter("serve.rejected.tenant_quota",
                                       "submits rejected: tenant over quota");
  rejected_draining =
      reg_.counter("serve.rejected.draining", "submits rejected: draining");
  rejected_stopped =
      reg_.counter("serve.rejected.stopped", "submits rejected: stopped");
  rejected_recovering = reg_.counter(
      "serve.rejected.recovering", "submits answered kRecovering (retryable)");
  jobs_submitted = reg_.counter("serve.jobs.submitted", "jobs admitted");
  jobs_completed = reg_.counter("serve.jobs.completed", "jobs completed");
  jobs_recovered = reg_.counter("serve.jobs.recovered",
                                "jobs re-admitted from the journal");
  jobs_resumed = reg_.counter("serve.jobs.resumed",
                              "recovered jobs resumed from a checkpoint");
  results_restored = reg_.counter("serve.results.restored",
                                  "completed results restored at startup");
  journal_appends = reg_.counter("serve.journal.appends", "journal appends");
  journal_disabled = reg_.counter("serve.journal.disabled",
                                  "journal demotions after an I/O failure");
  journal_rotations =
      reg_.counter("serve.journal.rotations", "journal compactions");
  conns_accepted =
      reg_.counter("serve.conns.accepted", "connections accepted");
  conns_closed = reg_.counter("serve.conns.closed", "connections closed");
  queue_depth = reg_.gauge("serve.queue.depth", "jobs queued, not running");
  jobs_running = reg_.gauge("serve.jobs.running", "jobs currently executing");
  conns_active = reg_.gauge("serve.conns.active", "live connections");
  uptime_seconds =
      reg_.gauge("serve.uptime_seconds", "seconds since this incarnation");
  recovering =
      reg_.gauge("serve.recovering", "1 while the startup replay runs");
}

void ServerStats::tenant_add(std::string_view tenant, std::string_view what,
                             std::uint64_t delta) {
  if (!enabled_) return;
  std::string name = "serve.tenant.";
  name += tenant;
  name += '.';
  name += what;
  std::lock_guard<std::mutex> lock(mu_);
  const Handle h = reg_.counter(name, "per-tenant serve counter");
  reg_.add(kClusterNode, h, delta);
}

// ------------------------------------------------------------- ServeTrace

void ServeTrace::push(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(e));
}

void ServeTrace::begin(std::uint64_t job, std::uint64_t span, const char* name,
                       std::string tenant) {
  if (!enabled_) return;
  Event e;
  e.ts_us = wall_micros();
  e.job = job;
  e.span = span;
  e.phase = 'B';
  e.name = name;
  e.tenant = std::move(tenant);
  push(std::move(e));
}

void ServeTrace::end(std::uint64_t job, std::uint64_t span, const char* name) {
  if (!enabled_) return;
  Event e;
  e.ts_us = wall_micros();
  e.job = job;
  e.span = span;
  e.phase = 'E';
  e.name = name;
  push(std::move(e));
}

void ServeTrace::instant(std::uint64_t job, std::uint64_t span,
                         const char* name, std::int64_t arg,
                         const char* arg_name) {
  if (!enabled_) return;
  Event e;
  e.ts_us = wall_micros();
  e.job = job;
  e.span = span;
  e.phase = 'i';
  e.name = name;
  e.arg = arg;
  e.arg_name = arg_name;
  push(std::move(e));
}

std::size_t ServeTrace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t ServeTrace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string ServeTrace::to_chrome_json() const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  // Snapshot closure: compute the spans still open per job track and emit
  // synthetic 'E' events at the export timestamp, innermost first, so the
  // dump is always balanced regardless of what is mid-flight.
  struct Open {
    std::uint64_t job, span;
    const char* name;
  };
  std::vector<Open> open;
  for (const Event& e : events) {
    if (e.phase == 'B') {
      open.push_back({e.job, e.span, e.name});
    } else if (e.phase == 'E') {
      for (std::size_t i = open.size(); i-- > 0;) {
        if (open[i].job == e.job &&
            std::string_view(open[i].name) == std::string_view(e.name)) {
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }
  const std::uint64_t close_ts = wall_micros();

  std::string out = "{\"traceEvents\":[\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":0,\"args\":{\"name\":\"fasda_serve (wall clock)\"}}");
  out += buf;
  // Per-job track names, in first-appearance order.
  std::vector<std::uint64_t> seen;
  for (const Event& e : events) {
    if (std::find(seen.begin(), seen.end(), e.job) != seen.end()) continue;
    seen.push_back(e.job);
    if (e.job == 0) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":0,\"args\":{\"name\":\"server\"}}");
    } else {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%" PRIu64
                    ",\"args\":{\"name\":\"job %" PRIu64 "\"}}",
                    e.job, e.job);
    }
    out += buf;
  }
  const auto emit = [&out, &buf](const Event& e) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":1,\"tid\":%" PRIu64
                  ",\"ts\":%" PRIu64,
                  e.name, e.phase, e.job, e.ts_us);
    out += buf;
    if (e.phase == 'i') out += ",\"s\":\"t\"";
    std::snprintf(buf, sizeof buf,
                  ",\"args\":{\"job\":%" PRIu64 ",\"span\":%" PRIu64, e.job,
                  e.span);
    out += buf;
    if (!e.tenant.empty()) {
      out += ",\"tenant\":" + util::json::quoted(e.tenant);
    }
    if (e.arg_name != nullptr) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%lld", e.arg_name,
                    static_cast<long long>(e.arg));
      out += buf;
    }
    out += "}}";
  };
  for (const Event& e : events) emit(e);
  for (std::size_t i = open.size(); i-- > 0;) {
    Event e;
    e.ts_us = close_ts;
    e.job = open[i].job;
    e.span = open[i].span;
    e.phase = 'E';
    e.name = open[i].name;
    emit(e);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace fasda::obs
