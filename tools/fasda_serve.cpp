// fasda_serve — the multi-tenant simulation job daemon (DESIGN.md §15-16).
//
// Listens on a TCP socket for length-prefixed JSON frames (serve/wire.hpp),
// admits JobRequests through a bounded priority queue with per-tenant
// quotas, runs them on queue workers via serve::execute_job, and streams
// kStatus/kResult frames back to the submitting connection. SIGTERM (or
// SIGINT) starts a graceful drain: new submits are rejected with
// "draining", admitted jobs finish, a clean-shutdown record is journaled,
// then the daemon exits 0.
//
// With --state-dir the daemon is crash-safe: every admitted job is
// journaled before it is acknowledged, supervised jobs bank step-stamped
// checkpoints, and completed results are durable. A restarted daemon
// replays the journal, re-admits lost jobs in their original order
// (resuming supervised ones from their last checkpoint), and answers
// kQuery for results that finished before the crash.
//
// Usage:
//   fasda_serve [--host 127.0.0.1] [--port 0] [--queue-workers 2]
//               [--queue-cap 256] [--tenant-quota 0] [--recv-timeout 600]
//               [--send-timeout 30] [--state-dir DIR]
//               [--journal-fsync always|never] [--pid-file PATH]
//               [--no-wall-obs] [--metrics-out PATH] [--metrics-every SECS]
//               [--trace-out PATH] [--log-json PATH] [--log-level LEVEL]
//
// --port 0 binds an ephemeral port; the actual port is announced on stdout
// as "fasda_serve: listening on HOST:PORT" so harnesses can parse it.
//
// Exit codes:
//   0  drained after SIGTERM/SIGINT (or --help)
//   1  usage error: an unread flag, a positional argument, a malformed
//      number, --port outside 0-65535, a bad --journal-fsync or
//      --log-level (one line "fasda_serve: message" on stderr)
//   2  runtime failure: cannot open --log-json, the server failed to start
// --pid-file writes the daemon pid once listening (and removes it on
// graceful exit) so crash harnesses can aim their SIGKILL.
//
// Observability (DESIGN.md §17): the wall-clock plane is on by default and
// scraped live over the socket with fasda_stat (kStats). --metrics-out
// additionally rewrites a Prometheus text file every --metrics-every
// seconds; --trace-out does the same with the Chrome trace of job spans —
// the file a SIGKILLed incarnation leaves behind is what stitches its spans
// to the next incarnation's. --log-json tees every log line into a
// JSON-lines file with structured component/job/tenant fields.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "fasda/serve/server.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/log.hpp"

using namespace fasda;

namespace {

int serve_main(const util::Cli& cli) {
  if (cli.has_switch("help")) {
    std::printf(
        "usage: fasda_serve [--host ADDR] [--port P] [--queue-workers N]\n"
        "                   [--queue-cap N] [--tenant-quota N]\n"
        "                   [--recv-timeout SECONDS] [--send-timeout SECONDS]\n"
        "                   [--state-dir DIR] [--journal-fsync always|never]\n"
        "                   [--pid-file PATH] [--no-wall-obs]\n"
        "                   [--metrics-out PATH] [--metrics-every SECONDS]\n"
        "                   [--trace-out PATH] [--log-json PATH]\n"
        "                   [--log-level debug|info|warn|error|off]\n");
    return 0;
  }

  serve::ServerConfig config;
  config.host = cli.get_or("host", "127.0.0.1");
  config.port = cli.get_port("port", 0, 0);
  config.queue_workers =
      static_cast<std::size_t>(cli.get_or("queue-workers", 2L));
  config.queue.capacity =
      static_cast<std::size_t>(cli.get_or("queue-cap", 256L));
  config.queue.tenant_quota =
      static_cast<std::size_t>(cli.get_or("tenant-quota", 0L));
  config.recv_timeout_seconds =
      static_cast<int>(cli.get_or("recv-timeout", 600L));
  config.send_timeout_seconds =
      static_cast<int>(cli.get_or("send-timeout", 30L));
  config.state_dir = cli.get_or("state-dir", "");
  const std::string fsync_policy = cli.get_or("journal-fsync", "always");
  if (fsync_policy == "always") {
    config.journal_fsync = serve::JournalFsync::kAlways;
  } else if (fsync_policy == "never") {
    config.journal_fsync = serve::JournalFsync::kNever;
  } else {
    throw std::invalid_argument("--journal-fsync must be always|never, got " +
                                fsync_policy);
  }
  const std::string pid_file = cli.get_or("pid-file", "");

  config.wall_obs = !cli.has_switch("no-wall-obs");
  config.metrics_out = cli.get_or("metrics-out", "");
  config.metrics_every_seconds =
      static_cast<int>(cli.get_or("metrics-every", 5L));
  config.trace_out = cli.get_or("trace-out", "");
  const std::string log_level = cli.get_or("log-level", "");
  if (!log_level.empty()) util::set_log_level(util::parse_log_level(log_level));
  const std::string log_json = cli.get_or("log-json", "");
  if (!log_json.empty() && !util::open_json_log(log_json)) {
    std::fprintf(stderr, "fasda_serve: cannot open --log-json %s\n",
                 log_json.c_str());
    return 2;
  }

  serve::Server server(config);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fasda_serve: %s\n", e.what());
    return 2;
  }
  if (!pid_file.empty()) {
    if (std::FILE* f = std::fopen(pid_file.c_str(), "w")) {
      std::fprintf(f, "%ld\n", static_cast<long>(::getpid()));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "fasda_serve: cannot write pid file %s\n",
                   pid_file.c_str());
    }
  }
  std::printf("fasda_serve: listening on %s:%u\n", server.host().c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  if (!config.state_dir.empty()) {
    // Replay runs on a background thread so the socket answers
    // kRecovering immediately; wait it out here just to report.
    while (server.recovering()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const serve::RecoveryReport& report = server.recovery_report();
    std::printf(
        "fasda_serve: recovery tail=%s clean_shutdown=%d records=%zu "
        "readmitted=%llu resumed=%llu results_restored=%llu\n",
        serve::journal_tail_name(report.tail), report.clean_shutdown ? 1 : 0,
        report.entries.size(),
        static_cast<unsigned long long>(server.jobs_recovered()),
        static_cast<unsigned long long>(server.jobs_resumed()),
        static_cast<unsigned long long>(server.results_restored()));
    if (!report.issue.empty()) {
      std::printf("fasda_serve: journal salvage: %s (%zu bytes quarantined)\n",
                  report.issue.c_str(), report.quarantined_bytes);
    }
    std::fflush(stdout);
  }

  serve::Server::install_signal_drain(&server);
  server.wait_for_drain_signal();
  std::printf("fasda_serve: draining (%zu queued, %zu running)\n",
              server.queue_depth(), server.jobs_running());
  std::fflush(stdout);
  server.drain_and_stop();
  serve::Server::install_signal_drain(nullptr);
  if (!pid_file.empty()) ::unlink(pid_file.c_str());

  std::printf(
      "fasda_serve: drained; submitted=%llu completed=%llu rejected=%llu "
      "recovered=%llu\n",
      static_cast<unsigned long long>(server.jobs_submitted()),
      static_cast<unsigned long long>(server.jobs_completed()),
      static_cast<unsigned long long>(server.jobs_rejected()),
      static_cast<unsigned long long>(server.jobs_recovered()));
  util::close_json_log();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::Cli::run(
      argc, argv, "fasda_serve",
      {"help", "host", "port", "queue-workers", "queue-cap", "tenant-quota",
       "recv-timeout", "send-timeout", "state-dir", "journal-fsync",
       "pid-file", "no-wall-obs", "metrics-out", "metrics-every", "trace-out",
       "log-level", "log-json"},
      serve_main);
}
