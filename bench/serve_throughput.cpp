// serve_throughput — sustained job throughput of the fasda_serve daemon
// core (DESIGN.md §15), measured end to end over real loopback sockets.
//
// An in-process Server is loaded by N client threads, each submitting M
// jobs of R ensemble replicas (N*M*R queued replicas total; the default
// 4 x 64 x 8 = 2048 comfortably exceeds the 1000-replica floor the
// acceptance bar asks for). Clients submit everything up front — the
// queue capacity is sized to hold the full backlog, so the measurement is
// the drain rate of the admission/queue/executor pipeline, not client
// pacing. Results are printed as JSON and optionally written to --out
// (BENCH_serve.json at the repo root is a committed snapshot).
//
// Usage:
//   serve_throughput [--clients 4] [--jobs 64] [--replicas 8] [--steps 2]
//                    [--queue-workers 2] [--out FILE] [--date YYYY-MM-DD]
//                    [--state-dir DIR] [--journal-fsync always|never]
//                    [--obs]
//
// --state-dir turns on the write-ahead journal (DESIGN.md §16) so the
// bench doubles as a measurement of the durability tax: every admission
// and completion appends (and, with --journal-fsync always, fsyncs) a
// journal record on the submit/complete path. Compare runs with no state
// dir, --journal-fsync never, and --journal-fsync always to price the
// exactly-once guarantee.
//
// --obs prices the wall-clock observability plane (DESIGN.md §17): the
// identical workload runs twice in one process — first with wall_obs off
// (no ServerStats emissions, no spans), then with the full plane on — and
// the JSON reports both rates plus the overhead percentage
// (BENCH_serve_obs.json is the committed snapshot; the acceptance bar is
// <= 5% on jobs/s).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fasda/obs/obs.hpp"
#include "fasda/serve/client.hpp"
#include "fasda/serve/server.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/stopwatch.hpp"

using namespace fasda;

namespace {

struct RunStats {
  int ok = 0;
  int failed = 0;
  double seconds = 0.0;
  std::uint64_t trace_events = 0;
};

int run_serve_throughput(const util::Cli& cli) {
  const int clients = static_cast<int>(cli.get_or("clients", 4L));
  const int jobs = static_cast<int>(cli.get_or("jobs", 64L));
  const int replicas = static_cast<int>(cli.get_or("replicas", 8L));
  const int steps = static_cast<int>(cli.get_or("steps", 2L));
  const std::size_t queue_workers =
      static_cast<std::size_t>(cli.get_or("queue-workers", 2L));
  const std::string out_path = cli.get_or("out", "");
  const std::string date = cli.get_or("date", "unknown");
  const std::string state_dir = cli.get_or("state-dir", "");
  const std::string fsync_policy = cli.get_or("journal-fsync", "always");
  const bool obs_mode = cli.has_switch("obs");
  if (fsync_policy != "always" && fsync_policy != "never") {
    throw std::invalid_argument("--journal-fsync must be always or never");
  }

  const auto run_once = [&](bool wall_obs) -> RunStats {
    serve::ServerConfig config;
    config.queue_workers = queue_workers;
    config.queue.capacity = static_cast<std::size_t>(clients) *
                                static_cast<std::size_t>(jobs) +
                            16;
    config.state_dir = state_dir;
    config.journal_fsync = fsync_policy == "never"
                               ? serve::JournalFsync::kNever
                               : serve::JournalFsync::kAlways;
    config.wall_obs = wall_obs;
    serve::Server server(config);
    server.start();
    while (server.recovering()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    std::atomic<int> ok{0};
    std::atomic<int> failed{0};
    util::Stopwatch wall;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::Client client("127.0.0.1", server.port());
          // Submit the whole backlog first so the queue really holds
          // clients*jobs entries, then collect results in submit order.
          std::vector<std::uint64_t> ids;
          ids.reserve(static_cast<std::size_t>(jobs));
          for (int j = 0; j < jobs; ++j) {
            serve::JobRequest req;
            req.tenant = "bench" + std::to_string(c);
            req.replicas = replicas;
            req.steps = steps;
            req.space = "333";
            req.per_cell = 4;
            req.seed = 0x5eed + static_cast<std::uint64_t>(c * jobs + j);
            req.batch_workers = 1;
            const auto reply = client.submit(req);
            if (!reply.accepted) {
              std::fprintf(stderr, "bench: rejected: %s\n",
                           reply.reason.c_str());
              failed.fetch_add(1);
              continue;
            }
            ids.push_back(reply.job_id);
          }
          for (const std::uint64_t id : ids) {
            const serve::JobResult result = client.wait_result(id);
            if (result.outcome == serve::JobOutcome::kOk) {
              ok.fetch_add(1);
            } else {
              failed.fetch_add(1);
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench: client %d: %s\n", c, e.what());
          failed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    RunStats stats;
    stats.seconds = wall.seconds();
    stats.trace_events = server.wall_trace().size();
    server.drain_and_stop();
    stats.ok = ok.load();
    stats.failed = failed.load();
    return stats;
  };

  const int total = clients * jobs;
  char json[4096];

  if (!obs_mode) {
    const RunStats r = run_once(true);
    std::snprintf(
        json, sizeof json,
        "{\n"
        "  \"benchmark\": \"fasda_serve sustained job throughput over "
        "loopback TCP (DESIGN.md \\u00a715)\",\n"
        "  \"date\": \"%s\",\n"
        "  \"command\": \"./build/bench/serve_throughput --clients %d "
        "--jobs %d --replicas %d --steps %d --queue-workers %zu\",\n"
        "  \"host\": {\n"
        "    \"hardware_concurrency\": %u\n"
        "  },\n"
        "  \"results\": {\n"
        "    \"journal\": \"%s\",\n"
        "    \"jobs\": %d,\n"
        "    \"jobs_ok\": %d,\n"
        "    \"jobs_failed\": %d,\n"
        "    \"queued_ensemble_replicas\": %d,\n"
        "    \"wall_seconds\": %.3f,\n"
        "    \"jobs_per_second\": %.2f,\n"
        "    \"replicas_per_second\": %.2f\n"
        "  }\n"
        "}\n",
        date.c_str(), clients, jobs, replicas, steps, queue_workers,
        std::thread::hardware_concurrency(),
        state_dir.empty() ? "off" : fsync_policy.c_str(), total, r.ok,
        r.failed, total * replicas, r.seconds,
        r.seconds > 0 ? total / r.seconds : 0.0,
        r.seconds > 0 ? total * replicas / r.seconds : 0.0);
    std::fputs(json, stdout);
    if (!out_path.empty() && !obs::write_text_file(out_path, json)) {
      std::fprintf(stderr, "bench: failed to write %s\n", out_path.c_str());
      return 1;
    }
    return r.failed == 0 ? 0 : 1;
  }

  // --obs: identical workload, observability off then on. Off first so the
  // on-run cannot benefit from page-cache warmup the off-run paid for (any
  // warmup bias thus inflates, not hides, the reported overhead).
  const RunStats off = run_once(false);
  const RunStats on = run_once(true);
  const double jps_off = off.seconds > 0 ? total / off.seconds : 0.0;
  const double jps_on = on.seconds > 0 ? total / on.seconds : 0.0;
  const double overhead_pct =
      jps_off > 0 ? (jps_off - jps_on) / jps_off * 100.0 : 0.0;
  std::snprintf(
      json, sizeof json,
      "{\n"
      "  \"benchmark\": \"fasda_serve wall-clock observability overhead "
      "(DESIGN.md \\u00a717)\",\n"
      "  \"date\": \"%s\",\n"
      "  \"command\": \"./build/bench/serve_throughput --obs --clients %d "
      "--jobs %d --replicas %d --steps %d --queue-workers %zu\",\n"
      "  \"host\": {\n"
      "    \"hardware_concurrency\": %u\n"
      "  },\n"
      "  \"results\": {\n"
      "    \"journal\": \"%s\",\n"
      "    \"jobs\": %d,\n"
      "    \"metrics_off\": {\n"
      "      \"jobs_ok\": %d,\n"
      "      \"jobs_failed\": %d,\n"
      "      \"wall_seconds\": %.3f,\n"
      "      \"jobs_per_second\": %.2f\n"
      "    },\n"
      "    \"metrics_on\": {\n"
      "      \"jobs_ok\": %d,\n"
      "      \"jobs_failed\": %d,\n"
      "      \"wall_seconds\": %.3f,\n"
      "      \"jobs_per_second\": %.2f,\n"
      "      \"trace_events\": %llu\n"
      "    },\n"
      "    \"overhead_percent\": %.2f,\n"
      "    \"acceptance_max_percent\": 5.0\n"
      "  }\n"
      "}\n",
      date.c_str(), clients, jobs, replicas, steps, queue_workers,
      std::thread::hardware_concurrency(),
      state_dir.empty() ? "off" : fsync_policy.c_str(), total, off.ok,
      off.failed, off.seconds, jps_off, on.ok, on.failed, on.seconds, jps_on,
      static_cast<unsigned long long>(on.trace_events), overhead_pct);
  std::fputs(json, stdout);
  if (!out_path.empty() && !obs::write_text_file(out_path, json)) {
    std::fprintf(stderr, "bench: failed to write %s\n", out_path.c_str());
    return 1;
  }
  return off.failed == 0 && on.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::Cli::run(
      argc, argv, "serve_throughput",
      {"clients", "date", "jobs", "journal-fsync", "obs", "out",
       "queue-workers", "replicas", "state-dir", "steps"},
      run_serve_throughput);
}
