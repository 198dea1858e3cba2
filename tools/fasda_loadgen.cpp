// fasda_loadgen — concurrent load driver for a running fasda_serve daemon.
//
// Spins up --clients threads, each with its own connection and tenant id,
// and pushes --jobs jobs per client. --mix rotates the job spec across the
// engine registry (functional / reference / cycle) with varying
// forcefields and priorities; --crash-one swaps client 0's first job for a
// supervised cycle job with an induced node crash (crash=1-1000, the
// smoke-test fault), which must still come back recovered.
//
// Crash-soak mode (DESIGN.md §16): --kill-every N SIGKILLs the daemon
// (pid read from --pid-file) after every N completed jobs, up to
// --max-kills times. The harness is expected to restart the daemon on the
// same port with the same --state-dir; clients ride out the restart window
// with bounded reconnect-with-backoff and resubmit in-flight jobs under
// stable idempotency keys, so every job still completes exactly once.
// --verify recomputes every job locally through the same execute_job()
// and requires the served result to be bitwise identical.
//
// Exit codes:
//   0  every job was admitted (after queue-full/tenant-quota/recovering
//      retries) and completed with its expected outcome (and, with
//      --verify, bitwise-matched the direct computation)
//   1  usage error: an unread flag, a positional argument, a malformed
//      number, a missing --port or one outside 1-65535, --kill-every
//      without --pid-file (one line "fasda_loadgen: message" on stderr)
//   2  runtime failure: a job failed, could not reach the daemon, or did
//      not verify
//
// Usage:
//   fasda_loadgen --port P [--host 127.0.0.1] [--clients 4] [--jobs 8]
//                 [--mix] [--crash-one] [--replicas 2] [--steps 4]
//                 [--tenant load] [--retries 50] [--verify]
//                 [--kill-every N] [--max-kills 5] [--pid-file PATH]
//                 [--idempotent] [--supervise-every N]

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fasda/serve/client.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/stopwatch.hpp"

using namespace fasda;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int clients = 4;
  int jobs = 8;
  bool mix = false;
  bool crash_one = false;
  int replicas = 2;
  int steps = 4;
  std::string tenant = "load";
  int retries = 50;
  bool verify = false;
  int kill_every = 0;   ///< 0 = never kill the daemon
  int max_kills = 5;
  std::string pid_file;
  bool idempotent = false;
  int supervise_every = 0;  ///< every Nth job runs supervised w/ checkpoints
};

serve::JobRequest job_for(const Options& opt, int client, int index) {
  serve::JobRequest req;
  req.tenant = opt.tenant + std::to_string(client);
  req.replicas = opt.replicas;
  req.steps = opt.steps;
  req.sample = 2;
  req.space = "333";
  req.per_cell = 8;
  req.seed = 0x5eed + static_cast<std::uint64_t>(client) * 1000 +
             static_cast<std::uint64_t>(index);
  req.batch_workers = 2;
  if (opt.mix) {
    static const char* kEngines[] = {"functional", "reference", "cycle"};
    req.engine = kEngines[(client + index) % 3];
    req.forcefield = (index % 2 == 0) ? "na" : "nacl";
    req.priority = index % 3;
  }
  if (opt.supervise_every > 0 && index % opt.supervise_every == 0) {
    // Give the durability layer something to checkpoint: supervised jobs
    // bank step-stamped state, so a SIGKILL mid-run resumes instead of
    // rerunning from scratch.
    req.supervise = true;
    req.checkpoint_every = 2;
    req.replicas = 1;
  }
  if (opt.crash_one && client == 0 && index == 0) {
    // The smoke-test crash workload: node 1 dies at cycle 1000 and the
    // supervisor rolls back and replays. Must complete (recovered).
    req.engine = "cycle";
    req.space = "444";
    req.per_cell = 4;
    req.steps = 3;
    req.sample = 0;
    req.cells = "222";
    req.faults = "crash=1-1000";
    req.supervise = true;
    req.replicas = 1;
    req.forcefield = "na";
    req.checkpoint_every = 0;
  }
  if (opt.idempotent || opt.kill_every > 0) {
    req.idempotency = "loadgen-" + opt.tenant + "-c" +
                      std::to_string(client) + "-j" + std::to_string(index);
  }
  return req;
}

bool outcome_ok(const Options& opt, int client, int index,
                const serve::JobResult& result) {
  if (opt.crash_one && client == 0 && index == 0) {
    // Recovered (ok) or completed-degraded both count as a clean recovery.
    return result.outcome == serve::JobOutcome::kOk ||
           result.outcome == serve::JobOutcome::kDegraded;
  }
  return result.outcome == serve::JobOutcome::kOk;
}

std::string canon(serve::JobResult result) {
  result.job_id = 0;
  return result.to_json(/*deterministic_only=*/true);
}

/// SIGKILLs the daemon named by the pid file after every `kill_every`
/// completed jobs, never the same incarnation twice. Runs until the
/// drivers finish or `max_kills` is spent.
void killer_loop(const Options& opt, const std::atomic<int>& finished,
                 const std::atomic<bool>& done, std::atomic<int>& kills) {
  long last_killed = -1;
  int next_threshold = opt.kill_every;
  while (!done.load()) {
    if (kills.load() >= opt.max_kills) return;
    if (finished.load() < next_threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    long pid = -1;
    if (std::FILE* f = std::fopen(opt.pid_file.c_str(), "r")) {
      if (std::fscanf(f, "%ld", &pid) != 1) pid = -1;
      std::fclose(f);
    }
    if (pid <= 0 || pid == last_killed) {
      // Stale or not-yet-rewritten pid file: the previous incarnation is
      // still the one on disk. Wait for the restart loop to catch up.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    if (::kill(static_cast<pid_t>(pid), SIGKILL) == 0) {
      std::printf("fasda_loadgen: SIGKILL pid %ld (%d jobs finished)\n", pid,
                  finished.load());
      std::fflush(stdout);
      last_killed = pid;
      kills.fetch_add(1);
      next_threshold += opt.kill_every;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

int loadgen_main(const util::Cli& cli) {
  Options opt;
  opt.host = cli.get_or("host", opt.host);
  opt.port = cli.get_port("port", 1);
  opt.clients = static_cast<int>(cli.get_or("clients", 4L));
  opt.jobs = static_cast<int>(cli.get_or("jobs", 8L));
  opt.mix = cli.has_switch("mix");
  opt.crash_one = cli.has_switch("crash-one");
  opt.replicas = static_cast<int>(cli.get_or("replicas", 2L));
  opt.steps = static_cast<int>(cli.get_or("steps", 4L));
  opt.tenant = cli.get_or("tenant", opt.tenant);
  opt.retries = static_cast<int>(cli.get_or("retries", 50L));
  opt.verify = cli.has_switch("verify");
  opt.kill_every = static_cast<int>(cli.get_or("kill-every", 0L));
  opt.max_kills = static_cast<int>(cli.get_or("max-kills", 5L));
  opt.pid_file = cli.get_or("pid-file", "");
  opt.idempotent = cli.has_switch("idempotent");
  opt.supervise_every =
      static_cast<int>(cli.get_or("supervise-every", 0L));
  if (opt.kill_every > 0 && opt.pid_file.empty()) {
    throw std::invalid_argument("--kill-every needs --pid-file");
  }

  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::atomic<int> retried{0};
  std::atomic<int> reconnects{0};
  std::atomic<int> finished{0};  // completed + failed, drives the killer
  std::atomic<int> kills{0};
  std::atomic<bool> done{false};
  util::Stopwatch wall;

  // Saved (request, served-canon) pairs for --verify.
  std::mutex verify_mu;
  std::vector<std::pair<serve::JobRequest, std::string>> to_verify;

  const bool durable = opt.kill_every > 0;
  serve::RetryPolicy policy;
  policy.max_attempts = durable ? 80 : 1;  // rides out ~30 s of restart
  policy.backoff_initial = std::chrono::milliseconds(50);
  policy.backoff_cap = std::chrono::milliseconds(500);

  std::thread killer;
  if (durable) {
    killer = std::thread(
        [&] { killer_loop(opt, finished, done, kills); });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opt.clients));
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<serve::Client> client;
      for (int j = 0; j < opt.jobs; ++j) {
        const serve::JobRequest req = job_for(opt, c, j);
        int admission_attempts = 0;
        int conn_failures = 0;
        bool ok = false;
        std::string fail_note;
        for (;;) {
          try {
            if (!client) {
              client = std::make_unique<serve::Client>(opt.host, opt.port,
                                                       policy);
            }
            const serve::Client::SubmitReply reply = client->submit(req);
            if (!reply.accepted) {
              const bool transient =
                  reply.reason == "queue-full" ||
                  reply.reason == "tenant-quota" ||
                  reply.reason == "recovering" ||
                  (durable && reply.reason == "draining");
              if (transient && admission_attempts++ < opt.retries) {
                retried.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(reply.reason == "recovering"
                                                  ? 50
                                                  : 20));
                continue;
              }
              fail_note = "rejected: " + reply.reason + " " + reply.detail;
              break;
            }
            const serve::JobResult result =
                client->wait_result(reply.job_id);
            if (!outcome_ok(opt, c, j, result)) {
              fail_note = std::string("outcome ") +
                          serve::job_outcome_name(result.outcome);
              break;
            }
            if (opt.verify) {
              std::lock_guard<std::mutex> lock(verify_mu);
              to_verify.emplace_back(req, canon(result));
            }
            ok = true;
            break;
          } catch (const serve::RetryGiveUpError& e) {
            fail_note = std::string("gave up reconnecting: ") + e.what();
            break;
          } catch (const serve::WireError& e) {
            // Connection died (daemon killed or restarted). Reconnect and
            // resubmit under the same idempotency key: the server either
            // attaches to the surviving job or replays the durable result,
            // so the retry can never double-run acknowledged work.
            client.reset();
            if (!durable || conn_failures++ >= opt.retries) {
              fail_note = std::string("connection: ") + e.what();
              break;
            }
            reconnects.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
          }
        }
        if (ok) {
          completed.fetch_add(1);
        } else {
          std::fprintf(stderr, "fasda_loadgen: client %d job %d: %s\n", c, j,
                       fail_note.c_str());
          failed.fetch_add(1);
        }
        finished.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  if (killer.joinable()) killer.join();

  int verify_failures = 0;
  if (opt.verify) {
    // Served-vs-direct bitwise comparison: execute_job is pure, so the
    // local recomputation must match the served bytes exactly — across
    // however many daemon incarnations the soak killed.
    for (const auto& [req, served] : to_verify) {
      const std::string direct = canon(serve::execute_job(0, req));
      if (direct != served) {
        ++verify_failures;
        std::fprintf(stderr,
                     "fasda_loadgen: VERIFY MISMATCH tenant=%s key=%s\n",
                     req.tenant.c_str(), req.idempotency.c_str());
      }
    }
  }

  const double seconds = wall.seconds();
  const int total = opt.clients * opt.jobs;
  std::printf(
      "fasda_loadgen: %d/%d jobs ok, %d failed, %d admission retries, "
      "%d reconnects, %d kills, %d verify mismatches, %.2f s, %.2f jobs/s\n",
      completed.load(), total, failed.load(), retried.load(),
      reconnects.load(), kills.load(), verify_failures, seconds,
      seconds > 0 ? completed.load() / seconds : 0.0);
  const bool pass = failed.load() == 0 && completed.load() == total &&
                    verify_failures == 0 &&
                    (!durable || kills.load() > 0);
  return pass ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return util::Cli::run(
      argc, argv, "fasda_loadgen",
      {"host", "port", "clients", "jobs", "mix", "crash-one", "replicas",
       "steps", "tenant", "retries", "verify", "kill-every", "max-kills",
       "pid-file", "idempotent", "supervise-every"},
      loadgen_main);
}
