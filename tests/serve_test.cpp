// Serve-grade test battery for fasda_serve (DESIGN.md §15).
//
// Four pillars:
//   1. End-to-end determinism: a job submitted through the daemon over a
//      real loopback socket is bitwise identical to a direct
//      serve::execute_job() run — for 1/2/4 queue workers and across two
//      daemon restarts.
//   2. Fault battery: client disconnect mid-job, malformed / oversized /
//      bad-CRC frames, queue-full admission rejection, SIGTERM drain.
//   3. Protocol codec fuzz: the wire's cases of the shared FrameCodecFuzz
//      battery (round-trip, truncation, bit flips, duplicated length
//      prefixes, random chunking), kept under their ServeWireFuzz names.
//   4. The queue/admission/JSON building blocks in isolation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <thread>

#include "fasda/serve/client.hpp"
#include "fasda/serve/job.hpp"
#include "fasda/serve/json.hpp"
#include "fasda/serve/queue.hpp"
#include "fasda/serve/server.hpp"
#include "fasda/serve/wire.hpp"
#include "frame_codec_fuzz.hpp"

using namespace fasda;
using namespace fasda::serve;

namespace {

JobRequest small_functional_job() {
  JobRequest req;
  req.engine = "functional";
  req.space = "333";
  req.per_cell = 4;
  req.steps = 4;
  req.sample = 2;
  req.replicas = 3;
  req.batch_workers = 2;
  req.return_state = true;
  return req;
}

JobRequest small_cycle_job() {
  JobRequest req;
  req.engine = "cycle";
  req.space = "333";
  req.per_cell = 4;
  req.steps = 2;
  req.sample = 1;
  req.replicas = 2;
  req.return_state = true;
  return req;
}

/// The determinism canonicalization: job ids are assigned by whichever
/// server ran the job, so they are the one field excluded (with wall time)
/// from the bitwise contract.
std::string canon(JobResult result) {
  result.job_id = 0;
  return result.to_json(/*deterministic_only=*/true);
}

ServerConfig test_config() {
  ServerConfig config;
  config.recv_timeout_seconds = 60;
  return config;
}

}  // namespace

// ====================================================================
// 1. End-to-end determinism through the daemon
// ====================================================================

// The same request, run directly and through daemons with 1, 2 and 4
// queue workers, produces byte-identical results — energies as f64 bit
// patterns and the full hex-encoded final state included.
TEST(ServeDeterminism, DaemonMatchesDirectForAnyQueueWorkerCount) {
  for (const JobRequest& req :
       {small_functional_job(), small_cycle_job()}) {
    const std::string direct = canon(execute_job(0, req));
    for (const std::size_t workers : {1u, 2u, 4u}) {
      ServerConfig config = test_config();
      config.queue_workers = workers;
      Server server(config);
      server.start();
      Client client("127.0.0.1", server.port());
      // Two copies back to back so multi-worker servers actually overlap
      // executions while we check each result.
      const auto a = client.submit(req);
      const auto b = client.submit(req);
      ASSERT_TRUE(a.accepted) << a.reason;
      ASSERT_TRUE(b.accepted) << b.reason;
      EXPECT_EQ(canon(client.wait_result(a.job_id)), direct)
          << req.engine << " workers=" << workers;
      EXPECT_EQ(canon(client.wait_result(b.job_id)), direct)
          << req.engine << " workers=" << workers;
      server.drain_and_stop();
    }
  }
}

// Restarting the daemon does not change results: two fresh server
// instances (fresh sockets, fresh queues, fresh job-id spaces) return the
// same bytes for the same request.
TEST(ServeDeterminism, ResultsSurviveDaemonRestarts) {
  const JobRequest req = small_functional_job();
  std::string first;
  for (int incarnation = 0; incarnation < 2; ++incarnation) {
    ServerConfig config = test_config();
    config.queue_workers = 2;
    Server server(config);
    server.start();
    Client client("127.0.0.1", server.port());
    const auto outcome = client.run_job(req);
    ASSERT_TRUE(outcome.reply.accepted);
    ASSERT_TRUE(outcome.result.has_value());
    if (incarnation == 0) {
      first = canon(*outcome.result);
    } else {
      EXPECT_EQ(canon(*outcome.result), first);
    }
    server.drain_and_stop();
  }
  EXPECT_EQ(first, canon(execute_job(0, req)));
}

// Streaming status: a sampled job pushes kStatus frames sourced from the
// per-job obs metrics registry, and kQuery snapshots the same registry.
TEST(ServeDeterminism, StatusStreamsFromObsRegistry) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());

  JobRequest req = small_functional_job();
  req.replicas = 1;
  req.sample = 1;  // a push per sampled block: steps 0..4 -> 5 pushes
  const auto outcome = client.run_job(req);
  ASSERT_TRUE(outcome.reply.accepted);
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_EQ(outcome.result->outcome, JobOutcome::kOk);
  EXPECT_GE(outcome.status_frames, 2);

  Client prober("127.0.0.1", server.port());
  bool rejected = true;
  const std::string status = prober.query(outcome.reply.job_id, rejected);
  ASSERT_FALSE(rejected);
  std::string error;
  const auto v = json::parse(status, &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("state")->str_or(""), "done");
  // The metrics snapshot carries the per-replica gauges the status
  // publisher wrote and the serve.samples counter.
  EXPECT_NE(status.find("serve.r0.step"), std::string::npos);
  EXPECT_NE(status.find("serve.samples"), std::string::npos);
  ASSERT_NE(v->find("result"), nullptr);
  server.drain_and_stop();
}

// ====================================================================
// 2. Fault battery
// ====================================================================

// A client that vanishes mid-job doesn't strand the job: it completes,
// is reaped into the result history, and any other tenant can query it.
TEST(ServeFaults, ClientDisconnectMidJobIsReapedAndQueryable) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();

  std::uint64_t job_id = 0;
  {
    Client client("127.0.0.1", server.port());
    JobRequest req = small_functional_job();
    req.per_cell = 8;
    req.steps = 100;
    req.sample = 10;
    req.replicas = 1;
    const auto reply = client.submit(req);
    ASSERT_TRUE(reply.accepted) << reply.reason;
    job_id = reply.job_id;
    // Client destructor closes the socket while the job (very likely)
    // still runs; the server must keep running it regardless.
  }

  Client prober("127.0.0.1", server.port());
  std::string state;
  for (int i = 0; i < 600 && state != "done"; ++i) {
    bool rejected = true;
    const std::string status = prober.query(job_id, rejected);
    ASSERT_FALSE(rejected) << status;
    std::string error;
    const auto v = json::parse(status, &error);
    ASSERT_TRUE(v.has_value()) << error;
    state = v->find("state")->str_or("");
    if (state != "done") {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(state, "done");
  EXPECT_EQ(server.jobs_completed(), 1u);
  server.drain_and_stop();
}

// Frame-level garbage gets a typed kError and a closed connection — and a
// concurrent well-behaved tenant on another connection is unaffected.
TEST(ServeFaults, DamagedFramesGetTypedErrorsWithoutCollateral) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();

  struct Case {
    const char* expect;
    std::function<std::vector<std::uint8_t>()> make;
  };
  const std::vector<Case> cases = {
      {"bad-crc",
       [] {
         auto buf = encode_frame(MsgType::kPing, "{}");
         buf[buf.size() - 1] ^= 0x01;  // corrupt the payload
         return buf;
       }},
      {"bad-length",
       [] {
         // Header claiming a frame far over kMaxFrameBytes.
         std::vector<std::uint8_t> buf(8, 0);
         buf[3] = 0x7f;  // length = 0x7f000000
         return buf;
       }},
      {"bad-type",
       [] {
         // CRC-valid frame with an unassigned type byte.
         auto buf = encode_frame(MsgType::kPing, "{}");
         const std::uint8_t bogus = 200;
         util::Crc32 crc;
         crc.add_bytes(&bogus, 1);
         const char* payload = "{}";
         crc.add_bytes(payload, 2);
         buf[8] = bogus;
         const std::uint32_t c = crc.value();
         buf[4] = static_cast<std::uint8_t>(c);
         buf[5] = static_cast<std::uint8_t>(c >> 8);
         buf[6] = static_cast<std::uint8_t>(c >> 16);
         buf[7] = static_cast<std::uint8_t>(c >> 24);
         return buf;
       }},
  };

  for (const Case& c : cases) {
    Conn attacker = dial("127.0.0.1", server.port());
    attacker.set_recv_timeout(30);
    const auto buf = c.make();
    attacker.send_raw(buf.data(), buf.size());
    WireFrame frame;
    ASSERT_EQ(attacker.recv(frame), DecodeStatus::kFrame) << c.expect;
    EXPECT_EQ(frame.type, MsgType::kError);
    EXPECT_NE(frame.payload.find(c.expect), std::string::npos)
        << frame.payload;
    // The server closes after the kError; the next read hits EOF.
    EXPECT_THROW(attacker.recv(frame), WireError);
  }

  // Other tenants never noticed.
  Client bystander("127.0.0.1", server.port());
  JobRequest req = small_functional_job();
  req.replicas = 1;
  const auto outcome = bystander.run_job(req);
  ASSERT_TRUE(outcome.reply.accepted);
  EXPECT_EQ(outcome.result->outcome, JobOutcome::kOk);
  server.drain_and_stop();
}

// Payload-level failures (valid frame, bad request) keep the connection
// open: the tenant can fix the request and resubmit on the same socket.
TEST(ServeFaults, BadRequestKeepsConnectionOpen) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());

  client.conn().send(MsgType::kSubmit, "this is not json");
  WireFrame frame;
  ASSERT_EQ(client.conn().recv(frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, MsgType::kRejected);
  EXPECT_NE(frame.payload.find("bad-request"), std::string::npos);

  JobRequest bad = small_functional_job();
  bad.space = "222";  // fails validate(): CellGrid needs >= 3 per axis
  const auto rejected = client.submit(bad);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, "bad-request");
  EXPECT_NE(rejected.detail.find("space"), std::string::npos);

  JobRequest good = small_functional_job();
  good.replicas = 1;
  const auto outcome = client.run_job(good);
  ASSERT_TRUE(outcome.reply.accepted);
  EXPECT_EQ(outcome.result->outcome, JobOutcome::kOk);
  server.drain_and_stop();
}

// Admission control: a full queue and an exhausted tenant quota reject
// with their typed reasons while other tenants still get in.
TEST(ServeFaults, QueueFullAndTenantQuotaRejectWithReasons) {
  ServerConfig config = test_config();
  config.queue_workers = 0;  // admission-only: nothing ever starts
  config.queue.capacity = 2;
  config.queue.tenant_quota = 1;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());

  JobRequest req = small_functional_job();
  req.tenant = "alpha";
  ASSERT_TRUE(client.submit(req).accepted);

  // Same tenant again: over quota.
  const auto quota = client.submit(req);
  EXPECT_FALSE(quota.accepted);
  EXPECT_EQ(quota.reason, "tenant-quota");

  // Another tenant fits (capacity 2).
  req.tenant = "beta";
  ASSERT_TRUE(client.submit(req).accepted);

  // Queue full beats quota for a third tenant.
  req.tenant = "gamma";
  const auto full = client.submit(req);
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.reason, "queue-full");

  EXPECT_EQ(server.jobs_submitted(), 2u);
  EXPECT_GE(server.jobs_rejected(), 2u);
}

// SIGTERM starts a graceful drain: admitted jobs finish, new submits are
// refused with "draining", and drain_and_stop returns with nothing lost.
TEST(ServeFaults, SigtermDrainsGracefully) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());

  JobRequest req = small_functional_job();
  req.replicas = 1;
  const auto a = client.submit(req);
  const auto b = client.submit(req);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);

  Server::install_signal_drain(&server);
  std::raise(SIGTERM);
  server.wait_for_drain_signal();
  Server::install_signal_drain(nullptr);
  EXPECT_TRUE(server.draining());

  const auto refused = client.submit(req);
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.reason, "draining");

  // Both admitted jobs still complete, correctly.
  EXPECT_EQ(client.wait_result(a.job_id).outcome, JobOutcome::kOk);
  EXPECT_EQ(client.wait_result(b.job_id).outcome, JobOutcome::kOk);
  server.drain_and_stop();
  EXPECT_EQ(server.jobs_completed(), 2u);
}

// A long-running daemon must not accumulate dead connections: each closed
// client's fd and thread are reaped, and the acceptor keeps accepting.
TEST(ServeFaults, ClosedConnectionsAreReaped) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();

  for (int round = 0; round < 8; ++round) {
    Client client("127.0.0.1", server.port());
    std::string error;
    ASSERT_TRUE(json::parse(client.ping(), &error).has_value()) << error;
    // Client destructor closes the socket; the connection thread notices,
    // removes itself from the registry and parks its handle for joining.
  }
  std::size_t live = 1;
  for (int i = 0; i < 500 && live != 0; ++i) {
    live = server.connections();
    if (live != 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(live, 0u);

  // And the daemon still serves fresh connections afterwards.
  Client again("127.0.0.1", server.port());
  JobRequest req = small_functional_job();
  req.replicas = 1;
  const auto outcome = again.run_job(req);
  ASSERT_TRUE(outcome.reply.accepted);
  EXPECT_EQ(outcome.result->outcome, JobOutcome::kOk);
  server.drain_and_stop();
}

// A peer that stops reading cannot hold a sending thread forever: with a
// send timeout armed, the blocking send surfaces as WireError once the
// TCP buffers fill (this is what frees a queue worker from a tenant that
// submits a job and then never drains its kStatus/kResult pushes).
TEST(ServeFaults, SendTimesOutWhenPeerStopsReading) {
  auto [listen_fd, port] = listen_on("127.0.0.1", 0);
  Conn sender = dial("127.0.0.1", port);
  const int peer_fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(peer_fd, 0);
  Conn peer(peer_fd);  // never reads
  int small = 4096;
  ::setsockopt(sender.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  sender.set_send_timeout(1);
  const std::string payload(1u << 20, 'x');
  EXPECT_THROW(
      {
        // Far more than any kernel default buffering; must throw, not hang
        // (the ctest TIMEOUT backstop would catch a regression to forever).
        for (int i = 0; i < 64; ++i) sender.send(MsgType::kStatus, payload);
      },
      WireError);
  ::close(listen_fd);
}

// kPing reports live server stats.
TEST(ServeFaults, PingReportsServerStats) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());
  JobRequest req = small_functional_job();
  req.replicas = 1;
  const auto outcome = client.run_job(req);
  ASSERT_TRUE(outcome.reply.accepted);

  std::string error;
  const auto v = json::parse(client.ping(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("submitted")->int_or(-1), 1);
  EXPECT_EQ(v->find("completed")->int_or(-1), 1);
  EXPECT_EQ(v->find("draining")->bool_or(true), false);
  server.drain_and_stop();
}

// ====================================================================
// 2b. Wall-clock observability plane (kStats, DESIGN.md §17)
// ====================================================================

// After a mixed two-tenant workload the kStats surface serves both bodies:
// the JSON form parses and nests the health summary plus the wall-metric
// series, and the Prometheus form carries native histograms (cumulative
// le buckets, exact _sum/_count) and lazily-registered per-tenant
// counters.
TEST(ServeObs, StatsServesJsonAndPrometheusAfterMixedWorkload) {
  ServerConfig config = test_config();
  config.queue_workers = 2;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());

  JobRequest req = small_functional_job();
  req.replicas = 1;
  std::vector<std::uint64_t> ids;
  for (const char* tenant : {"acme", "acme", "globex"}) {
    req.tenant = tenant;
    const auto reply = client.submit(req);
    ASSERT_TRUE(reply.accepted) << reply.reason;
    ids.push_back(reply.job_id);
  }
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(client.wait_result(id).outcome, JobOutcome::kOk);
  }

  std::string error;
  const auto v = json::parse(client.stats("json"), &error);
  ASSERT_TRUE(v.has_value()) << error;
  const json::Value* health = v->find("server");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->find("submitted")->int_or(-1), 3);
  EXPECT_EQ(health->find("completed")->int_or(-1), 3);
  const json::Value* wall = v->find("wall");
  ASSERT_NE(wall, nullptr);
  ASSERT_NE(wall->find("metrics"), nullptr);
  EXPECT_TRUE(wall->find("metrics")->is_array());
  EXPECT_GE(v->find("trace_events")->int_or(0), 3 * 5);

  const std::string prom = client.stats("prometheus");
  EXPECT_NE(prom.find("# TYPE fasda_serve_jobs_submitted counter"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_jobs_submitted 3\n"), std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_jobs_completed 3\n"), std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_tenant_acme_submitted 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_tenant_globex_submitted 1\n"),
            std::string::npos);
  // The latency histograms really observed the three jobs: native
  // exposition with cumulative buckets and an exact count.
  EXPECT_NE(prom.find("fasda_serve_latency_submit_to_result_us_bucket{le="),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_latency_submit_to_result_us_count 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_latency_queue_wait_us_count 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_serve_latency_execute_us_sum"),
            std::string::npos);
  server.drain_and_stop();
}

// A bad format is a typed rejection (connection stays usable), and the
// stats surface keeps answering while the daemon drains — exactly when an
// operator most wants a scrape to work.
TEST(ServeObs, StatsRejectsBadFormatAndAnswersWhileDraining) {
  ServerConfig config = test_config();
  config.queue_workers = 1;
  Server server(config);
  server.start();
  Client client("127.0.0.1", server.port());

  EXPECT_THROW(client.stats("xml"), WireError);
  // Same connection still serves a good request after the rejection.
  EXPECT_NE(client.stats("prometheus").find("fasda_serve_uptime_seconds"),
            std::string::npos);

  JobRequest req = small_functional_job();
  req.replicas = 1;
  const auto reply = client.submit(req);
  ASSERT_TRUE(reply.accepted);
  EXPECT_EQ(client.wait_result(reply.job_id).outcome, JobOutcome::kOk);

  server.begin_drain();
  std::string error;
  const auto v = json::parse(client.stats("json"), &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("server")->find("draining")->bool_or(false), true);
  EXPECT_EQ(v->find("server")->find("completed")->int_or(-1), 1);
  server.drain_and_stop();
}

// The guard the two-plane contract hangs on: switching the wall-clock
// plane fully on (metrics + tracing) or fully off cannot change a single
// result byte. Both runs must match the direct execute_job() bytes.
TEST(ServeObs, DeterminismIsUnaffectedByObservability) {
  const JobRequest req = small_cycle_job();
  const std::string direct = canon(execute_job(0, req));
  for (const bool wall_obs : {false, true}) {
    ServerConfig config = test_config();
    config.queue_workers = 2;
    config.wall_obs = wall_obs;
    Server server(config);
    server.start();
    Client client("127.0.0.1", server.port());
    const auto a = client.submit(req);
    const auto b = client.submit(req);
    ASSERT_TRUE(a.accepted) << a.reason;
    ASSERT_TRUE(b.accepted) << b.reason;
    EXPECT_EQ(canon(client.wait_result(a.job_id)), direct)
        << "wall_obs=" << wall_obs;
    EXPECT_EQ(canon(client.wait_result(b.job_id)), direct)
        << "wall_obs=" << wall_obs;
    // With the plane off, no spans may be recorded at all.
    if (!wall_obs) {
      EXPECT_EQ(server.wall_trace().size(), 0u);
    }
    server.drain_and_stop();
  }
}

// ====================================================================
// 3. Protocol codec fuzz: the wire's cases of the FrameCodecFuzz battery
//    (tests/frame_codec_fuzz.hpp), under their historical names
// ====================================================================

namespace ff = fasda::frame_fuzz;

TEST(ServeWireFuzz, RandomFramesRoundTripThroughRandomChunking) {
  ff::random_frames_round_trip<WireProtocol>();
}
TEST(ServeWireFuzz, EveryTruncationAsksForMore) {
  ff::every_truncation<WireProtocol>();
}
TEST(ServeWireFuzz, EverySingleBitFlipIsRejected) {
  ff::every_single_bit_flip<WireProtocol>();
}
TEST(ServeWireFuzz, OversizedAndZeroLengthsAreRejected) {
  ff::zero_and_oversized_lengths<WireProtocol>();
}
TEST(ServeWireFuzz, DuplicatedLengthPrefixDesyncsToTypedError) {
  ff::duplicated_length_prefix<WireProtocol>();
}
TEST(ServeWireFuzz, UnknownTypeWithValidCrcIsBadType) {
  ff::unknown_type_with_valid_crc<WireProtocol>();
}
TEST(ServeWireFuzz, EncodeEnforcesTheFrameCap) {
  ff::encode_enforces_the_cap<WireProtocol>();
}
TEST(ServeWireFuzz, ProtocolErrorsPoisonTheStream) {
  ff::errors_poison_the_stream<WireProtocol>();
}

// ====================================================================
// 4. Building blocks: queue, JSON, job codecs
// ====================================================================

TEST(ServeQueue, PriorityOrderWithDeterministicArrivalTieBreak) {
  JobQueue queue(QueueConfig{});
  std::vector<int> ran;
  const auto job = [&ran](int id) { return [&ran, id] { ran.push_back(id); }; };
  ASSERT_EQ(queue.submit("t", 0, job(1)).status, Admit::kAdmitted);
  ASSERT_EQ(queue.submit("t", 5, job(2)).status, Admit::kAdmitted);
  ASSERT_EQ(queue.submit("t", 0, job(3)).status, Admit::kAdmitted);
  ASSERT_EQ(queue.submit("t", 5, job(4)).status, Admit::kAdmitted);
  while (queue.try_run_one()) {
  }
  // Priority desc, then arrival seq asc within a priority.
  EXPECT_EQ(ran, (std::vector<int>{2, 4, 1, 3}));
}

TEST(ServeQueue, CapacityAndQuotaRejectTyped) {
  QueueConfig config;
  config.capacity = 2;
  config.tenant_quota = 1;
  JobQueue queue(config);
  EXPECT_EQ(queue.submit("a", 0, [] {}).status, Admit::kAdmitted);
  EXPECT_EQ(queue.submit("a", 0, [] {}).status, Admit::kTenantQuota);
  EXPECT_EQ(queue.submit("b", 0, [] {}).status, Admit::kAdmitted);
  EXPECT_EQ(queue.submit("c", 0, [] {}).status, Admit::kQueueFull);
  EXPECT_EQ(queue.queued(), 2u);
  EXPECT_EQ(queue.tenant_load("a"), 1u);
}

TEST(ServeQueue, QuotaReleasesWhenWorkFinishes) {
  QueueConfig config;
  config.tenant_quota = 1;
  JobQueue queue(config);
  ASSERT_EQ(queue.submit("a", 0, [] {}).status, Admit::kAdmitted);
  ASSERT_TRUE(queue.try_run_one());
  EXPECT_EQ(queue.tenant_load("a"), 0u);
  EXPECT_EQ(queue.submit("a", 0, [] {}).status, Admit::kAdmitted);
}

TEST(ServeQueue, DrainRefusesNewWorkButFinishesAdmitted) {
  JobQueue queue(QueueConfig{});
  std::atomic<int> ran{0};
  ASSERT_EQ(queue.submit("t", 0, [&ran] { ++ran; }).status, Admit::kAdmitted);
  queue.begin_drain();
  EXPECT_EQ(queue.submit("t", 0, [] {}).status, Admit::kDraining);
  queue.start_workers(2);
  queue.wait_idle();
  EXPECT_EQ(ran.load(), 1);
  queue.stop();
  EXPECT_EQ(queue.submit("t", 0, [] {}).status, Admit::kStopped);
}

TEST(ServeQueue, WorkersDrainABacklogExactlyOnce) {
  JobQueue queue(QueueConfig{});
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(queue.submit("t", i % 3, [&ran] { ++ran; }).status,
              Admit::kAdmitted);
  }
  queue.start_workers(4);
  queue.wait_idle();
  EXPECT_EQ(ran.load(), 64);
  queue.stop();
}

// stop() must be safe to call concurrently and repeatedly (Server::stop
// then ~JobQueue is the everyday sequence): only one caller joins any
// given worker thread.
TEST(ServeQueue, ConcurrentAndRepeatedStopIsSafe) {
  JobQueue queue(QueueConfig{});
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(queue.submit("t", 0, [&ran] { ++ran; }).status,
              Admit::kAdmitted);
  }
  queue.start_workers(2);
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&queue] { queue.stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  queue.stop();  // sequential re-entry (the destructor will be one more)
  EXPECT_EQ(queue.submit("t", 0, [] {}).status, Admit::kStopped);
  EXPECT_LE(ran.load(), 8);
}

TEST(ServeJson, ParsesAndNavigatesObjects) {
  std::string error;
  const auto v = json::parse(
      "{\"a\": 1, \"b\": [true, null, \"x\\u0041\"], \"c\": {\"d\": 2.5}}",
      &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->find("a")->int_or(0), 1);
  EXPECT_TRUE(v->find("a")->integral);
  EXPECT_EQ(v->find("b")->items.size(), 3u);
  EXPECT_EQ(v->find("b")->items[2].string, "xA");
  EXPECT_DOUBLE_EQ(v->find("c")->find("d")->num_or(0), 2.5);
}

TEST(ServeJson, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", "{\"a\":1}x",
        "nan", "[1, 2"}) {
    std::string error;
    EXPECT_FALSE(json::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ServeJson, RejectsPathologicalNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_FALSE(json::parse(deep, &error).has_value());
}

TEST(ServeJob, RequestRoundTripsThroughJson) {
  JobRequest req = small_cycle_job();
  req.tenant = "team-x";
  req.priority = 7;
  req.faults = "crash=1-1000";
  req.cells = "333";
  req.supervise = true;
  std::string error;
  const auto v = json::parse(req.to_json(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  const auto back = JobRequest::from_json(*v, error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json(), req.to_json());
}

TEST(ServeJob, ResultRoundTripsThroughJson) {
  const JobRequest req = small_functional_job();
  const JobResult result = execute_job(17, req);
  std::string error;
  const auto v = json::parse(result.to_json(), &error);
  ASSERT_TRUE(v.has_value()) << error;
  const auto back = JobResult::from_json(*v, error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->to_json(true), result.to_json(true));
  EXPECT_EQ(back->job_id, 17u);
  EXPECT_EQ(back->outcome, JobOutcome::kOk);
}

TEST(ServeJob, StateHexCodecIsExact) {
  const JobRequest req = small_functional_job();
  const md::SystemState state = make_replica_state(req, 1);
  const std::string hex = encode_state_hex(state);
  const auto back = decode_state_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(encode_state_hex(*back), hex);
  EXPECT_EQ(state_crc32(*back), state_crc32(state));
  // Damaged hex never decodes.
  EXPECT_FALSE(decode_state_hex(hex.substr(1)).has_value());
  EXPECT_FALSE(decode_state_hex(hex + "00").has_value());
  EXPECT_FALSE(decode_state_hex("zz").has_value());
}

TEST(ServeJob, ValidateCatchesBadSpecs) {
  JobRequest req = small_functional_job();
  req.engine = "warp-drive";
  EXPECT_NE(req.validate().find("unknown engine"), std::string::npos);
  req = small_functional_job();
  req.space = "222";
  EXPECT_NE(req.validate().find("space"), std::string::npos);
  req = small_functional_job();
  req.faults = "crash=1-1000";  // faults demand the cycle engine
  EXPECT_FALSE(req.validate().empty());
  req = small_functional_job();
  req.tenant = "";
  EXPECT_FALSE(req.validate().empty());
}

// The admission resource caps: a hostile (or fat-fingered) submit cannot
// commission an allocation that would OOM the shared daemon — each budget
// overrun is a typed bad-request at validate() time.
TEST(ServeJob, ValidateCapsResourceBudgets) {
  JobRequest req = small_functional_job();
  req.return_state = false;
  req.space = "2000x3x3";
  EXPECT_NE(req.validate().find("per axis"), std::string::npos);

  req.space = "1024x1024x3";  // 3.1M cells > kMaxSpaceCells
  EXPECT_NE(req.validate().find("cells exceeds"), std::string::npos);

  req.space = "512x512x4";  // exactly kMaxSpaceCells: fine on its own
  req.per_cell = 8;         // ...but 2^23 particles per replica is not
  EXPECT_NE(req.validate().find("per replica"), std::string::npos);

  req = small_functional_job();
  req.return_state = false;
  req.per_cell = 512;    // 13824 particles per 333 replica
  req.replicas = 65536;  // ~906M particles total
  EXPECT_NE(req.validate().find("space*per_cell*replicas"),
            std::string::npos);

  req = small_functional_job();  // 108 particles per replica
  req.replicas = 65536;          // ~7M total: under the job cap...
  ASSERT_TRUE(req.return_state);  // ...but far over one result frame
  EXPECT_NE(req.validate().find("return_state"), std::string::npos);
  req.return_state = false;
  EXPECT_EQ(req.validate(), "");

  // The shipped workloads stay comfortably inside every budget.
  EXPECT_EQ(small_functional_job().validate(), "");
  EXPECT_EQ(small_cycle_job().validate(), "");
}

TEST(ServeJob, OutcomeTaxonomyMatchesExitCodes) {
  EXPECT_EQ(job_outcome_exit_code(JobOutcome::kOk), 0);
  EXPECT_EQ(job_outcome_exit_code(JobOutcome::kIncomplete), 1);
  EXPECT_EQ(job_outcome_exit_code(JobOutcome::kDegradedLink), 2);
  EXPECT_EQ(job_outcome_exit_code(JobOutcome::kNodeFailure), 3);
  EXPECT_EQ(job_outcome_exit_code(JobOutcome::kDegraded), 4);
  for (const JobOutcome o :
       {JobOutcome::kOk, JobOutcome::kDegraded, JobOutcome::kDegradedLink,
        JobOutcome::kNodeFailure, JobOutcome::kIncomplete}) {
    EXPECT_EQ(job_outcome_from_name(job_outcome_name(o)), o);
  }
  EXPECT_FALSE(job_outcome_from_name("sideways").has_value());
}
