// fasda::obs (DESIGN.md §12): metrics registry, cycle-stamped trace bus,
// and the surfaces that publish into them.
//
// The headline property mirrors the layer's acceptance criterion: a
// cluster run with every fault class armed produces a metrics snapshot
// (JSON and Prometheus) and a Chrome trace BITWISE identical for 1, 2 and
// 4 scheduler workers — telemetry is derived from simulated state only,
// never from thread interleaving. The exported trace is also structurally
// valid: every span balanced, timestamps monotone per track (the same
// checks tools/validate_trace.py runs in CI).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fasda/core/simulation.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/obs/obs.hpp"
#include "fasda/obs/server_stats.hpp"
#include "fasda/serve/json.hpp"
#include "fasda/util/log.hpp"

namespace fasda {
namespace {

// ----------------------------------------------------------- registry unit

TEST(ObsRegistry, RegistrationIsIdempotentPerKind) {
  obs::Registry r;
  const obs::Handle c = r.counter("a.metric");
  EXPECT_EQ(r.counter("a.metric"), c);
  const obs::Handle g = r.gauge("a.gauge");
  EXPECT_EQ(r.gauge("a.gauge"), g);
  const obs::Handle h = r.histogram("a.hist");
  EXPECT_EQ(r.histogram("a.hist"), h);
  // Same name under a different kind is a programming error, not a silent
  // aliasing of someone else's slot.
  EXPECT_THROW(r.gauge("a.metric"), std::invalid_argument);
  EXPECT_THROW(r.counter("a.gauge"), std::invalid_argument);
  EXPECT_THROW(r.counter("a.hist"), std::invalid_argument);
}

TEST(ObsRegistry, CountersShardAndMerge) {
  obs::Registry r;
  r.ensure_nodes(4);
  const obs::Handle h = r.counter("pkts");
  r.add(0, h, 3);
  r.add(2, h, 5);
  r.add(obs::kClusterNode, h, 7);
  const obs::MetricsSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.counter_total("pkts"), 15u);
  EXPECT_EQ(snap.counter("pkts", 0), 3u);
  EXPECT_EQ(snap.counter("pkts", 1), 0u);
  EXPECT_EQ(snap.counter("pkts", 2), 5u);
  EXPECT_EQ(snap.counter_total("absent"), 0u);
}

TEST(ObsRegistry, HistogramBucketsByBitWidth) {
  obs::Registry r;
  r.ensure_nodes(2);
  const obs::Handle h = r.histogram("lat");
  r.observe(0, h, 0);   // bucket 0
  r.observe(0, h, 1);   // bucket 1
  r.observe(1, h, 2);   // bucket 2
  r.observe(1, h, 3);   // bucket 2
  r.observe(1, h, 1000);  // bit_width(1000) = 10
  const obs::MetricsSnapshot snap = r.snapshot();
  const auto* s = snap.find("lat");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets.size(), static_cast<std::size_t>(obs::kHistogramBuckets));
  EXPECT_EQ(s->buckets[0], 1u);
  EXPECT_EQ(s->buckets[1], 1u);
  EXPECT_EQ(s->buckets[2], 2u);
  EXPECT_EQ(s->buckets[10], 1u);
  EXPECT_EQ(s->bucket_count(), 5u);
}

TEST(ObsSnapshot, MergeAddsCountersAndBucketsGaugesOverwrite) {
  obs::Registry a;
  a.ensure_nodes(2);
  a.add(0, a.counter("c"), 2);
  a.set(obs::kClusterNode, a.gauge("g"), 1.5);
  a.observe(0, a.histogram("h"), 4);  // bucket 3

  obs::Registry b;
  b.ensure_nodes(2);
  b.add(1, b.counter("c"), 5);
  b.set(obs::kClusterNode, b.gauge("g"), 2.5);
  b.observe(1, b.histogram("h"), 4);
  b.add(0, b.counter("only_b"), 1);

  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counter_total("c"), 7u);
  EXPECT_EQ(merged.counter("c", 0), 2u);
  EXPECT_EQ(merged.counter("c", 1), 5u);
  EXPECT_EQ(merged.counter_total("only_b"), 1u);
  EXPECT_DOUBLE_EQ(merged.gauge_or("g"), 2.5);
  const auto* h = merged.find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->buckets[3], 2u);
}

TEST(ObsSnapshot, ExportsBothFormats) {
  obs::Registry r;
  r.ensure_nodes(1);
  r.add(0, r.counter("net.pkts"), 9);
  r.set(obs::kClusterNode, r.gauge("sim.rate"), 0.125);
  const obs::MetricsSnapshot snap = r.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"net.pkts\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":9"), std::string::npos);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("fasda_net_pkts"), std::string::npos);
  EXPECT_NE(prom.find("fasda_sim_rate 0.125"), std::string::npos);
}

TEST(ObsSnapshot, PrometheusEmitsHelpAndType) {
  obs::Registry r;
  r.ensure_nodes(1);
  r.add(0, r.counter("net.pkts", "packets on the wire"), 1);
  r.set(obs::kClusterNode, r.gauge("sim.rate"), 1.0);
  const std::string prom = r.snapshot().to_prometheus();
  // HELP precedes TYPE per family; explicit help text is used verbatim,
  // and a help-less metric documents at least its dotted origin name.
  EXPECT_NE(prom.find("# HELP fasda_net_pkts packets on the wire\n"
                      "# TYPE fasda_net_pkts counter\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP fasda_sim_rate sim.rate\n"
                      "# TYPE fasda_sim_rate gauge\n"),
            std::string::npos);
  // First non-empty help wins; re-registration cannot blank it.
  r.counter("net.pkts");
  EXPECT_NE(r.snapshot().to_prometheus().find("packets on the wire"),
            std::string::npos);
}

TEST(ObsSnapshot, PrometheusHistogramNativeExposition) {
  obs::Registry r;
  r.ensure_nodes(1);
  const obs::Handle h = r.histogram("lat.us", "request latency");
  r.observe(0, h, 0);     // bucket 0 (le 0)
  r.observe(0, h, 1);     // bucket 1 (le 1)
  r.observe(0, h, 3);     // bucket 2 (le 3)
  r.observe(0, h, 1000);  // bucket 10 (le 1023)
  const std::string prom = r.snapshot().to_prometheus();
  EXPECT_NE(prom.find("# TYPE fasda_lat_us histogram"), std::string::npos);
  // Cumulative le buckets: upper bound of bit-width bucket k is 2^k - 1.
  EXPECT_NE(prom.find("fasda_lat_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_lat_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_lat_us_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_lat_us_bucket{le=\"1023\"} 4\n"),
            std::string::npos);
  EXPECT_NE(prom.find("fasda_lat_us_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  // Native _sum/_count: the exact observed total, not a bucket estimate.
  EXPECT_NE(prom.find("fasda_lat_us_sum 1004\n"), std::string::npos);
  EXPECT_NE(prom.find("fasda_lat_us_count 4\n"), std::string::npos);
}

TEST(ObsSnapshot, HistogramSumMerges) {
  obs::Registry a;
  a.ensure_nodes(2);
  const obs::Handle ha = a.histogram("h");
  a.observe(0, ha, 100);
  a.observe(1, ha, 23);

  // merge() adds sums (u64 wraparound, order-independent).
  obs::Registry b;
  b.ensure_nodes(2);
  b.observe(0, b.histogram("h"), 7);
  obs::MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  ASSERT_NE(merged.find("h"), nullptr);
  EXPECT_EQ(merged.find("h")->sum, 130u);
}

// ------------------------------------------- wall-clock serve plane (§17)

TEST(ServerStats, TenantCountersAndDisableGate) {
  obs::ServerStats stats;
  stats.add(stats.jobs_submitted, 2);
  stats.observe(stats.queue_wait_us, 1000);
  stats.tenant_add("acme", "submitted");
  stats.tenant_add("acme", "submitted");
  stats.tenant_add("acme", "bytes_in", 512);
  obs::MetricsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.counter_total("serve.jobs.submitted"), 2u);
  EXPECT_EQ(snap.counter_total("serve.tenant.acme.submitted"), 2u);
  EXPECT_EQ(snap.counter_total("serve.tenant.acme.bytes_in"), 512u);
  ASSERT_NE(snap.find("serve.latency.queue_wait_us"), nullptr);
  EXPECT_EQ(snap.find("serve.latency.queue_wait_us")->sum, 1000u);

  // Disabled stats drop emissions before the lock — the metrics-off
  // baseline the serve bench compares against.
  stats.set_enabled(false);
  stats.add(stats.jobs_submitted, 5);
  stats.tenant_add("acme", "submitted");
  snap = stats.snapshot();
  EXPECT_EQ(snap.counter_total("serve.jobs.submitted"), 2u);
  EXPECT_EQ(snap.counter_total("serve.tenant.acme.submitted"), 2u);
}

// Any 1..64-character tenant is legal on the wire, and it becomes part of
// a metric name: the stats JSON must stay parseable whatever it holds.
TEST(ServerStats, TenantNeedingEscapesKeepsStatsJsonParseable) {
  obs::ServerStats stats;
  const std::string tenant = "a\"b\\c\x01";
  const std::string name = "serve.tenant." + tenant + ".submitted";
  stats.tenant_add(tenant, "submitted");
  const obs::MetricsSnapshot snap = stats.snapshot();
  EXPECT_EQ(snap.counter_total(name), 1u);
  std::string error;
  const auto doc = serve::json::parse(snap.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const serve::json::Value* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  long long total = -1;
  for (const serve::json::Value& m : metrics->items) {
    if (m.find("name")->str_or("") == name) total = m.find("total")->int_or(-1);
  }
  EXPECT_EQ(total, 1);
}

TEST(ServeTrace, TenantControlBytesAreEscapedNotDropped) {
  obs::ServeTrace trace;
  const std::string tenant = "t\"\\\n\x01";
  trace.begin(7, 1, "job", tenant);
  trace.end(7, 1, "job");
  std::string error;
  const auto doc = serve::json::parse(trace.to_chrome_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  std::size_t tagged = 0;
  for (const serve::json::Value& e : doc->find("traceEvents")->items) {
    const serve::json::Value* args = e.find("args");
    if (args == nullptr || args->find("tenant") == nullptr) continue;
    EXPECT_EQ(args->find("tenant")->str_or(""), tenant);
    ++tagged;
  }
  EXPECT_EQ(tagged, 1u);
}

TEST(ServeTrace, ExportClosesOpenSpansAndKeepsSpanIds) {
  obs::ServeTrace trace;
  trace.begin(7, 12345, "job", "acme");
  trace.begin(7, 12345, "queued");
  trace.end(7, 12345, "queued");
  trace.begin(7, 12345, "execute");  // left open, as after a kill -9
  trace.instant(7, 12345, "checkpoint", 40, "step");
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"span\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"step\":40"), std::string::npos);
  // Export-time closure: B job + B execute are still open, so the export
  // appends synthetic E events — every B has a matching E.
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos) {
    ++begins;
    ++pos;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos) {
    ++ends;
    ++pos;
  }
  EXPECT_EQ(begins, 3u);
  EXPECT_EQ(ends, begins);
  // The export is a snapshot: the recorder still holds the open spans.
  EXPECT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ServeTrace, WallMicrosIsMonotone) {
  const std::uint64_t a = obs::wall_micros();
  const std::uint64_t b = obs::wall_micros();
  EXPECT_GE(b, a);
  // Sanity: rebased to the realtime epoch (after 2020, before 2100).
  EXPECT_GT(a, 1577836800ull * 1000000ull);
  EXPECT_LT(a, 4102444800ull * 1000000ull);
}

// ---------------------------------------------------------- trace bus unit

TEST(ObsTrace, SpansBalanceAndSortCanonically) {
  obs::TraceBus bus;
  bus.ensure_nodes(2);
  bus.begin(0, 0, obs::Comp::kFsm, "force", 10);
  bus.instant(1, 1, obs::Comp::kSync, "last-pos", 11);
  bus.end(0, 0, obs::Comp::kFsm, 20);
  const auto events = bus.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].ts, 10u);
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[2].phase, 'E');
  // Still-open spans are closed at the high-water mark by export.
  bus.begin(0, 0, obs::Comp::kFsm, "mu", 25);
  const auto closed = bus.events();
  ASSERT_EQ(closed.size(), 5u);
  EXPECT_EQ(closed.back().phase, 'E');
  EXPECT_EQ(closed.back().ts, 25u);
}

TEST(ObsTrace, EpochRebasingKeepsTimestampsMonotone) {
  obs::TraceBus bus;
  bus.ensure_nodes(1);
  bus.begin(0, 0, obs::Comp::kFsm, "force", 100);
  // The attempt crashes: the span never sees its 'E'. A new epoch closes it
  // and re-bases, so the next attempt's cycle 0 stamps after everything.
  bus.begin_epoch();
  bus.instant(0, 0, obs::Comp::kFsm, "restarted", 0);
  const auto events = bus.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');   // synthesized close at high water
  EXPECT_EQ(events[2].phase, 'i');
  EXPECT_GT(events[2].ts, events[1].ts);
  EXPECT_EQ(events[2].cycle, 0u);  // the raw stamp survives re-basing
}

TEST(ObsTrace, ChromeJsonCarriesTrackMetadata) {
  obs::TraceBus bus;
  bus.ensure_nodes(1);
  bus.instant(obs::kClusterShard, obs::kClusterPid, obs::Comp::kScheduler,
              "tick", 1);
  bus.instant(0, 0, obs::Comp::kFsm, "phase", 2, "arg", 42);
  const std::string json = bus.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"node0\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\":42"), std::string::npos);
}

// --------------------------------------------------------- log sink capture

TEST(ObsLog, SinkCapturesFormattedLines) {
  std::vector<std::pair<util::LogLevel, std::string>> lines;
  util::set_log_sink([&](util::LogLevel level, std::string_view line) {
    lines.emplace_back(level, std::string(line));
  });
  const util::LogLevel before = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::log(util::LogLevel::kDebug, "dropped %d", 1);
  util::log(util::LogLevel::kInfo, "kept %d of %d", 2, 3);
  util::set_log_level(before);
  util::set_log_sink({});  // restore stderr
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, util::LogLevel::kInfo);
  EXPECT_EQ(lines[0].second, "kept 2 of 3");
}

TEST(ObsLog, JsonSinkEscapesEveryField) {
  const std::string path = ::testing::TempDir() + "obs_json_sink.jsonl";
  std::remove(path.c_str());
  const std::string component = "comp\"\\\n\x01";
  const std::string tenant = "ten\"\\\n\x01";
  const std::string msg = "msg\"\\\n\x01";
  util::set_log_sink([](util::LogLevel, std::string_view) {});
  ASSERT_TRUE(util::open_json_log(path));
  util::slog(util::LogLevel::kError, util::LogFields(component, 42, tenant),
             "%s", msg.c_str());
  util::log(util::LogLevel::kError, "%s", msg.c_str());
  util::close_json_log();
  util::set_log_sink({});

  std::ifstream in(path);
  std::vector<serve::json::Value> lines;
  for (std::string line; std::getline(in, line);) {
    std::string error;
    auto v = serve::json::parse(line, &error);
    ASSERT_TRUE(v.has_value()) << error << " in " << line;
    lines.push_back(std::move(*v));
  }
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].find("level")->str_or(""), "error");
  EXPECT_EQ(lines[0].find("component")->str_or(""), component);
  EXPECT_EQ(lines[0].find("job")->int_or(0), 42);
  EXPECT_EQ(lines[0].find("tenant")->str_or(""), tenant);
  EXPECT_EQ(lines[0].find("msg")->str_or(""), msg);
  EXPECT_EQ(lines[1].find("component"), nullptr);
  EXPECT_EQ(lines[1].find("msg")->str_or(""), msg);
}

TEST(ObsLog, ParseLogLevelRoundTrips) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("info"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("warn"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), util::LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), util::LogLevel::kOff);
  EXPECT_THROW(util::parse_log_level("verbose"), std::invalid_argument);
  EXPECT_STREQ(util::log_level_name(util::LogLevel::kWarn), "WARN");
}

// ------------------------------------------- whole-cluster determinism

// Same cluster and plan as the fault-injection acceptance suite: 4x4x4
// cells on 2x2x2 FPGA nodes, every fault class armed.
md::SystemState cluster_state() {
  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.seed = 17;
  p.temperature = 300.0;
  return md::generate_dataset({4, 4, 4}, 8.5, md::ForceField::sodium(), p);
}

core::ClusterConfig cluster_config(int workers, obs::Hub* hub) {
  core::ClusterConfig c;
  c.node_dims = {2, 2, 2};
  c.cells_per_node = {2, 2, 2};
  c.num_worker_threads = workers;
  c.obs = hub;
  return c;
}

net::FaultPlan acceptance_plan() {
  net::FaultPlan plan;
  plan.seed = 0xFA57;
  plan.all = {.drop = 0.1, .dup = 0.05, .reorder = 0.05, .corrupt = 0.05};
  return plan;
}

constexpr int kSteps = 3;

/// The structural checks tools/validate_trace.py applies in CI: per
/// (pid, tid) track, 'B'/'E' must balance like a stack and timestamps must
/// never go backwards.
void expect_trace_valid(const std::vector<obs::TraceEvent>& events) {
  std::map<std::pair<int, int>, int> depth;
  std::map<std::pair<int, int>, obs::Cycle> last_ts;
  for (const obs::TraceEvent& e : events) {
    const std::pair<int, int> track{e.pid, static_cast<int>(e.tid)};
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts, it->second)
          << "ts regressed on track pid=" << track.first
          << " tid=" << track.second;
    }
    last_ts[track] = e.ts;
    if (e.phase == 'B') ++depth[track];
    if (e.phase == 'E') {
      ASSERT_GT(depth[track], 0) << "unmatched 'E' on pid=" << track.first;
      --depth[track];
    }
  }
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed span on pid=" << track.first;
  }
}

TEST(ObsCluster, FaultedRunTelemetryBitwiseIdenticalAcrossWorkers) {
  std::string want_trace, want_json, want_prom;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    obs::Hub hub;
    auto config = cluster_config(workers, &hub);
    config.faults = acceptance_plan();
    core::Simulation sim(cluster_state(), md::ForceField::sodium(), config);
    sim.run(kSteps);

    const obs::MetricsSnapshot snap = hub.metrics().snapshot();
    const std::string trace = hub.trace().to_chrome_json();
    const std::string json = snap.to_json();
    const std::string prom = snap.to_prometheus();

    // Telemetry proves the faults actually happened...
    EXPECT_GT(snap.counter_total("net.pos.faults.drop"), 0u);
    EXPECT_GT(snap.counter_total("net.pos.retransmit_packets"), 0u);
    EXPECT_EQ(snap.counter_total("node.iterations"),
              static_cast<std::uint64_t>(kSteps) * 8u);
    // ...the trace is structurally sound...
    expect_trace_valid(hub.trace().events());
    // ...and none of it depends on the worker count.
    if (workers == 1) {
      want_trace = trace;
      want_json = json;
      want_prom = prom;
      continue;
    }
    EXPECT_EQ(trace, want_trace);
    EXPECT_EQ(json, want_json);
    EXPECT_EQ(prom, want_prom);
  }
}

// The registry is not a second bookkeeping system: what it publishes is
// exactly what the direct report accessors return.
TEST(ObsCluster, RegistryMatchesDirectReports) {
  obs::Hub hub;
  auto config = cluster_config(2, &hub);
  config.faults = acceptance_plan();
  core::Simulation sim(cluster_state(), md::ForceField::sodium(), config);
  sim.run(kSteps);

  const obs::MetricsSnapshot snap = hub.metrics().snapshot();
  const auto u = sim.utilization();
  EXPECT_EQ(snap.gauge_or("util.pe.hardware"), u.pe_hardware);
  EXPECT_EQ(snap.gauge_or("util.pe.time"), u.pe_time);
  EXPECT_EQ(snap.gauge_or("util.mu.time"), u.mu_time);
  const auto t = sim.traffic();
  EXPECT_EQ(snap.gauge_or("net.pos.gbps_per_node"), t.position_gbps_per_node);
  EXPECT_EQ(snap.gauge_or("net.frc.gbps_per_node"), t.force_gbps_per_node);
  EXPECT_EQ(snap.counter_total("net.pos.packets"),
            t.positions.total_packets);
  EXPECT_EQ(snap.counter_total("net.frc.packets"), t.forces.total_packets);
  EXPECT_EQ(snap.counter_total("net.rel.retransmits"),
            t.reliability_total.retransmits);

  // The per-destination egress counters reproduce the Fig. 18 breakdown.
  std::uint64_t from0 = 0;
  for (const auto& [pair, packets] : t.positions.packets) {
    if (pair.first == 0) from0 += packets;
  }
  const auto pct = obs::egress_percentages(snap, "net.pos", 0, sim.num_nodes());
  std::uint64_t counted = 0;
  for (int dst = 0; dst < sim.num_nodes(); ++dst) {
    counted += snap.counter("net.pos.to." + std::to_string(dst), 0);
  }
  EXPECT_EQ(counted, from0);
  double sum = 0;
  for (double p : pct) sum += p;
  EXPECT_NEAR(sum, from0 > 0 ? 100.0 : 0.0, 1e-9);
}

// A disabled hub is the default; nothing registers, nothing allocates.
TEST(ObsCluster, NullHubRunsClean) {
  auto config = cluster_config(2, nullptr);
  core::Simulation sim(cluster_state(), md::ForceField::sodium(), config);
  sim.run(1);
  EXPECT_EQ(sim.obs(), nullptr);
}

}  // namespace
}  // namespace fasda
