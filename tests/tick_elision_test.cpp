// The safety case for idle-cycle elision (DESIGN.md §13): the elided
// scheduler loop — per-component wake oracles, per-shard sleep, deferred
// skip windows — must be BITWISE identical to the naive
// every-component-every-cycle loop. Same particle trajectories, same
// forces, same cycle counts, same traffic matrices, same metrics
// snapshots; for 1, 2 and 4 workers; on clean runs, under ~10% mixed link
// faults with the retransmit protocol armed, and across a node crash
// recovered by the supervisor. Run in CI with FASDA_NAIVE_TICK toggled so
// the escape hatch itself stays honest (see .github/workflows/ci.yml,
// job `elision-diff`).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fasda/core/simulation.hpp"
#include "fasda/engine/registry.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/obs/obs.hpp"
#include "fasda/sim/kernel.hpp"
#include "fasda/supervisor/supervisor.hpp"

namespace fasda {
namespace {

md::SystemState make_state(geom::IVec3 dims, int per_cell = 8,
                           std::uint64_t seed = 21) {
  md::DatasetParams p;
  p.particles_per_cell = per_cell;
  p.seed = seed;
  p.temperature = 200.0;
  return md::generate_dataset(dims, 8.5, md::ForceField::sodium(), p);
}

struct RunResult {
  md::SystemState state;
  std::vector<geom::Vec3f> forces;
  sim::Cycle cycles = 0;
  std::uint64_t pairs = 0;
  net::TrafficMatrix positions, forces_traffic, migrations;
  sim::ElisionStats elision;
  std::string metrics_json;
};

/// 2x2x2 FPGA nodes x 2x2x2 cells: multi-node traffic on every class, small
/// enough that the naive leg of each differential stays cheap.
core::ClusterConfig multi_node_config() {
  core::ClusterConfig c;
  c.node_dims = {2, 2, 2};
  c.cells_per_node = {2, 2, 2};
  c.channel.link_latency = 50;
  return c;
}

RunResult run_cluster(core::ClusterConfig config, int workers,
                      sim::TickMode mode, int iters = 2) {
  config.num_worker_threads = workers;
  config.tick_mode = mode;
  obs::Hub hub;
  config.obs = &hub;
  const geom::IVec3 dims = {config.node_dims.x * config.cells_per_node.x,
                            config.node_dims.y * config.cells_per_node.y,
                            config.node_dims.z * config.cells_per_node.z};
  const auto state = make_state(dims);
  core::Simulation sim(state, md::ForceField::sodium(), config);
  sim.run(iters);
  RunResult r;
  r.state = sim.state();
  r.forces = sim.forces_by_particle();
  r.cycles = sim.total_cycles();
  r.pairs = sim.pairs_issued();
  const auto traffic = sim.traffic();
  r.positions = traffic.positions;
  r.forces_traffic = traffic.forces;
  r.migrations = traffic.migrations;
  r.elision = sim.elision_stats();
  r.metrics_json = hub.metrics().snapshot().to_json();
  return r;
}

template <class T>
bool bitwise_equal(const T& a, const T& b) {
  static_assert(std::is_trivially_copyable_v<T>);
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

void expect_identical(const RunResult& got, const RunResult& want,
                      const std::string& label) {
  EXPECT_EQ(got.cycles, want.cycles) << label;
  EXPECT_EQ(got.pairs, want.pairs) << label;

  ASSERT_EQ(got.state.positions.size(), want.state.positions.size()) << label;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < want.state.positions.size(); ++i) {
    if (!bitwise_equal(got.state.positions[i], want.state.positions[i])) ++bad;
    if (!bitwise_equal(got.state.velocities[i], want.state.velocities[i]))
      ++bad;
    if (got.state.elements[i] != want.state.elements[i]) ++bad;
  }
  EXPECT_EQ(bad, 0u) << label << ": particle state diverged";

  ASSERT_EQ(got.forces.size(), want.forces.size()) << label;
  bad = 0;
  for (std::size_t i = 0; i < want.forces.size(); ++i) {
    if (!bitwise_equal(got.forces[i], want.forces[i])) ++bad;
  }
  EXPECT_EQ(bad, 0u) << label << ": forces diverged";

  EXPECT_EQ(got.positions.total_packets, want.positions.total_packets) << label;
  EXPECT_EQ(got.positions.packets, want.positions.packets) << label;
  EXPECT_EQ(got.forces_traffic.total_packets, want.forces_traffic.total_packets)
      << label;
  EXPECT_EQ(got.forces_traffic.packets, want.forces_traffic.packets) << label;
  EXPECT_EQ(got.migrations.total_packets, want.migrations.total_packets)
      << label;
  EXPECT_EQ(got.migrations.packets, want.migrations.packets) << label;

  // The telemetry pillar: everything the hub published is derived from
  // simulated state, so the merged snapshots must render identically.
  EXPECT_EQ(got.metrics_json, want.metrics_json) << label
      << ": metrics snapshot diverged";
}

/// ~10% mixed wire faults on every traffic class; the ack/retransmit
/// protocol (armed by the mere presence of the plan) recovers them all.
net::FaultPlan mixed_link_faults() {
  net::FaultPlan plan;
  plan.seed = 0xFA57;
  plan.all = {.drop = 0.1, .dup = 0.05, .reorder = 0.05, .corrupt = 0.05};
  return plan;
}

// ------------------------------------------------------------- clean runs

TEST(TickElision, CleanRunBitwiseIdenticalAcrossWorkerCounts) {
  const auto config = multi_node_config();
  const RunResult want = run_cluster(config, 1, sim::TickMode::kNaive);
  ASSERT_GT(want.positions.total_packets, 0u) << "multi-node traffic expected";
  EXPECT_EQ(want.elision.elided_cycles, 0u) << "naive loop must never skip";
  EXPECT_EQ(want.elision.component_idle_skips, 0u);
  for (const int workers : {1, 2, 4}) {
    const RunResult got = run_cluster(config, workers, sim::TickMode::kElide);
    expect_identical(got, want, "elide workers=" + std::to_string(workers));
    // The differential is only meaningful if the elided loop actually took
    // its fast paths on this workload.
    EXPECT_GT(got.elision.component_idle_skips, 0u)
        << "workers=" << workers << ": oracle never slept a component";
    // Naive at every worker count too: the baseline itself must not depend
    // on the thread count (guards the differential's other leg).
    if (workers != 1) {
      expect_identical(run_cluster(config, workers, sim::TickMode::kNaive),
                       want, "naive workers=" + std::to_string(workers));
    }
  }
}

// High link latency is where whole-cluster windows get elided (every
// component waiting on packets in flight); the jump path must still be
// bitwise transparent.
TEST(TickElision, ElidedWindowsUnderHighLinkLatency) {
  auto config = multi_node_config();
  config.channel.link_latency = 800;
  const RunResult want = run_cluster(config, 1, sim::TickMode::kNaive, 1);
  for (const int workers : {1, 4}) {
    const RunResult got = run_cluster(config, workers, sim::TickMode::kElide, 1);
    EXPECT_GT(got.elision.elided_cycles, 0u)
        << "long links should produce whole elided windows";
    expect_identical(got, want,
                     "link_latency=800 workers=" + std::to_string(workers));
  }
}

TEST(TickElision, BulkSyncBarrierWakeIsBitwiseSafe) {
  auto config = multi_node_config();
  config.sync_mode = sync::SyncMode::kBulk;
  config.bulk_barrier_latency = 500;
  const RunResult want = run_cluster(config, 1, sim::TickMode::kNaive);
  for (const int workers : {1, 4}) {
    const RunResult got = run_cluster(config, workers, sim::TickMode::kElide);
    expect_identical(got, want, "bulk workers=" + std::to_string(workers));
  }
}

// ------------------------------------------------------ faulty-wire runs

TEST(TickElision, LinkFaultsBitwiseIdenticalAcrossWorkerCounts) {
  auto config = multi_node_config();
  config.faults = mixed_link_faults();
  const RunResult want = run_cluster(config, 1, sim::TickMode::kNaive);
  for (const int workers : {1, 2, 4}) {
    const RunResult got = run_cluster(config, workers, sim::TickMode::kElide);
    expect_identical(got, want,
                     "faults workers=" + std::to_string(workers));
  }
}

// --------------------------------------------- crash + supervised recovery

engine::EngineSpec crashing_spec(int workers, bool naive) {
  engine::EngineSpec spec;
  spec.engine = "cycle";
  spec.cells_per_node = geom::IVec3{2, 2, 2};
  spec.num_worker_threads = workers;
  spec.naive_tick = naive;
  spec.faults = net::FaultPlan::parse("crash=1-2500");
  spec.reliability.max_retries = 3;  // quick dead-board detection
  return spec;
}

md::SystemState crash_cluster_state() {
  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.seed = 17;
  p.temperature = 300.0;
  return md::generate_dataset({4, 4, 4}, 8.5, md::ForceField::sodium(), p);
}

TEST(TickElision, CrashRecoveryBitwiseIdenticalAcrossWorkerCounts) {
  constexpr int kSteps = 4;  // ~1.1k cycles/step: crash at 2500 lands mid-run
  const auto state = crash_cluster_state();

  auto supervised = [&](int workers, bool naive) {
    supervisor::SupervisorConfig cfg;
    cfg.checkpoint_every = 1;
    supervisor::Supervisor sup(state, md::ForceField::sodium(),
                               crashing_spec(workers, naive), cfg);
    return sup.run(kSteps);
  };

  const auto want = supervised(1, /*naive=*/true);
  ASSERT_TRUE(want.completed) << want.final_error;
  ASSERT_EQ(want.restarts, 1);

  for (const int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto got = supervised(workers, /*naive=*/false);
    ASSERT_TRUE(got.completed) << got.final_error;
    EXPECT_EQ(got.restarts, want.restarts);
    EXPECT_EQ(got.steps, want.steps);
    // The crash is detected as the same typed failure, on the same node, at
    // the same cycle, with the same message.
    ASSERT_EQ(got.incidents.size(), want.incidents.size());
    for (std::size_t i = 0; i < want.incidents.size(); ++i) {
      EXPECT_EQ(got.incidents[i].kind, want.incidents[i].kind);
      EXPECT_EQ(got.incidents[i].node, want.incidents[i].node);
      EXPECT_EQ(got.incidents[i].detected_at, want.incidents[i].detected_at);
      EXPECT_EQ(got.incidents[i].error, want.incidents[i].error);
    }
    ASSERT_EQ(got.final_state.size(), want.final_state.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < want.final_state.size(); ++i) {
      if (!bitwise_equal(got.final_state.positions[i],
                         want.final_state.positions[i]))
        ++bad;
      if (!bitwise_equal(got.final_state.velocities[i],
                         want.final_state.velocities[i]))
        ++bad;
    }
    EXPECT_EQ(bad, 0u) << "recovered trajectory diverged";
  }
}

// ------------------------------------------------------- escape hatch

TEST(TickElision, EnvEscapeHatchForcesNaive) {
  ASSERT_EQ(setenv("FASDA_NAIVE_TICK", "1", 1), 0);
  EXPECT_EQ(sim::resolve_tick_mode(sim::TickMode::kElide),
            sim::TickMode::kNaive);
  ASSERT_EQ(setenv("FASDA_NAIVE_TICK", "0", 1), 0);
  EXPECT_EQ(sim::resolve_tick_mode(sim::TickMode::kElide),
            sim::TickMode::kElide);
  ASSERT_EQ(unsetenv("FASDA_NAIVE_TICK"), 0);
  EXPECT_EQ(sim::resolve_tick_mode(sim::TickMode::kElide),
            sim::TickMode::kElide);

  // End-to-end: with the variable set, a Simulation configured for elision
  // runs the naive loop (no skips, no elided windows).
  ASSERT_EQ(setenv("FASDA_NAIVE_TICK", "1", 1), 0);
  auto config = multi_node_config();
  const RunResult got = run_cluster(config, 1, sim::TickMode::kElide, 1);
  ASSERT_EQ(unsetenv("FASDA_NAIVE_TICK"), 0);
  EXPECT_EQ(got.elision.elided_cycles, 0u);
  EXPECT_EQ(got.elision.component_idle_skips, 0u);
}

}  // namespace
}  // namespace fasda
