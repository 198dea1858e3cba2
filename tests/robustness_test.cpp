// Robustness and property suites across the stack: degenerate workloads
// (empty cells, single particles, frozen systems), invariance of the
// physics to timing parameters (latency, buffer depths, sync mode must not
// change results), and randomized ring-conservation fuzzing.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "fasda/core/simulation.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/md/functional_engine.hpp"
#include "fasda/md/reference_engine.hpp"
#include "fasda/ring/ring.hpp"
#include "fasda/util/rng.hpp"

namespace fasda {
namespace {

// ---------------------------------------------------------------- workloads

md::SystemState sparse_state() {
  // Only two occupied cells in a 3x3x3 space; most cells empty.
  md::SystemState s;
  s.cell_dims = {3, 3, 3};
  s.cell_size = 8.5;
  for (int i = 0; i < 5; ++i) {
    s.positions.push_back({4.0 + 0.8 * i, 4.0, 4.0});
    s.velocities.push_back({0.0, 0.0, 0.0});
    s.elements.push_back(0);
  }
  s.positions.push_back({13.0, 13.0, 13.0});  // lone particle, cell (1,1,1)
  s.velocities.push_back({0.01, 0.0, 0.0});
  s.elements.push_back(0);
  return s;
}

TEST(Robustness, EmptyCellsHandledByAllEngines) {
  const auto ff = md::ForceField::sodium();
  const auto state = sparse_state();

  md::FunctionalConfig fc;
  fc.cutoff = 8.5;
  fc.dt = 2.0;
  md::FunctionalEngine functional(state, ff, fc);
  functional.step(5);
  EXPECT_EQ(functional.state().size(), state.size());

  core::Simulation sim(state, ff, core::ClusterConfig{});
  sim.run(5);
  EXPECT_EQ(sim.state().size(), state.size());
}

// A state whose element ids the force field lacks (a nacl checkpoint
// restarted under the sodium-only field) is refused at construction by
// every engine, naming the first bad particle, instead of reading the
// coefficient and mass tables out of bounds later.
TEST(Robustness, UnknownElementIdsRejectedByAllEngines) {
  const auto ff = md::ForceField::sodium();
  auto state = sparse_state();
  state.elements[3] = 1;
  state.elements[5] = 1;
  const auto expect_rejected = [](const char* engine, const auto& build) {
    try {
      build();
      ADD_FAILURE() << engine << " accepted an element id past the field";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("particle 3 has element id 1"),
                std::string::npos)
          << engine << ": " << e.what();
    }
  };
  md::FunctionalConfig fc;
  fc.cutoff = 8.5;
  expect_rejected("functional", [&] { md::FunctionalEngine(state, ff, fc); });
  expect_rejected("reference",
                  [&] { md::ReferenceEngine(state, ff, 8.5, 2.0); });
  expect_rejected("cycle",
                  [&] { core::Simulation(state, ff, core::ClusterConfig{}); });
}

TEST(Robustness, LoneParticleFeelsNoForce) {
  const auto ff = md::ForceField::sodium();
  const auto state = sparse_state();
  core::Simulation sim(state, ff, core::ClusterConfig{});
  sim.run(1);
  const auto forces = sim.forces_by_particle();
  EXPECT_EQ(forces.back(), (geom::Vec3f{}));
  // And its drift is pure constant-velocity motion.
  const auto out = sim.state();
  EXPECT_NEAR(out.positions.back().x, 13.0 + 0.01 * 2.0, 1e-5);
}

TEST(Robustness, CompletelyEmptySimulationTerminates) {
  md::SystemState s;
  s.cell_dims = {3, 3, 3};
  s.cell_size = 8.5;
  core::Simulation sim(s, md::ForceField::sodium(), core::ClusterConfig{});
  sim.run(3);
  EXPECT_EQ(sim.state().size(), 0u);
  EXPECT_GT(sim.last_run_cycles(), 0u);
}

TEST(Robustness, FrozenLatticeStaysPut) {
  // Particles on an exact lattice with zero velocity and zero jitter: net
  // forces are symmetric but nonzero only at float rounding level, so one
  // step must move nothing measurably.
  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.jitter = 0.0;
  p.temperature = 0.0;
  const auto ff = md::ForceField::sodium();
  const auto state = md::generate_dataset({3, 3, 3}, 8.5, ff, p);
  core::Simulation sim(state, ff, core::ClusterConfig{});
  sim.run(3);
  const auto out = sim.state();
  const auto grid = state.grid();
  for (std::size_t i = 0; i < state.size(); ++i) {
    EXPECT_LT(grid.min_image(out.positions[i], state.positions[i]).norm(), 1e-4);
  }
}

// ----------------------------------------------- timing-parameter invariance

md::SystemState standard_state() {
  md::DatasetParams p;
  p.particles_per_cell = 12;
  p.seed = 31;
  p.temperature = 200.0;
  return md::generate_dataset({4, 4, 4}, 8.5, md::ForceField::sodium(), p);
}

std::vector<geom::Vec3f> run_forces(core::ClusterConfig config) {
  config.node_dims = {2, 2, 2};
  config.cells_per_node = {2, 2, 2};
  config.channel.link_latency = std::max<sim::Cycle>(config.channel.link_latency, 5);
  core::Simulation sim(standard_state(), md::ForceField::sodium(), config);
  sim.run(1);
  return sim.forces_by_particle();
}

double worst_diff(const std::vector<geom::Vec3f>& a,
                  const std::vector<geom::Vec3f>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, (a[i].cast<double>() - b[i].cast<double>()).norm());
  }
  return worst;
}

TEST(TimingInvariance, PipelineLatencyDoesNotChangeForces) {
  // Timing parameters reshuffle which FC write lands first (float order),
  // but the accumulated physics must agree to rounding noise.
  core::ClusterConfig base;
  const auto a = run_forces(base);
  core::ClusterConfig deep;
  deep.pipeline_latency = 97;
  core::ClusterConfig shallow;
  shallow.pipeline_latency = 1;
  EXPECT_LT(worst_diff(a, run_forces(deep)), 1e-6);
  EXPECT_LT(worst_diff(a, run_forces(shallow)), 1e-6);
}

TEST(TimingInvariance, LinkLatencyAndCooldownDoNotChangeForces) {
  core::ClusterConfig base;
  const auto a = run_forces(base);
  core::ClusterConfig slow;
  slow.channel.link_latency = 977;
  slow.channel.cooldown = 17;
  EXPECT_LT(worst_diff(a, run_forces(slow)), 1e-6);
}

TEST(TimingInvariance, FilterCountChangesTimingNotPhysics) {
  core::ClusterConfig base;
  const auto a = run_forces(base);
  for (int filters : {1, 3, 9}) {
    core::ClusterConfig v;
    v.filters_per_pipeline = filters;
    const auto b = run_forces(v);
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      worst = std::max(
          worst, (a[i].cast<double>() - b[i].cast<double>()).norm());
    }
    // Summation order shifts with the filter schedule; physics must not.
    EXPECT_LT(worst, 1e-6) << filters << " filters";
  }
}

// ----------------------------------------------------- lossy-fabric fuzzing

/// Randomized FaultPlans at bounded rates over a small 8-node box: whatever
/// the wire does (within recoverable limits — no dead links), the physics
/// must not notice. Particle count is conserved through lossy migrations
/// and the potential energy stays within parity tolerance of the
/// functional engine's identical numerics.
class FaultFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultFuzz, RandomFaultPlansLeavePhysicsUntouched) {
  util::Xoshiro256 rng(GetParam());
  net::FaultPlan plan;
  plan.seed = rng();
  plan.all.drop = 0.10 * rng.uniform();
  plan.all.dup = 0.05 * rng.uniform();
  plan.all.reorder = 0.05 * rng.uniform();
  plan.all.corrupt = 0.05 * rng.uniform();

  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.seed = GetParam();
  p.temperature = 250.0;
  const auto ff = md::ForceField::sodium();
  const auto state = md::generate_dataset({4, 4, 4}, 8.5, ff, p);

  core::ClusterConfig config;
  config.node_dims = {2, 2, 2};
  config.cells_per_node = {2, 2, 2};
  config.faults = plan;
  config.num_worker_threads = 2;
  core::Simulation sim(state, ff, config);
  const int steps = 2;
  sim.run(steps);

  // No particle lost or duplicated through lossy migration packets.
  EXPECT_EQ(sim.state().size(), state.size());

  md::FunctionalConfig fc;
  fc.cutoff = 8.5;
  fc.dt = 2.0;
  md::FunctionalEngine functional(state, ff, fc);
  functional.step(steps);
  const double want = functional.potential_energy();
  EXPECT_LT(std::abs(sim.potential_energy() - want) / std::abs(want), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Values(1u, 7u, 42u));

// ------------------------------------------------- elision-oracle fuzzing

/// Property behind idle-cycle elision (DESIGN.md §13): the wake oracle may
/// over-predict (wake a component that then does nothing — wasted work,
/// counted as idle_wakes) but must NEVER under-predict (state changing
/// inside a window the oracle declared quiet — counted as mispredicts).
/// kValidate runs the naive loop and audits the oracle on every cycle, so
/// randomized geometries, link latencies and fault seeds search for a
/// contract violation without any risk of masking one.
class ElisionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElisionFuzz, OracleNeverUnderPredicts) {
  util::Xoshiro256 rng(GetParam());

  core::ClusterConfig config;
  const geom::IVec3 node_shapes[] = {{1, 1, 2}, {1, 2, 2}, {2, 2, 2}};
  config.node_dims = node_shapes[rng.below(3)];
  // The global grid needs >= 3 cells per dimension; widen singleton axes.
  config.cells_per_node = {config.node_dims.x == 1 ? 3 : 2,
                           config.node_dims.y == 1 ? 3 : 2,
                           config.node_dims.z == 1 ? 3 : 2};
  config.channel.link_latency = 1 + static_cast<int>(rng.below(400));
  config.num_worker_threads = 1 + static_cast<int>(rng.below(4));
  config.tick_mode = sim::TickMode::kValidate;
  if (rng.below(2) == 0) {
    net::FaultPlan plan;
    plan.seed = rng();
    plan.all.drop = 0.10 * rng.uniform();
    plan.all.dup = 0.05 * rng.uniform();
    plan.all.reorder = 0.05 * rng.uniform();
    plan.all.corrupt = 0.05 * rng.uniform();
    config.faults = plan;
  }

  md::DatasetParams p;
  p.particles_per_cell = 4 + static_cast<int>(rng.below(5));
  p.seed = GetParam();
  p.temperature = 250.0;
  const auto ff = md::ForceField::sodium();
  const geom::IVec3 dims = {config.node_dims.x * config.cells_per_node.x,
                            config.node_dims.y * config.cells_per_node.y,
                            config.node_dims.z * config.cells_per_node.z};
  const auto state = md::generate_dataset(dims, 8.5, ff, p);

  core::Simulation sim(state, ff, config);
  sim.run(2);

  const sim::ElisionStats& stats = sim.elision_stats();
  // "State changed while skipped": a single occurrence means elision would
  // have diverged from the naive loop on this workload.
  EXPECT_EQ(stats.mispredicts, 0u)
      << "oracle under-predicted a wake (nodes=" << config.node_dims.x << "x"
      << config.node_dims.y << "x" << config.node_dims.z
      << ", link_latency=" << config.channel.link_latency << ")";
  EXPECT_EQ(stats.elided_cycles, 0u) << "validate mode must not skip";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElisionFuzz,
                         ::testing::Values(3u, 11u, 23u, 57u, 91u));

// Deterministic companion to the fuzz property: long links make whole
// windows provably dead, so the audited naive loop must both observe idle
// wakes ("woke with no state change" — the waste elision removes) and
// still finish with a zero mispredict count.
TEST(ElisionFuzz, LongLinksProduceIdleWakesButNoMispredicts) {
  core::ClusterConfig config;
  config.node_dims = {2, 2, 2};
  config.cells_per_node = {2, 2, 2};
  config.channel.link_latency = 800;
  config.tick_mode = sim::TickMode::kValidate;

  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.seed = 21;
  p.temperature = 200.0;
  const auto ff = md::ForceField::sodium();
  const auto state = md::generate_dataset({4, 4, 4}, 8.5, ff, p);

  core::Simulation sim(state, ff, config);
  sim.run(1);

  const sim::ElisionStats& stats = sim.elision_stats();
  EXPECT_EQ(stats.mispredicts, 0u);
  EXPECT_GT(stats.idle_wakes, 0u)
      << "800-cycle links should leave globally dead cycles to observe";
}

// --------------------------------------------------------- ring conservation

struct FuzzTok {
  int id = 0;
  int dest = -1;
  int multicast = 1;
};

class FuzzStation {
 public:
  FuzzStation(int id, util::Xoshiro256* rng) : id_(id), rng_(rng), inject(64) {}

  ring::Action classify(const FuzzTok& t) const {
    using ring::Action;
    if (t.dest != id_) return Action::kPass;
    return t.multicast <= 1 ? Action::kDeliverAndDrop : Action::kDeliver;
  }

  bool try_deliver(FuzzTok& t) {
    if (rng_->below(4) == 0) return false;  // 25% transient refusal
    ++delivered[t.id];
    t.multicast--;
    return true;
  }

  int id_;
  util::Xoshiro256* rng_;
  sim::Fifo<FuzzTok> inject;
  std::map<int, int> delivered;
};

/// The ring's station set: slot i asks station i.
struct FuzzStations {
  std::vector<FuzzStation*> stations;
  ring::Action classify(std::size_t i, const FuzzTok& t) const {
    return stations[i]->classify(t);
  }
  bool try_deliver(std::size_t i, FuzzTok& t) {
    return stations[i]->try_deliver(t);
  }
};

class RingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingFuzz, NoTokenLostOrDuplicated) {
  util::Xoshiro256 rng(GetParam());
  const int n = 3 + static_cast<int>(rng.below(8));
  std::vector<std::unique_ptr<FuzzStation>> stations;
  FuzzStations set;
  std::vector<sim::Fifo<FuzzTok>*> sources;
  for (int i = 0; i < n; ++i) {
    stations.push_back(std::make_unique<FuzzStation>(i, &rng));
    set.stations.push_back(stations.back().get());
    sources.push_back(&stations.back()->inject);
  }
  ring::Ring<FuzzTok, FuzzStations> r("fuzz", set, sources);
  sim::Scheduler scheduler;
  scheduler.add(&r);
  scheduler.add_clocked(&r);

  std::map<int, int> expected;  // token id -> expected delivery count
  int next_id = 0;
  for (int round = 0; round < 50; ++round) {
    const int src = static_cast<int>(rng.below(n));
    FuzzTok t;
    t.id = next_id++;
    t.dest = static_cast<int>(rng.below(n));
    t.multicast = 1 + static_cast<int>(rng.below(3));
    if (t.dest == src) t.dest = (t.dest + 1) % n;
    if (stations[src]->inject.push(t)) expected[t.id] = t.multicast;
    for (int c = 0; c < 3; ++c) scheduler.run_cycle();
  }
  for (int c = 0; c < 3000 && r.occupancy() > 0; ++c) scheduler.run_cycle();
  EXPECT_EQ(r.occupancy(), 0u);

  std::map<int, int> delivered;
  for (auto& s : stations) {
    for (const auto& [id, count] : s->delivered) delivered[id] += count;
  }
  EXPECT_EQ(delivered, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace fasda
