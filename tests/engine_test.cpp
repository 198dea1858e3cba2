// The engine layer's contracts:
//   * Registry builds every back end from one EngineSpec; unknown names
//     fail loudly; new back ends plug in without call-site changes.
//   * Cross-engine parity through the uniform interface — the same
//     guarantees the per-engine suites assert, now exercised exactly the
//     way a driver sees the engines.
//   * BatchRunner determinism: per-replica results are bitwise identical
//     for any worker count.
//   * Checkpoints written through the observer hook restart any other
//     engine within each pair's documented import tolerance.
//   * Engines built concurrently share one copy of each r^-α table.
//   * Golden result bits: each engine's output is pinned bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "fasda/engine/batch_runner.hpp"
#include "fasda/engine/observers.hpp"
#include "fasda/engine/registry.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/md/checkpoint.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/serve/job.hpp"

namespace fasda::engine {
namespace {

md::SystemState make_state(geom::IVec3 dims = {3, 3, 3}, int per_cell = 16,
                           std::uint64_t seed = 7) {
  md::DatasetParams p;
  p.particles_per_cell = per_cell;
  p.seed = seed;
  p.temperature = 150.0;
  return md::generate_dataset(dims, 8.5, md::ForceField::sodium(), p);
}

EngineSpec spec_for(const std::string& name) {
  EngineSpec s;
  s.engine = name;
  return s;
}

double worst_force_error(const std::vector<geom::Vec3d>& got,
                         const std::vector<geom::Vec3d>& want) {
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst, (got[i] - want[i]).norm());
    scale = std::max(scale, want[i].norm());
  }
  return scale > 0 ? worst / scale : worst;
}

TEST(Registry, ProvidesTheThreeBuiltins) {
  const auto names = Registry::instance().names();
  EXPECT_EQ(names, (std::vector<std::string>{"cycle", "functional",
                                             "reference"}));
  EXPECT_TRUE(Registry::instance().contains("functional"));
  EXPECT_FALSE(Registry::instance().contains("gpu"));
}

TEST(Registry, UnknownEngineFailsLoudly) {
  const auto state = make_state({3, 3, 3}, 4);
  try {
    Registry::instance().create(state, md::ForceField::sodium(),
                                spec_for("warp-drive"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("warp-drive"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("functional"), std::string::npos)
        << "the error must list the registered names";
  }
}

TEST(Registry, NewBackEndsPlugIn) {
  // The boundary future back ends use: register a factory, build through
  // the same create() call every driver uses.
  Registry registry;
  EXPECT_TRUE(registry.names().empty());
  registry.add("delegate", [](const md::SystemState& s,
                              const md::ForceField& ff,
                              const EngineSpec& spec) {
    EngineSpec inner = spec;
    inner.engine = "functional";
    return Registry::instance().create(s, ff, inner);
  });
  ASSERT_TRUE(registry.contains("delegate"));
  const auto state = make_state({3, 3, 3}, 4);
  auto engine = registry.create(state, md::ForceField::sodium(),
                                spec_for("delegate"));
  engine->step(2);
  EXPECT_EQ(engine->metrics().steps_completed, 2);
  EXPECT_GT(engine->metrics().last_pair_count, 0u);
}

TEST(Registry, CycleSpecDerivesClusterShape) {
  const auto state = make_state({4, 4, 4}, 4);
  EngineSpec spec = spec_for("cycle");
  spec.cells_per_node = geom::IVec3{2, 2, 2};
  const auto config = cluster_config_for(spec, state);
  EXPECT_EQ(config.node_dims, (geom::IVec3{2, 2, 2}));

  spec.cells_per_node = geom::IVec3{3, 3, 3};  // 4 % 3 != 0
  EXPECT_THROW(cluster_config_for(spec, state), std::invalid_argument);
  EXPECT_THROW(
      Registry::instance().create(state, md::ForceField::sodium(), spec),
      std::invalid_argument);
}

TEST(EngineParity, FunctionalVsCycleForces) {
  // The flagship cross-validation, driven the way a Registry client sees
  // it: after one step both engines report the forces evaluated on the
  // identical initial configuration. Same pairs, same tables — only the
  // float accumulation order differs.
  const auto state = make_state();
  const auto ff = md::ForceField::sodium();
  auto functional =
      Registry::instance().create(state, ff, spec_for("functional"));
  auto cycle = Registry::instance().create(state, ff, spec_for("cycle"));
  functional->step(1);
  cycle->step(1);
  EXPECT_LT(worst_force_error(cycle->forces_by_particle(),
                              functional->forces_by_particle()),
            1e-5);
  EXPECT_EQ(cycle->metrics().last_pair_count,
            functional->metrics().last_pair_count);
}

TEST(EngineParity, ReferenceWithinTolerance) {
  // Interpolated float32 forces against the analytic float64 ground truth:
  // relative error well under 1e-3 (the FunctionalEngine accuracy bound).
  const auto state = make_state();
  const auto ff = md::ForceField::sodium();
  auto functional =
      Registry::instance().create(state, ff, spec_for("functional"));
  auto reference =
      Registry::instance().create(state, ff, spec_for("reference"));
  functional->step(1);
  reference->step(1);
  EXPECT_LT(worst_force_error(functional->forces_by_particle(),
                              reference->forces_by_particle()),
            1e-3);
  EXPECT_EQ(functional->metrics().last_pair_count,
            reference->metrics().last_pair_count);
}

TEST(EngineParity, TrajectoriesAgreeAcrossAllThree) {
  const auto state = make_state();
  const auto ff = md::ForceField::sodium();
  auto functional =
      Registry::instance().create(state, ff, spec_for("functional"));
  auto cycle = Registry::instance().create(state, ff, spec_for("cycle"));
  auto reference =
      Registry::instance().create(state, ff, spec_for("reference"));
  for (auto* e : {functional.get(), cycle.get(), reference.get()}) e->step(5);

  const auto grid = state.grid();
  const auto f = functional->state();
  const auto c = cycle->state();
  const auto r = reference->state();
  double worst_fc = 0.0, worst_fr = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    worst_fc = std::max(worst_fc,
                        grid.min_image(c.positions[i], f.positions[i]).norm());
    worst_fr = std::max(worst_fr,
                        grid.min_image(r.positions[i], f.positions[i]).norm());
  }
  EXPECT_LT(worst_fc, 1e-4);  // Å after 5 steps, hardware numerics twice
  EXPECT_LT(worst_fr, 1e-2);  // float32 vs float64 divergence accumulates
}

TEST(Observers, RunSamplesAtBlockBoundaries) {
  struct Recorder final : StepObserver {
    std::vector<int> steps;
    void on_sample(int step, const md::SystemState&, const Energies&) override {
      steps.push_back(step);
    }
    int finished = 0;
    void on_finish(int, Engine&) override { ++finished; }
  } recorder;

  const auto state = make_state({3, 3, 3}, 4);
  auto engine = Registry::instance().create(state, md::ForceField::sodium(),
                                            spec_for("functional"));
  const auto result = engine::run(*engine, 10, 4, {&recorder});
  EXPECT_EQ(recorder.steps, (std::vector<int>{0, 4, 8, 10}));
  EXPECT_EQ(recorder.finished, 1);
  EXPECT_EQ(engine->metrics().steps_completed, 10);
  EXPECT_DOUBLE_EQ(result.final_energies.total, engine->total_energy());
}

TEST(BatchRunner, DeterministicAcrossWorkerCounts) {
  // The batch counterpart of the parallel-scheduler guarantee: worker
  // count changes wall-clock only, never a replica's numbers.
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    BatchJob job;
    job.label = "replica-" + std::to_string(i);
    job.state = make_state({3, 3, 3}, 8, 100 + i);
    job.ff = md::ForceField::sodium();
    job.spec = spec_for(i % 2 ? "functional" : "reference");
    job.steps = 10;
    jobs.push_back(std::move(job));
  }

  BatchReport reports[3];
  const std::size_t worker_counts[] = {1, 2, 4};
  for (int w = 0; w < 3; ++w) {
    BatchRunner runner(worker_counts[w]);
    EXPECT_EQ(runner.workers(), worker_counts[w]);
    reports[w] = runner.run(jobs);
  }

  for (int w = 1; w < 3; ++w) {
    ASSERT_EQ(reports[w].replicas.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& base = reports[0].replicas[i];
      const auto& got = reports[w].replicas[i];
      ASSERT_TRUE(base.ok && got.ok);
      EXPECT_EQ(got.label, base.label);
      EXPECT_EQ(got.score, base.score);  // bitwise
      EXPECT_EQ(got.final_energies.total, base.final_energies.total);
      EXPECT_EQ(got.final_energies.potential, base.final_energies.potential);
      ASSERT_EQ(got.final_state.size(), base.final_state.size());
      for (std::size_t p = 0; p < base.final_state.size(); ++p) {
        EXPECT_EQ(got.final_state.positions[p], base.final_state.positions[p]);
        EXPECT_EQ(got.final_state.velocities[p],
                  base.final_state.velocities[p]);
      }
    }
  }
}

TEST(BatchRunner, ReportsThroughputAndIsolatesFailures) {
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 3; ++i) {
    BatchJob job;
    job.label = "job-" + std::to_string(i);
    job.state = make_state({3, 3, 3}, 4, 50 + i);
    job.ff = md::ForceField::sodium();
    job.spec = spec_for(i == 1 ? "no-such-backend" : "functional");
    job.steps = 4;
    jobs.push_back(std::move(job));
  }
  BatchRunner runner(2);
  const auto report = runner.run(jobs);
  ASSERT_EQ(report.replicas.size(), 3u);
  EXPECT_TRUE(report.replicas[0].ok);
  EXPECT_FALSE(report.replicas[1].ok);
  EXPECT_NE(report.replicas[1].error.find("no-such-backend"),
            std::string::npos);
  EXPECT_TRUE(report.replicas[2].ok);
  EXPECT_GT(report.replicas_per_hour, 0.0);
  EXPECT_GT(report.simulated_us, 0.0);
  EXPECT_GT(report.us_per_day_per_replica, 0.0);
  EXPECT_EQ(report.replicas[0].steps, 4);
}

TEST(BatchRunner, NodeFaultInOneReplicaLeavesTheOthersStanding) {
  // Failure isolation with a typed cause: replica 0 carries a fault plan
  // that crashes one of its FPGA nodes mid-run; replica 1 is identical but
  // fault-free. The ensemble keeps replica 1's result and reports replica
  // 0 with the failure kind and the implicated node, not just an opaque
  // error string.
  std::vector<BatchJob> jobs(2);
  for (int i = 0; i < 2; ++i) {
    BatchJob& job = jobs[i];
    job.label = i == 0 ? "faulty" : "healthy";
    job.state = make_state({4, 4, 4}, 8, 17);
    job.ff = md::ForceField::sodium();
    job.spec = spec_for("cycle");
    job.spec.cells_per_node = geom::IVec3{2, 2, 2};
    job.steps = 5;
  }
  jobs[0].spec.faults = net::FaultPlan::parse("crash=1-2500");
  jobs[0].spec.reliability.max_retries = 3;  // quick detection

  BatchRunner runner(2);
  const auto report = runner.run(jobs);
  ASSERT_EQ(report.replicas.size(), 2u);

  const auto& faulty = report.replicas[0];
  EXPECT_FALSE(faulty.ok);
  EXPECT_EQ(faulty.failure, ReplicaFailure::kNodeFailure);
  EXPECT_EQ(faulty.failed_node, 1);
  EXPECT_NE(faulty.error.find("node 1"), std::string::npos);

  const auto& healthy = report.replicas[1];
  EXPECT_TRUE(healthy.ok) << healthy.error;
  EXPECT_EQ(healthy.failure, ReplicaFailure::kNone);
  EXPECT_EQ(healthy.failed_node, -1);
  EXPECT_EQ(healthy.steps, 5);
}

TEST(BatchRunner, CustomBodyCanRebuildTheEngine) {
  BatchJob job;
  job.label = "rebuild";
  job.state = make_state({3, 3, 3}, 4);
  job.ff = md::ForceField::sodium();
  job.spec = spec_for("functional");
  job.body = [](ReplicaContext& ctx) {
    ctx.engine().step(5);
    ctx.rebuild(ctx.engine().state());  // e.g. after velocity rescaling
    ctx.engine().step(5);
    return ctx.engine().total_energy();
  };
  BatchRunner runner(1);
  const auto report = runner.run({job});
  ASSERT_TRUE(report.replicas[0].ok) << report.replicas[0].error;
  EXPECT_EQ(report.replicas[0].steps, 10) << "steps survive rebuilds";
}

// Checkpoint round trip across engines: save from one engine through the
// observer hook, restart another engine from the file, and require state
// equivalence within the target's import tolerance. Reference imports
// doubles exactly; functional/cycle quantize positions to the Q2.28 grid
// (one quantum = cell_size·2⁻²⁸ < 1e-6 Å) and narrow velocities to float32.
// The engine names are std::string, not const char*: gtest prints a pointer
// parameter with its address, which made the test names change between runs.
using EnginePair = std::pair<std::string, std::string>;
class CheckpointRoundTrip : public ::testing::TestWithParam<EnginePair> {};

TEST_P(CheckpointRoundTrip, RestartsWithinImportTolerance) {
  const auto [from, to] = GetParam();
  const auto state = make_state({3, 3, 3}, 8);
  const auto ff = md::ForceField::sodium();
  const std::string path = ::testing::TempDir() + "engine_ckpt_" +
                           from + "_" + to + ".bin";

  auto source = Registry::instance().create(state, ff, spec_for(from));
  CheckpointObserver checkpoint(path);
  engine::run(*source, 4, 2, {&checkpoint});
  const auto saved = source->state();

  // The file itself round-trips the saved state exactly (doubles).
  const auto loaded = md::load_checkpoint(path);
  ASSERT_EQ(loaded.size(), saved.size());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(loaded.positions[i], saved.positions[i]);
    EXPECT_EQ(loaded.velocities[i], saved.velocities[i]);
  }

  // Importing into the target engine quantizes at most one fixed-point
  // quantum per axis (zero for the reference engine).
  auto target = Registry::instance().create(loaded, ff, spec_for(to));
  const auto imported = target->state();
  const auto grid = state.grid();
  const bool exact = to == "reference";
  const double pos_tol = exact ? 0.0 : 1e-6;  // Å
  const double vel_tol = exact ? 0.0 : 1e-7;  // Å/fs, float32 narrowing
  ASSERT_EQ(imported.size(), saved.size());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_LE(grid.min_image(imported.positions[i], saved.positions[i]).norm(),
              pos_tol);
    EXPECT_LE((imported.velocities[i] - saved.velocities[i]).norm(), vel_tol);
  }

  target->step(2);  // the restarted engine must actually run
  EXPECT_EQ(target->metrics().steps_completed, 2);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CheckpointRoundTrip,
    ::testing::Values(EnginePair{"functional", "cycle"},
                      EnginePair{"cycle", "reference"},
                      EnginePair{"reference", "functional"},
                      EnginePair{"cycle", "functional"}),
    [](const auto& info) {
      return info.param.first + "_to_" + info.param.second;
    });

// The r^-α tables are built once per process and shared by every engine
// (DESIGN.md "Host numerics"). Four BatchRunner workers build functional
// and cycle engines at once from a table config no other test in this
// binary uses, so they race on a cold memo entry; CI runs this under TSan.
TEST(SharedTables, ConcurrentColdBuildsAgree) {
  const interp::InterpConfig cfg{.num_sections = 12, .num_bins = 160};
  const auto ff = md::ForceField::sodium();
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 8; ++i) {
    BatchJob job;
    job.label = "r" + std::to_string(i);
    job.state = make_state({3, 3, 3}, 4, 3);
    job.ff = ff;
    job.spec = spec_for(i % 2 ? "cycle" : "functional");
    job.spec.table = cfg;
    job.steps = 2;
    jobs.push_back(std::move(job));
  }
  const BatchReport parallel = BatchRunner(4).run(jobs);
  const BatchReport serial = BatchRunner(1).run(jobs);
  ASSERT_EQ(parallel.replicas.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ReplicaResult& got = parallel.replicas[i];
    ASSERT_TRUE(got.ok) << got.error;
    // Same engine and input: the same bits, whichever worker built it.
    for (const ReplicaResult* want :
         {&parallel.replicas[i % 2], &serial.replicas[i]}) {
      EXPECT_EQ(serve::state_crc32(got.final_state),
                serve::state_crc32(want->final_state));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_energies.total),
                std::bit_cast<std::uint64_t>(want->final_energies.total));
    }
  }

  // Every shared table holds the coefficients a private build produces.
  for (const int alpha : {14, 8, 12, 6, 2}) {
    const auto shared = interp::InterpTable::build_r_pow(alpha, cfg);
    const double exponent = -alpha / 2.0;
    const auto fresh = interp::InterpTable::build(
        [exponent](double r2) { return std::pow(r2, exponent); }, cfg);
    ASSERT_EQ(shared.coefficients().size(), fresh.coefficients().size());
    for (std::size_t k = 0; k < fresh.coefficients().size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(shared.coefficients()[k].a),
                std::bit_cast<std::uint32_t>(fresh.coefficients()[k].a));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(shared.coefficients()[k].b),
                std::bit_cast<std::uint32_t>(fresh.coefficients()[k].b));
    }
  }
}

// Golden result bits: one small fixed job per engine and force field, its
// final state CRC and the bit patterns of its four final energies, recorded
// before the host numerics (table index, minimum image, shared tables) were
// rewritten. Any change to those kernels must reproduce these bits exactly.
struct GoldenCase {
  std::string name;
  std::string engine;
  bool nacl = false;
  bool ewald = false;
  std::uint32_t state_crc = 0;
  std::uint64_t potential = 0;
  std::uint64_t kinetic = 0;
  std::uint64_t total = 0;
  std::uint64_t temperature = 0;
};

// Keeps the ctest name free of the parameter's bytes (which hold pointers).
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class GoldenBits : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenBits, MatchRecordedResult) {
  const GoldenCase& c = GetParam();
  const md::ForceField ff =
      c.nacl ? md::ForceField::sodium_chloride() : md::ForceField::sodium();
  md::DatasetParams p;
  p.particles_per_cell = 8;
  p.seed = 11;
  p.temperature = 150.0;
  if (c.nacl) p.elements = md::ElementAssignment::kAlternating;
  const md::SystemState state = md::generate_dataset({3, 3, 3}, 8.5, ff, p);

  EngineSpec spec = spec_for(c.engine);
  spec.terms.ewald_real = c.ewald;
  auto eng = Registry::instance().create(state, ff, spec);
  const RunResult rr = engine::run(*eng, 4, 2, {});
  const Energies& e = rr.final_energies;

  EXPECT_EQ(serve::state_crc32(eng->state()), c.state_crc);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.potential), c.potential);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.kinetic), c.kinetic);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.total), c.total);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(e.temperature), c.temperature);
}

INSTANTIATE_TEST_SUITE_P(
    EveryEngine, GoldenBits,
    ::testing::Values(
        GoldenCase{"reference_na", "reference", false, false,
                   0x25dc1c6eu, 0xbf629794be95fa14ull,
                   0x3fa361dc7468ee00ull, 0x3fa23863287f8e5full,
                   0x406190d1d05bcd26ull},
        GoldenCase{"reference_nacl", "reference", true, false,
                   0xec5c1174u, 0xbf93d92e4f75cfb5ull,
                   0x3fa41ee83e2b9896ull, 0x3f9464a22ce16177ull,
                   0x40623c25cb16185aull},
        GoldenCase{"functional_na", "functional", false, false,
                   0xc0104aa0u, 0xbf629794be86f877ull,
                   0x3fa361dc757c84ddull, 0x3fa2386329941556ull,
                   0x406190d1d1558fc2ull},
        GoldenCase{"functional_nacl", "functional", true, false,
                   0x52012c38u, 0xbf93d92e4f77db34ull,
                   0x3fa41ee83e64e828ull, 0x3f9464a22d51f51cull,
                   0x40623c25cb4a08dbull},
        GoldenCase{"functional_nacl_ewald", "functional", true, true,
                   0xe4eb0ec2u, 0xbff3d0875aba6aa9ull,
                   0x3fa44ca430ed84f5ull, 0xbff32e223932fe81ull,
                   0x406265986f5fe264ull},
        GoldenCase{"cycle_na", "cycle", false, false,
                   0xba9ebae0u, 0xbf629794be86f877ull,
                   0x3fa361dc757c2052ull, 0x3fa238632993b0cbull,
                   0x406190d1d15534a3ull},
        GoldenCase{"cycle_nacl", "cycle", true, false,
                   0x40cf5cdeu, 0xbf93d92e4f77db34ull,
                   0x3fa41ee83e64e635ull, 0x3f9464a22d51f136ull,
                   0x40623c25cb4a0716ull},
        GoldenCase{"cycle_nacl_ewald", "cycle", true, true,
                   0x12a20b93u, 0xbff3d0875ab953d8ull,
                   0x3fa44ca42ff45912ull, 0xbff32e223939b10full,
                   0x406265986e7e10e9ull}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace fasda::engine
