#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "fasda/md/datapath.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/md/energy.hpp"
#include "fasda/md/functional_engine.hpp"
#include "fasda/md/reference_engine.hpp"

namespace fasda::md {
namespace {

SystemState small_system(geom::IVec3 dims = {3, 3, 3}, int per_cell = 16,
                         double temperature = 150.0) {
  DatasetParams p;
  p.particles_per_cell = per_cell;
  p.seed = 7;
  p.temperature = temperature;
  return generate_dataset(dims, 8.5, ForceField::sodium(), p);
}

FunctionalConfig config(std::size_t threads = 1) {
  FunctionalConfig c;
  c.cutoff = 8.5;
  c.dt = 2.0;
  c.threads = threads;
  return c;
}

TEST(FunctionalEngine, RequiresCellSizeEqualCutoff) {
  auto s = small_system();
  s.cell_size = 9.0;
  EXPECT_THROW(FunctionalEngine(s, ForceField::sodium(), config()),
               std::invalid_argument);
}

TEST(FunctionalEngine, StateRoundTripsThroughImport) {
  const auto s = small_system();
  FunctionalEngine engine(s, ForceField::sodium(), config());
  const auto out = engine.state();
  ASSERT_EQ(out.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Positions were generated on the fixed grid, so the round trip is exact
    // up to one quantum.
    EXPECT_NEAR(out.positions[i].x, s.positions[i].x, 1e-6);
    EXPECT_NEAR(out.positions[i].y, s.positions[i].y, 1e-6);
    EXPECT_NEAR(out.positions[i].z, s.positions[i].z, 1e-6);
    // Velocities pass through float32.
    EXPECT_NEAR(out.velocities[i].x, s.velocities[i].x, 1e-7);
  }
}

TEST(FunctionalEngine, ForcesMatchAnalyticReference) {
  const auto s = small_system();
  const auto ff = ForceField::sodium();
  FunctionalEngine engine(s, ff, config());
  engine.evaluate_forces();
  const auto approx = engine.forces_by_particle();
  const auto exact = compute_forces(engine.state(), ff, 8.5);
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    worst = std::max(worst, (approx[i].cast<double>() - exact[i]).norm());
    scale = std::max(scale, exact[i].norm());
  }
  // Interpolation + float32 accumulation: relative error well under 1e-3.
  EXPECT_LT(worst / scale, 1e-3);
  EXPECT_GT(scale, 0.0);
}

TEST(FunctionalEngine, PairCountMatchesReference) {
  const auto s = small_system();
  FunctionalEngine engine(s, ForceField::sodium(), config());
  engine.evaluate_forces();
  EXPECT_EQ(engine.last_pair_count(), count_pairs_within_cutoff(engine.state(), 8.5));
}

TEST(FunctionalEngine, ThreadingDoesNotChangeResults) {
  const auto s = small_system();
  FunctionalEngine e1(s, ForceField::sodium(), config(1));
  FunctionalEngine e4(s, ForceField::sodium(), config(4));
  e1.step(10);
  e4.step(10);
  const auto s1 = e1.state();
  const auto s4 = e4.state();
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.positions[i], s4.positions[i]);
    EXPECT_EQ(s1.velocities[i], s4.velocities[i]);
  }
}

TEST(FunctionalEngine, MomentumNearConserved) {
  // Float32 accumulation: momentum conserved to float precision because the
  // full-shell evaluation produces exactly antisymmetric pair forces.
  const auto s = small_system();
  const auto ff = ForceField::sodium();
  FunctionalEngine engine(s, ff, config());
  engine.step(50);
  const auto p = total_momentum(engine.state(), ff);
  const double scale = static_cast<double>(s.size());
  EXPECT_LT(p.norm() / scale, 1e-6);
}

TEST(FunctionalEngine, TracksReferenceTrajectoryShortTerm) {
  const auto s = small_system({3, 3, 3}, 32);
  const auto ff = ForceField::sodium();
  FunctionalEngine fasda(s, ff, config(2));
  ReferenceEngine reference(s, ff, 8.5, 2.0, 2);
  fasda.step(20);
  reference.step(20);
  const auto sf = fasda.state();
  const auto& sr = reference.state();
  const auto grid = s.grid();
  double worst = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    worst = std::max(worst,
                     grid.min_image(sf.positions[i], sr.positions[i]).norm());
  }
  EXPECT_LT(worst, 1e-3);  // Å after 20 steps
}

TEST(FunctionalEngine, EnergyTracksReferenceOverLongerRun) {
  // The Fig. 19 property in miniature: total energy of the FASDA trajectory
  // stays within ~1e-3 relative of the double-precision engine's.
  const auto s = small_system({3, 3, 3}, 64, 300.0);
  const auto ff = ForceField::sodium();
  FunctionalEngine fasda(s, ff, config(4));
  ReferenceEngine reference(s, ff, 8.5, 2.0, 4);
  const double scale =
      std::abs(reference.total_energy()) + reference.kinetic();
  for (int block = 0; block < 5; ++block) {
    fasda.step(100);
    reference.step(100);
    const double ef = fasda.total_energy();
    const double er = reference.total_energy();
    EXPECT_LT(std::abs(ef - er) / scale, 2e-3) << "block " << block;
  }
}

TEST(FunctionalEngine, MigrationPreservesParticleCount) {
  const auto s = small_system({3, 3, 3}, 32, 400.0);  // hot: many migrations
  FunctionalEngine engine(s, ForceField::sodium(), config(2));
  engine.step(200);
  const auto out = engine.state();
  EXPECT_EQ(out.size(), s.size());
  // Every particle position must still be inside the box.
  const auto box = out.grid().box();
  for (const auto& p : out.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, box.x);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, box.y);
    EXPECT_GE(p.z, 0.0);
    EXPECT_LT(p.z, box.z);
  }
}

TEST(FunctionalEngine, InterpPotentialCloseToAnalytic) {
  const auto s = small_system();
  FunctionalEngine engine(s, ForceField::sodium(), config());
  const double via_tables = engine.interp_potential_energy();
  const double exact = engine.potential_energy();
  EXPECT_LT(std::abs(via_tables - exact) / std::abs(exact), 1e-3);
}

TEST(FunctionalEngine, CoarseTablesDegradeForceAccuracy) {
  // Ablation hook: 16 bins must be visibly worse than the default 256.
  const auto s = small_system();
  const auto ff = ForceField::sodium();
  auto coarse_cfg = config();
  coarse_cfg.table.num_bins = 16;
  FunctionalEngine coarse(s, ff, coarse_cfg);
  FunctionalEngine fine(s, ff, config());
  coarse.evaluate_forces();
  fine.evaluate_forces();
  const auto exact = compute_forces(fine.state(), ff, 8.5);
  auto worst_error = [&](const FunctionalEngine& e) {
    const auto f = e.forces_by_particle();
    double worst = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      worst = std::max(worst, (f[i].cast<double>() - exact[i]).norm());
    }
    return worst;
  };
  EXPECT_GT(worst_error(coarse), 5.0 * worst_error(fine));
}

// ------------------------------------------------------------ md::Datapath
// The kernels both engines run, checked at exact raw Q2.28 values. With an
// 8 Å cell edge and dt = 2 fs, a velocity of 2^-26 Å/fs drifts exactly one
// raw step (2^-28 cell) per motion update.

constexpr std::uint32_t kOne = fixed::FixedCoord::kOne;
constexpr float kOneStep = 0x1p-26f;  // Å/fs

Datapath exact_datapath() {
  return Datapath(ForceField::sodium(), 8.0, interp::InterpConfig{},
                  ForceTerms{}, 2.0, 8.0);
}

fixed::FixedVec3 raw3(std::uint32_t x, std::uint32_t y, std::uint32_t z) {
  return {fixed::FixedCoord::from_raw(x), fixed::FixedCoord::from_raw(y),
          fixed::FixedCoord::from_raw(z)};
}

float& axis_of(geom::Vec3f& v, int axis) {
  return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
}
int& axis_of(geom::IVec3& v, int axis) {
  return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
}

TEST(Datapath, DriftAcrossEachFaceShiftsOneCell) {
  const Datapath dp = exact_datapath();
  const std::uint32_t mid = 2 * kOne + kOne / 2;
  for (int axis = 0; axis < 3; ++axis) {
    for (const int dir : {-1, 1}) {
      // One raw step from the face being crossed: 3·kOne − 1 is the top
      // offset of the home cell (RCID 2), 2·kOne its bottom.
      const std::uint32_t face = dir > 0 ? 3 * kOne - 1 : 2 * kOne;
      const std::uint32_t landing = dir > 0 ? 2 * kOne : 3 * kOne - 1;
      geom::Vec3f vel{};
      axis_of(vel, axis) = static_cast<float>(dir) * kOneStep;

      std::uint32_t start[3] = {mid, mid, mid};
      start[axis] = face;
      const Motion out = dp.motion_update(raw3(start[0], start[1], start[2]),
                                          vel, {}, 0);
      geom::IVec3 shift{};
      axis_of(shift, axis) = dir;
      EXPECT_EQ(out.shift, shift) << "axis " << axis << " dir " << dir;
      std::uint32_t expected[3] = {mid, mid, mid};
      expected[axis] = landing;
      EXPECT_EQ(out.pos, raw3(expected[0], expected[1], expected[2]))
          << "axis " << axis << " dir " << dir;
      EXPECT_EQ(out.vel, vel);

      // One step further inside, the same drift lands on the face and the
      // particle stays home.
      start[axis] = face - static_cast<std::uint32_t>(dir);
      const Motion home = dp.motion_update(
          raw3(start[0], start[1], start[2]), vel, {}, 0);
      EXPECT_EQ(home.shift, (geom::IVec3{0, 0, 0}));
      expected[axis] = face;
      EXPECT_EQ(home.pos, raw3(expected[0], expected[1], expected[2]));
    }
  }
}

TEST(Datapath, ZeroVelocityLeavesParticleBitIdentical) {
  const Datapath dp = exact_datapath();
  for (const fixed::FixedVec3& pos :
       {raw3(2 * kOne, 2 * kOne, 2 * kOne),
        raw3(3 * kOne - 1, 3 * kOne - 1, 3 * kOne - 1),
        raw3(2 * kOne + 12345, 3 * kOne - 7, 2 * kOne + kOne / 3)}) {
    const Motion out = dp.motion_update(pos, {}, {}, 0);
    EXPECT_EQ(out.pos, pos);
    EXPECT_EQ(out.shift, (geom::IVec3{0, 0, 0}));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out.vel.x), 0u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out.vel.y), 0u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out.vel.z), 0u);
  }
}

TEST(Datapath, MotionUpdateLeavesItsInputForARetry) {
  // A CBB whose migration stalls on a full MU ring retries next cycle from
  // the particle as stored: the kernel must not touch it, and the retry
  // must produce the same update.
  const Datapath dp = exact_datapath();
  const fixed::FixedVec3 pos0 = raw3(3 * kOne - 1, 2 * kOne, 2 * kOne + 77);
  const geom::Vec3f vel0{kOneStep, -0.25f, 0.0f};
  const geom::Vec3f force0{1.5f, -2.0f, 0.75f};
  fixed::FixedVec3 pos = pos0;
  geom::Vec3f vel = vel0;
  geom::Vec3f force = force0;
  const Motion first = dp.motion_update(pos, vel, force, 0);
  const Motion retry = dp.motion_update(pos, vel, force, 0);
  EXPECT_EQ(pos, pos0);
  EXPECT_EQ(vel, vel0);
  EXPECT_EQ(force, force0);
  EXPECT_NE(first.shift, (geom::IVec3{0, 0, 0}));
  EXPECT_EQ(retry.pos, first.pos);
  EXPECT_EQ(retry.vel, first.vel);
  EXPECT_EQ(retry.shift, first.shift);
}

TEST(Datapath, RebaseMovesTheRcidOneCellPerStep) {
  const fixed::FixedVec3 p = raw3(2 * kOne + 5, 2 * kOne + kOne / 2, 3 * kOne - 1);
  for (const int d : {-1, 0, 1}) {
    const fixed::FixedVec3 q = rebase(p, {d, d, d});
    const auto shifted = [&](fixed::FixedCoord c) {
      return static_cast<std::uint32_t>(static_cast<std::int64_t>(c.raw()) +
                                        d * std::int64_t{kOne});
    };
    EXPECT_EQ(q.x.raw(), shifted(p.x));
    EXPECT_EQ(q.y.raw(), shifted(p.y));
    EXPECT_EQ(q.z.raw(), shifted(p.z));
    EXPECT_EQ(q.x.rcid(), 2 + d);
    EXPECT_EQ(q.z.rcid(), 2 + d);
  }
  const fixed::FixedVec3 mixed = rebase(p, {-1, 0, 1});
  EXPECT_EQ(mixed, raw3(kOne + 5, 2 * kOne + kOne / 2, 4 * kOne - 1));
}

TEST(Datapath, EncodeDecodeRoundTripsOnTheGrid) {
  const geom::CellGrid grid({3, 4, 5}, 8.0);
  // Positions on the Q2.28 grid (multiples of 8·2^-28 Å) come back exactly.
  const geom::Vec3d r{(1 + 12345.0 / kOne) * 8.0, 3 * 8.0,
                      (4 + (kOne - 1.0) / kOne) * 8.0};
  const CellPosition cp = encode(grid, r);
  EXPECT_EQ(cp.cell, (geom::IVec3{1, 3, 4}));
  EXPECT_EQ(cp.pos, raw3(2 * kOne + 12345, 2 * kOne, 3 * kOne - 1));
  EXPECT_EQ(decode(cp.cell, cp.pos, 8.0), r);

  // Out-of-box positions wrap into the box first.
  const CellPosition wrapped = encode(grid, {-4.0, 4 * 8.0 + 4.0, 0.0});
  EXPECT_EQ(wrapped.cell, (geom::IVec3{2, 0, 0}));
  EXPECT_EQ(wrapped.pos,
            raw3(2 * kOne + kOne / 2, 2 * kOne + kOne / 2, 2 * kOne));

  // An in-cell fraction that rounds up to a whole cell is clamped to the
  // top offset of its own cell (from_cell_offset), never carried over.
  const CellPosition edge = encode(grid, {16.0 - 0x1p-27, 8.0, 8.0});
  EXPECT_EQ(edge.cell, (geom::IVec3{1, 1, 1}));
  EXPECT_EQ(edge.pos.x.raw(), 3 * kOne - 1);
  EXPECT_EQ(decode(edge.cell, edge.pos, 8.0).x, 16.0 - 8.0 * 0x1p-28);
}

}  // namespace
}  // namespace fasda::md
