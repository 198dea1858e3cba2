#pragma once
// Double-precision multithreaded range-limited MD engine: the in-repo
// stand-in for "OpenMM with only the LJ force field" (§5.1). Used both as
// the numerical ground truth for Fig. 19 and as the measured CPU series of
// Fig. 16.
//
// Algorithm per timestep (matching the paper's FPGA workflow, Fig. 4):
//   1. rebuild the cell list (the paper recomputes neighbour lists every
//      timestep, so there is no Verlet-list margin),
//   2. evaluate LJ forces over home-cell pairs and the 13 forward half-shell
//      neighbour cells (Newton's third law),
//   3. leapfrog motion update: v += F/m·Δt, x += v·Δt, wrap periodically.
//
// Threading: cells are split across a persistent thread pool; each worker
// accumulates into its own force buffer and buffers are reduced in parallel.
// The reduction traffic grows with thread count, which is the same
// communication-versus-computation tradeoff that limits CPU strong scaling
// in the paper's measurements.

#include <cstddef>
#include <vector>

#include "fasda/md/pair_walk.hpp"
#include "fasda/md/system_state.hpp"
#include "fasda/util/thread_pool.hpp"

namespace fasda::md {

/// Software neighbour-list policy. The FPGA recomputes neighbour lists
/// every timestep (§2.2: "the usual benefit for having a margin does not
/// apply"), which is what kCellListEveryStep models; kVerletList adds the
/// classic skin margin so the pair list survives several steps — the
/// optimization CPU packages like OpenMM rely on.
struct NeighborPolicy {
  bool use_verlet_list = false;
  double skin = 1.0;  ///< Å; list radius = cutoff + skin
};

class ReferenceEngine {
 public:
  /// `cutoff` in Å (forces beyond it are zero); `dt` in fs; `threads` sizes
  /// the persistent pool; `terms` selects the RL components (default: LJ
  /// only, matching the paper's evaluation).
  ReferenceEngine(SystemState state, ForceField ff, double cutoff, double dt,
                  std::size_t threads = 1, ForceTerms terms = {},
                  NeighborPolicy neighbors = {});

  /// Advances `n` timesteps.
  void step(int n = 1);

  const SystemState& state() const { return state_; }
  const ForceField& force_field() const { return ff_; }
  const std::vector<geom::Vec3d>& forces() const { return forces_; }

  /// Potential energy (internal units) of the current configuration with the
  /// engine's cutoff, recomputed in double precision.
  double potential_energy();

  double kinetic() const { return kinetic_energy(state_, ff_); }
  double total_energy() { return potential_energy() + kinetic(); }

  /// Number of pairs that passed the cutoff in the last force evaluation;
  /// used by filter-acceptance property tests.
  std::size_t last_pair_count() const { return last_pair_count_; }

  /// Verlet-list rebuilds performed so far (0 when the policy is off).
  std::size_t list_rebuilds() const { return list_rebuilds_; }

 private:
  void compute_forces();
  void reduce_forces();
  void rebuild_verlet_list();
  bool verlet_list_valid() const;
  void compute_forces_from_list();

  SystemState state_;
  ForceField ff_;
  geom::CellGrid grid_;
  double cutoff2_;
  double dt_;
  ForceTerms terms_;
  util::ThreadPool pool_;

  CellBins bins_;
  std::vector<geom::Vec3d> forces_;
  std::vector<std::vector<geom::Vec3d>> worker_forces_;
  std::vector<std::size_t> worker_pair_counts_;
  std::size_t last_pair_count_ = 0;

  // Verlet-list state (unused when the policy is off).
  NeighborPolicy neighbors_;
  std::vector<std::vector<std::uint32_t>> verlet_;  ///< i -> partners j > i
  std::vector<geom::Vec3d> list_positions_;  ///< positions at last rebuild
  std::size_t list_rebuilds_ = 0;
};

}  // namespace fasda::md
