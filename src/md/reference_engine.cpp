#include "fasda/md/reference_engine.hpp"

#include <algorithm>
#include <cmath>

namespace fasda::md {

ReferenceEngine::ReferenceEngine(SystemState state, ForceField ff, double cutoff,
                                 double dt, std::size_t threads,
                                 ForceTerms terms, NeighborPolicy neighbors)
    : state_(std::move(state)),
      ff_(std::move(ff)),
      grid_(state_.cell_dims, state_.cell_size),
      cutoff2_(cutoff * cutoff),
      dt_(dt),
      terms_(terms),
      pool_(threads),
      neighbors_(neighbors) {
  check_elements(state_, ff_);
  forces_.resize(state_.size());
  worker_forces_.resize(pool_.size());
  for (auto& buf : worker_forces_) buf.resize(state_.size());
  worker_pair_counts_.resize(pool_.size(), 0);
}

void ReferenceEngine::compute_forces() {
  bins_.build(grid_, state_.positions);
  const auto half_shell = geom::half_shell_offsets();
  pool_.parallel_for(static_cast<std::size_t>(grid_.num_cells()),
                     [&](std::size_t worker, std::size_t begin,
                         std::size_t end) {
    auto& f = worker_forces_[worker];
    std::fill(f.begin(), f.end(), geom::Vec3d{});
    std::size_t pairs = 0;
    // Home-cell pairs and the forward half shell (Newton's third law: the
    // backward half is covered when those cells run this loop).
    walk_cells(grid_, bins_, half_shell, cutoff2_, begin, end,
               [&](std::uint32_t i, std::uint32_t j, const geom::Vec3d& dr,
                   double) {
                 const geom::Vec3d fij = ff_.pair_force(
                     dr, state_.elements[i], state_.elements[j], terms_);
                 f[i] += fij;
                 f[j] -= fij;
                 ++pairs;
               });
    worker_pair_counts_[worker] = pairs;
  });
  reduce_forces();
}

void ReferenceEngine::reduce_forces() {
  pool_.parallel_for(state_.size(), [&](std::size_t, std::size_t begin,
                                        std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      geom::Vec3d sum{};
      for (const auto& buf : worker_forces_) sum += buf[i];
      forces_[i] = sum;
    }
  });

  last_pair_count_ = 0;
  for (std::size_t p = 0; p < pool_.size(); ++p) {
    last_pair_count_ += worker_pair_counts_[p];
    worker_pair_counts_[p] = 0;
  }
}

void ReferenceEngine::rebuild_verlet_list() {
  verlet_.assign(state_.size(), {});
  for_each_pair_within(grid_, state_.positions,
                       std::sqrt(cutoff2_) + neighbors_.skin, bins_,
                       [&](std::uint32_t i, std::uint32_t j,
                           const geom::Vec3d&, double) {
                         verlet_[std::min(i, j)].push_back(std::max(i, j));
                       });
  list_positions_ = state_.positions;
  ++list_rebuilds_;
}

bool ReferenceEngine::verlet_list_valid() const {
  if (list_positions_.size() != state_.size()) return false;
  const double limit2 = 0.25 * neighbors_.skin * neighbors_.skin;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (grid_.min_image(list_positions_[i], state_.positions[i]).norm2() >
        limit2) {
      return false;
    }
  }
  return true;
}

void ReferenceEngine::compute_forces_from_list() {
  pool_.parallel_for(state_.size(), [&](std::size_t worker, std::size_t begin,
                                        std::size_t end) {
    auto& f = worker_forces_[worker];
    std::fill(f.begin(), f.end(), geom::Vec3d{});
    std::size_t pairs = 0;
    for (std::size_t i = begin; i < end; ++i) {
      for (const std::uint32_t j : verlet_[i]) {
        const geom::Vec3d dr =
            grid_.min_image(state_.positions[j], state_.positions[i]);
        const double r2 = dr.norm2();
        if (r2 >= cutoff2_) continue;
        const geom::Vec3d fij =
            ff_.pair_force(dr, state_.elements[i], state_.elements[j], terms_);
        f[i] += fij;
        f[j] -= fij;
        ++pairs;
      }
    }
    worker_pair_counts_[worker] = pairs;
  });
  reduce_forces();
}

void ReferenceEngine::step(int n) {
  for (int it = 0; it < n; ++it) {
    if (neighbors_.use_verlet_list) {
      if (!verlet_list_valid()) rebuild_verlet_list();
      compute_forces_from_list();
    } else {
      compute_forces();
    }
    pool_.parallel_for(state_.size(), [&](std::size_t, std::size_t begin,
                                          std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const double m = ff_.element(state_.elements[i]).mass;
        state_.velocities[i] += forces_[i] * (dt_ / m);
        state_.positions[i] = grid_.wrap_position(
            state_.positions[i] + state_.velocities[i] * dt_);
      }
    });
  }
}

double ReferenceEngine::potential_energy() {
  bins_.build(grid_, state_.positions);
  const auto half_shell = geom::half_shell_offsets();
  std::vector<double> partial(pool_.size(), 0.0);
  pool_.parallel_for(static_cast<std::size_t>(grid_.num_cells()),
                     [&](std::size_t worker, std::size_t begin,
                         std::size_t end) {
    double pe = 0.0;
    walk_cells(grid_, bins_, half_shell, cutoff2_, begin, end,
               [&](std::uint32_t i, std::uint32_t j, const geom::Vec3d&,
                   double r2) {
                 pe += ff_.pair_energy(r2, state_.elements[i],
                                       state_.elements[j], terms_);
               });
    partial[worker] += pe;
  });

  double pe = 0.0;
  for (double p : partial) pe += p;
  return pe;
}

}  // namespace fasda::md
