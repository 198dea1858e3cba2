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
  cell_particles_.resize(grid_.num_cells());
  forces_.resize(state_.size());
  worker_forces_.resize(pool_.size());
  for (auto& buf : worker_forces_) buf.resize(state_.size());
  worker_pair_counts_.resize(pool_.size(), 0);
}

void ReferenceEngine::rebuild_cells() {
  for (auto& cell : cell_particles_) cell.clear();
  for (std::size_t i = 0; i < state_.size(); ++i) {
    const geom::IVec3 c = grid_.cell_of(state_.positions[i]);
    cell_particles_[grid_.cid(c)].push_back(static_cast<std::uint32_t>(i));
  }
}

void ReferenceEngine::compute_forces() {
  const std::size_t num_cells = cell_particles_.size();
  const auto half_shell = geom::half_shell_offsets();

  pool_.parallel_for(num_cells, [&](std::size_t worker, std::size_t begin,
                                    std::size_t end) {
    auto& f = worker_forces_[worker];
    std::fill(f.begin(), f.end(), geom::Vec3d{});
    std::size_t pairs = 0;

    for (std::size_t cell = begin; cell < end; ++cell) {
      const auto& home = cell_particles_[cell];
      const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));

      // Home-cell pairs (i < j).
      for (std::size_t a = 0; a < home.size(); ++a) {
        const std::uint32_t i = home[a];
        for (std::size_t b = a + 1; b < home.size(); ++b) {
          const std::uint32_t j = home[b];
          const geom::Vec3d dr =
              grid_.min_image(state_.positions[j], state_.positions[i]);
          const double r2 = dr.norm2();
          if (r2 >= cutoff2_) continue;
          const geom::Vec3d fij = ff_.pair_force(dr, state_.elements[i],
                                                 state_.elements[j], terms_);
          f[i] += fij;
          f[j] -= fij;
          ++pairs;
        }
      }

      // Forward half-shell neighbour cells (Newton's third law: the backward
      // half is covered when those cells run this loop).
      for (const geom::IVec3& d : half_shell) {
        const geom::IVec3 nc = grid_.wrap(hc + d);
        const auto& nbr = cell_particles_[grid_.cid(nc)];
        for (const std::uint32_t i : home) {
          for (const std::uint32_t j : nbr) {
            const geom::Vec3d dr =
                grid_.min_image(state_.positions[j], state_.positions[i]);
            const double r2 = dr.norm2();
            if (r2 >= cutoff2_) continue;
            const geom::Vec3d fij = ff_.pair_force(dr, state_.elements[i],
                                                   state_.elements[j], terms_);
            f[i] += fij;
            f[j] -= fij;
            ++pairs;
          }
        }
      }
    }
    worker_pair_counts_[worker] = pairs;
  });

  // Parallel reduction across worker buffers.
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
  const double radius = std::sqrt(cutoff2_) + neighbors_.skin;
  const double radius2 = radius * radius;
  const int reach =
      static_cast<int>(std::ceil(radius / state_.cell_size - 1e-12));

  rebuild_cells();
  verlet_.assign(state_.size(), {});

  // In a periodic box too small for the list radius the offset enumeration
  // would double-count wrapped cells; fall back to all-pairs construction.
  const geom::IVec3 dims = grid_.dims();
  if (2 * reach + 1 > std::min({dims.x, dims.y, dims.z})) {
    for (std::uint32_t i = 0; i < state_.size(); ++i) {
      for (std::uint32_t j = i + 1; j < state_.size(); ++j) {
        if (grid_.min_image(state_.positions[i], state_.positions[j]).norm2() <
            radius2) {
          verlet_[i].push_back(j);
        }
      }
    }
    list_positions_ = state_.positions;
    ++list_rebuilds_;
    return;
  }

  std::vector<geom::IVec3> offsets;
  for (int dx = -reach; dx <= reach; ++dx) {
    for (int dy = -reach; dy <= reach; ++dy) {
      for (int dz = -reach; dz <= reach; ++dz) {
        const geom::IVec3 d{dx, dy, dz};
        if (d == geom::IVec3{0, 0, 0}) continue;
        if (geom::is_forward_offset(d)) offsets.push_back(d);
      }
    }
  }

  for (int cell = 0; cell < grid_.num_cells(); ++cell) {
    const auto& home = cell_particles_[cell];
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    for (std::size_t a = 0; a < home.size(); ++a) {
      for (std::size_t b = a + 1; b < home.size(); ++b) {
        const std::uint32_t i = std::min(home[a], home[b]);
        const std::uint32_t j = std::max(home[a], home[b]);
        if (grid_.min_image(state_.positions[i], state_.positions[j]).norm2() <
            radius2) {
          verlet_[i].push_back(j);
        }
      }
    }
    for (const geom::IVec3& d : offsets) {
      const auto& nbr = cell_particles_[grid_.cid(grid_.wrap(hc + d))];
      for (const std::uint32_t p : home) {
        for (const std::uint32_t q : nbr) {
          const std::uint32_t i = std::min(p, q);
          const std::uint32_t j = std::max(p, q);
          if (grid_.min_image(state_.positions[i], state_.positions[j])
                  .norm2() < radius2) {
            verlet_[i].push_back(j);
          }
        }
      }
    }
  }
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

void ReferenceEngine::step(int n) {
  for (int it = 0; it < n; ++it) {
    if (neighbors_.use_verlet_list) {
      if (!verlet_list_valid()) rebuild_verlet_list();
      compute_forces_from_list();
      pool_.parallel_for(state_.size(), [&](std::size_t, std::size_t begin,
                                            std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double m = ff_.element(state_.elements[i]).mass;
          state_.velocities[i] += forces_[i] * (dt_ / m);
          state_.positions[i] = grid_.wrap_position(
              state_.positions[i] + state_.velocities[i] * dt_);
        }
      });
      continue;
    }
    rebuild_cells();
    compute_forces();
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
  rebuild_cells();
  const auto half_shell = geom::half_shell_offsets();
  std::vector<double> partial(pool_.size(), 0.0);

  pool_.parallel_for(cell_particles_.size(), [&](std::size_t worker,
                                                 std::size_t begin,
                                                 std::size_t end) {
    double pe = 0.0;
    for (std::size_t cell = begin; cell < end; ++cell) {
      const auto& home = cell_particles_[cell];
      const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
      for (std::size_t a = 0; a < home.size(); ++a) {
        for (std::size_t b = a + 1; b < home.size(); ++b) {
          const std::uint32_t i = home[a];
          const std::uint32_t j = home[b];
          const double r2 =
              grid_.min_image(state_.positions[j], state_.positions[i]).norm2();
          if (r2 < cutoff2_) {
            pe += ff_.pair_energy(r2, state_.elements[i], state_.elements[j],
                                  terms_);
          }
        }
      }
      for (const geom::IVec3& d : half_shell) {
        const auto& nbr = cell_particles_[grid_.cid(grid_.wrap(hc + d))];
        for (const std::uint32_t i : home) {
          for (const std::uint32_t j : nbr) {
            const double r2 =
                grid_.min_image(state_.positions[j], state_.positions[i]).norm2();
            if (r2 < cutoff2_) {
              pe += ff_.pair_energy(r2, state_.elements[i], state_.elements[j],
                                    terms_);
            }
          }
        }
      }
    }
    partial[worker] += pe;
  });

  double pe = 0.0;
  for (double p : partial) pe += p;
  return pe;
}

}  // namespace fasda::md
