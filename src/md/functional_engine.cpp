#include "fasda/md/functional_engine.hpp"

#include <cmath>
#include <stdexcept>

#include "fasda/interp/ewald.hpp"
#include "fasda/md/energy.hpp"

namespace fasda::md {

FunctionalEngine::FunctionalEngine(const SystemState& state, ForceField ff,
                                   const FunctionalConfig& config)
    : ff_(std::move(ff)),
      grid_(state.cell_dims, state.cell_size),
      config_(config),
      datapath_(ff_, config.cutoff, config.table, config.terms, config.dt,
                grid_.cell_size()),
      table12_(interp::InterpTable::build_r_pow(12, config.table)),
      table6_(interp::InterpTable::build_r_pow(6, config.table)),
      table_ew_energy_(
          config.terms.ewald_real
              ? interp::build_ewald_energy_table(
                    config.terms.ewald_beta * config.cutoff, config.table)
              : interp::InterpTable::build_r_pow(2, config.table)),
      energy_coeffs_(ff_.energy_coeff_table(config.cutoff)),
      ewald_energy_coeffs_(ff_.ewald_energy_coeff_table(config.cutoff)),
      num_elements_(ff_.num_elements()),
      num_particles_(state.size()),
      pool_(config.threads) {
  if (std::abs(state.cell_size - config.cutoff) > 1e-9) {
    throw std::invalid_argument(
        "FunctionalEngine requires cell_size == cutoff: the hardware "
        "normalizes R_c to one cell edge (§3.4)");
  }
  check_elements(state, ff_);

  cells_.resize(grid_.num_cells());
  for (std::size_t i = 0; i < state.size(); ++i) {
    const CellPosition cp = encode(grid_, state.positions[i]);
    Slot slot;
    slot.pos = cp.pos;
    slot.vel = state.velocities[i].cast<float>();
    slot.elem = state.elements[i];
    slot.id = static_cast<std::uint32_t>(i);
    cells_[grid_.cid(cp.cell)].push_back(slot);
  }
  worker_pair_counts_.resize(pool_.size(), 0);
}

template <class Fn>
void FunctionalEngine::for_each_shell_pair(std::size_t cell, Fn&& fn) const {
  const auto& home = cells_[cell];
  const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
  for (std::size_t a = 0; a < home.size(); ++a) {
    for (std::size_t b = 0; b < home.size(); ++b) {
      if (a != b) fn(a, home[b].pos, home[b].elem, a < b);
    }
  }
  for (const geom::IVec3& d : geom::full_shell_offsets()) {
    const auto& nbr = cells_[grid_.cid(grid_.wrap(hc + d))];
    const bool forward = geom::is_forward_offset(d);
    for (const Slot& j : nbr) {
      const fixed::FixedVec3 j_pos = rebase(j.pos, d);
      for (std::size_t a = 0; a < home.size(); ++a) {
        fn(a, j_pos, j.elem, forward);
      }
    }
  }
}

std::size_t FunctionalEngine::evaluate_cell_forces(std::size_t cell) {
  auto& home = cells_[cell];
  for (auto& slot : home) slot.force = {};
  // Full shell: each unordered pair contributes once to each particle.
  std::size_t pairs = 0;
  for_each_shell_pair(cell, [&](std::size_t a, const fixed::FixedVec3& j_pos,
                                ElementId j_elem, bool owned) {
    Slot& i = home[a];
    const std::uint64_t r2q = fixed::r2_fixed(i.pos, j_pos);
    if (!datapath_.filter(r2q)) return;
    i.force += datapath_.pair_force(r2q, i.pos, i.elem, j_pos, j_elem);
    if (owned) ++pairs;
  });
  return pairs;
}

void FunctionalEngine::evaluate_forces() {
  std::fill(worker_pair_counts_.begin(), worker_pair_counts_.end(), 0);
  pool_.parallel_for(
      cells_.size(), [&](std::size_t worker, std::size_t begin, std::size_t end) {
        std::size_t pairs = 0;
        for (std::size_t cell = begin; cell < end; ++cell) {
          pairs += evaluate_cell_forces(cell);
        }
        worker_pair_counts_[worker] = pairs;
      });
  last_pair_count_ = 0;
  for (const std::size_t c : worker_pair_counts_) last_pair_count_ += c;
}

void FunctionalEngine::motion_update() {
  std::vector<std::pair<geom::CellId, Slot>> migrations;
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    auto& slots = cells_[cell];
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    for (std::size_t s = 0; s < slots.size();) {
      Slot& slot = slots[s];
      const Motion m =
          datapath_.motion_update(slot.pos, slot.vel, slot.force, slot.elem);
      slot.pos = m.pos;
      slot.vel = m.vel;
      if (m.shift == geom::IVec3{0, 0, 0}) {
        ++s;
        continue;
      }
      // Migration: the MU ring routes the particle to its new home cell.
      migrations.emplace_back(grid_.cid(grid_.wrap(hc + m.shift)), slot);
      slots[s] = slots.back();
      slots.pop_back();
    }
  }
  for (auto& [dest, slot] : migrations) cells_[dest].push_back(slot);
}

void FunctionalEngine::step(int n) {
  for (int it = 0; it < n; ++it) {
    evaluate_forces();
    motion_update();
  }
}

SystemState FunctionalEngine::state() const {
  SystemState out;
  out.cell_dims = grid_.dims();
  out.cell_size = grid_.cell_size();
  out.positions.resize(num_particles_);
  out.velocities.resize(num_particles_);
  out.elements.resize(num_particles_);
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    for (const Slot& slot : cells_[cell]) {
      out.positions[slot.id] = decode(hc, slot.pos, grid_.cell_size());
      out.velocities[slot.id] = slot.vel.cast<double>();
      out.elements[slot.id] = slot.elem;
    }
  }
  return out;
}

double FunctionalEngine::potential_energy() const {
  return compute_potential_energy(state(), ff_, config_.cutoff,
                                  config_.terms);
}

double FunctionalEngine::total_energy() const {
  const SystemState s = state();
  return compute_potential_energy(s, ff_, config_.cutoff, config_.terms) +
         kinetic_energy(s, ff_);
}

double FunctionalEngine::interp_potential_energy() const {
  double pe = 0.0;  // halved double-count of float32 pair terms
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const auto& home = cells_[cell];
    float cell_pe = 0.0f;
    for_each_shell_pair(cell, [&](std::size_t a, const fixed::FixedVec3& j_pos,
                                  ElementId j_elem, bool) {
      const Slot& i = home[a];
      const std::uint64_t r2q = fixed::r2_fixed(i.pos, j_pos);
      if (!datapath_.filter(r2q)) return;
      const float r2 = fixed::r2_to_float(r2q);
      const interp::TableIndex idx = table12_.index_of(r2);
      if (config_.terms.lj) {
        const PairEnergyCoeffs& k =
            energy_coeffs_[i.elem * num_elements_ + j_elem];
        cell_pe +=
            k.e12 * table12_.eval(r2, idx) - k.e6 * table6_.eval(r2, idx);
      }
      if (config_.terms.ewald_real) {
        cell_pe += ewald_energy_coeffs_[i.elem * num_elements_ + j_elem] *
                   table_ew_energy_.eval(r2, idx);
      }
    });
    pe += static_cast<double>(cell_pe);
  }
  return pe / 2.0;
}

std::vector<geom::Vec3f> FunctionalEngine::forces_by_particle() const {
  std::vector<geom::Vec3f> out(num_particles_);
  for (const auto& cell : cells_) {
    for (const Slot& slot : cell) out[slot.id] = slot.force;
  }
  return out;
}

}  // namespace fasda::md
