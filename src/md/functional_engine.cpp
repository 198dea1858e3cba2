#include "fasda/md/functional_engine.hpp"

#include <cmath>
#include <stdexcept>

#include "fasda/interp/ewald.hpp"
#include "fasda/md/energy.hpp"

namespace fasda::md {

namespace {

/// Re-expresses an in-cell offset (RCID = 2) in a frame displaced by
/// `dcells` cells along one axis: RCID becomes 2 + dcells ∈ {1,2,3}.
fixed::FixedCoord rebase(fixed::FixedCoord c, int dcells) {
  return fixed::FixedCoord::from_raw(
      c.raw() + static_cast<std::uint32_t>(dcells * static_cast<int>(
                                                        fixed::FixedCoord::kOne)));
}

fixed::FixedVec3 rebase(const fixed::FixedVec3& p, const geom::IVec3& d) {
  return {rebase(p.x, d.x), rebase(p.y, d.y), rebase(p.z, d.z)};
}

}  // namespace

FunctionalEngine::FunctionalEngine(const SystemState& state, ForceField ff,
                                   const FunctionalConfig& config)
    : ff_(std::move(ff)),
      grid_(state.cell_dims, state.cell_size),
      config_(config),
      table14_(interp::InterpTable::build_r_pow(14, config.table)),
      table8_(interp::InterpTable::build_r_pow(8, config.table)),
      table12_(interp::InterpTable::build_r_pow(12, config.table)),
      table6_(interp::InterpTable::build_r_pow(6, config.table)),
      table_ew_force_(
          config.terms.ewald_real
              ? interp::build_ewald_force_table(
                    config.terms.ewald_beta * config.cutoff, config.table)
              : interp::InterpTable::build_r_pow(2, config.table)),
      table_ew_energy_(
          config.terms.ewald_real
              ? interp::build_ewald_energy_table(
                    config.terms.ewald_beta * config.cutoff, config.table)
              : interp::InterpTable::build_r_pow(2, config.table)),
      force_coeffs_(ff_.force_coeff_table(config.cutoff)),
      energy_coeffs_(ff_.energy_coeff_table(config.cutoff)),
      ewald_force_coeffs_(ff_.ewald_force_coeff_table(config.cutoff)),
      ewald_energy_coeffs_(ff_.ewald_energy_coeff_table(config.cutoff)),
      num_elements_(ff_.num_elements()),
      num_particles_(state.size()),
      pool_(config.threads) {
  if (std::abs(state.cell_size - config.cutoff) > 1e-9) {
    throw std::invalid_argument(
        "FunctionalEngine requires cell_size == cutoff: the hardware "
        "normalizes R_c to one cell edge (§3.4)");
  }

  cells_.resize(grid_.num_cells());
  for (std::size_t i = 0; i < state.size(); ++i) {
    const geom::Vec3d p = grid_.wrap_position(state.positions[i]);
    const geom::IVec3 c = grid_.cell_of(p);
    const double inv = 1.0 / grid_.cell_size();
    Slot slot;
    slot.pos = {fixed::FixedCoord::from_cell_offset(2, p.x * inv - c.x),
                fixed::FixedCoord::from_cell_offset(2, p.y * inv - c.y),
                fixed::FixedCoord::from_cell_offset(2, p.z * inv - c.z)};
    slot.vel = state.velocities[i].cast<float>();
    slot.elem = state.elements[i];
    slot.id = static_cast<std::uint32_t>(i);
    cells_[grid_.cid(c)].push_back(slot);
  }
  worker_pair_counts_.resize(pool_.size(), 0);
}

std::size_t FunctionalEngine::evaluate_cell_forces(std::size_t cell) {
  auto& home = cells_[cell];
  const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
  // Exclusion threshold in Q6.56 (the bottom of the interpolation table).
  const std::uint64_t min_r2q =
      fixed::kR2One >> config_.table.num_sections;

  for (auto& slot : home) slot.force = {};

  auto accumulate = [&](Slot& i, const fixed::FixedVec3& j_pos,
                        ElementId j_elem) -> bool {
    const std::uint64_t r2q = fixed::r2_fixed(i.pos, j_pos);
    if (r2q >= fixed::kR2One || r2q < min_r2q) return false;
    const float r2 = fixed::r2_to_float(r2q);
    // Every table shares config_.table, so one index serves them all.
    const interp::TableIndex idx = table14_.index_of(r2);
    float magnitude = 0.0f;
    if (config_.terms.lj) {
      const PairForceCoeffs& k =
          force_coeffs_[i.elem * num_elements_ + j_elem];
      magnitude +=
          k.c14 * table14_.eval(r2, idx) - k.c8 * table8_.eval(r2, idx);
    }
    if (config_.terms.ewald_real) {
      magnitude += ewald_force_coeffs_[i.elem * num_elements_ + j_elem] *
                   table_ew_force_.eval(r2, idx);
    }
    const geom::Vec3f u = fixed::displacement_to_float(i.pos, j_pos);
    i.force += u * magnitude;
    return true;
  };

  std::size_t pairs = 0;
  // Home-cell pairs: both orderings are evaluated (full shell), so each
  // unordered pair contributes once to each particle.
  for (std::size_t a = 0; a < home.size(); ++a) {
    for (std::size_t b = 0; b < home.size(); ++b) {
      if (a == b) continue;
      if (accumulate(home[a], home[b].pos, home[b].elem) && a < b) ++pairs;
    }
  }
  // All 26 neighbour cells; particle j is rebased into this cell's frame
  // exactly as the RCID conversion does on arrival (§4.2).
  for (const geom::IVec3& d : geom::full_shell_offsets()) {
    const geom::IVec3 nc = grid_.wrap(hc + d);
    const auto& nbr = cells_[grid_.cid(nc)];
    const bool forward = geom::is_forward_offset(d);
    for (const Slot& j : nbr) {
      const fixed::FixedVec3 j_pos = rebase(j.pos, d);
      for (Slot& i : home) {
        if (accumulate(i, j_pos, j.elem) && forward) ++pairs;
      }
    }
  }
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
  const float dt = static_cast<float>(config_.dt);
  const double inv_cell = 1.0 / grid_.cell_size();
  std::vector<std::pair<geom::CellId, Slot>> migrations;

  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    auto& slots = cells_[cell];
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    for (std::size_t s = 0; s < slots.size();) {
      Slot& slot = slots[s];
      const float inv_mass =
          static_cast<float>(1.0 / ff_.element(slot.elem).mass);
      slot.vel += slot.force * (dt * inv_mass);

      // Position delta quantized straight onto the fixed-point grid, per
      // axis; the MU adds it as an integer so tiny deltas never round away
      // against a large float mantissa.
      geom::IVec3 shift{};
      auto advance = [&](fixed::FixedCoord& c, float v, int& shift_c) {
        const double delta_cells = static_cast<double>(v) * dt * inv_cell;
        const auto delta_q = static_cast<std::int64_t>(
            std::llround(delta_cells * fixed::FixedCoord::kOne));
        std::int64_t raw = static_cast<std::int64_t>(c.raw()) + delta_q;
        const std::int64_t one = fixed::FixedCoord::kOne;
        shift_c = static_cast<int>(raw >> fixed::FixedCoord::kFracBits) - 2;
        raw -= static_cast<std::int64_t>(shift_c) * one;
        c = fixed::FixedCoord::from_raw(static_cast<std::uint32_t>(raw));
      };
      advance(slot.pos.x, slot.vel.x, shift.x);
      advance(slot.pos.y, slot.vel.y, shift.y);
      advance(slot.pos.z, slot.vel.z, shift.z);

      if (shift == geom::IVec3{0, 0, 0}) {
        ++s;
        continue;
      }
      // Migration: the MU ring routes the particle to its new home cell.
      const geom::CellId dest = grid_.cid(grid_.wrap(hc + shift));
      migrations.emplace_back(dest, slot);
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
      out.positions[slot.id] = {(hc.x + slot.pos.x.frac()) * grid_.cell_size(),
                                (hc.y + slot.pos.y.frac()) * grid_.cell_size(),
                                (hc.z + slot.pos.z.frac()) * grid_.cell_size()};
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
  const std::uint64_t min_r2q = fixed::kR2One >> config_.table.num_sections;
  double pe = 0.0;  // halved double-count of float32 pair terms
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    const auto& home = cells_[cell];
    const geom::IVec3 hc = grid_.coords(static_cast<geom::CellId>(cell));
    float cell_pe = 0.0f;

    auto pair_energy = [&](const Slot& i, const fixed::FixedVec3& j_pos,
                           ElementId j_elem) {
      const std::uint64_t r2q = fixed::r2_fixed(i.pos, j_pos);
      if (r2q >= fixed::kR2One || r2q < min_r2q) return;
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
    };

    for (std::size_t a = 0; a < home.size(); ++a) {
      for (std::size_t b = 0; b < home.size(); ++b) {
        if (a != b) pair_energy(home[a], home[b].pos, home[b].elem);
      }
    }
    for (const geom::IVec3& d : geom::full_shell_offsets()) {
      const auto& nbr = cells_[grid_.cid(grid_.wrap(hc + d))];
      for (const Slot& j : nbr) {
        const fixed::FixedVec3 j_pos = rebase(j.pos, d);
        for (const Slot& i : home) pair_energy(i, j_pos, j.elem);
      }
    }
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
