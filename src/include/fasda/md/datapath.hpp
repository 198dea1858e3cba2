#pragma once
// The FASDA datapath numerics, written once and run by both the functional
// engine and the cycle engine's PEs and motion-update units:
//
//   * positions are Q2.28 in-cell offsets behind an RCID (§4.2): `encode`
//     on load, `decode` on export, `rebase` when a particle is seen from a
//     neighbour cell's frame;
//   * the filter tests exact fixed-point r² against R_c normalized to one
//     cell edge, excluding the small-r region below the interpolation
//     table (§3.4);
//   * the pair force is float32 section/bin interpolation of r^-14 and r^-8
//     (plus the Ewald real-space table) with element-indexed folded
//     coefficients (Fig. 6);
//   * the motion update is a float32 leapfrog kick, then a drift quantized
//     straight onto the fixed-point grid, which yields the cell shift.
//
// Every constant is fixed at construction, so an engine holds one Datapath
// for its lifetime and the kernels are pure functions of their arguments.

#include <cstdint>
#include <vector>

#include "fasda/fixed/fixed_point.hpp"
#include "fasda/geom/cell_grid.hpp"
#include "fasda/interp/interp_table.hpp"
#include "fasda/md/force_field.hpp"

namespace fasda::md {

/// Re-expresses an in-cell offset (RCID 2) in the frame of a cell `d`
/// cells away, d ∈ {-1, 0, 1}³: the RCID becomes 2 + d on each axis.
inline fixed::FixedVec3 rebase(const fixed::FixedVec3& p, const geom::IVec3& d) {
  auto axis = [](fixed::FixedCoord c, int dcells) {
    return fixed::FixedCoord::from_raw(
        c.raw() + static_cast<std::uint32_t>(
                      dcells * static_cast<int>(fixed::FixedCoord::kOne)));
  };
  return {axis(p.x, d.x), axis(p.y, d.y), axis(p.z, d.z)};
}

/// A particle as the caches hold it: home cell and RCID-2 offset.
struct CellPosition {
  geom::IVec3 cell;
  fixed::FixedVec3 pos;
};

/// Absolute position → home cell on `grid` and its Q2.28 offset there.
inline CellPosition encode(const geom::CellGrid& grid, const geom::Vec3d& r) {
  const geom::Vec3d p = grid.wrap_position(r);
  const geom::IVec3 c = grid.cell_of(p);
  const double inv = 1.0 / grid.cell_size();
  return {c,
          {fixed::FixedCoord::from_cell_offset(2, p.x * inv - c.x),
           fixed::FixedCoord::from_cell_offset(2, p.y * inv - c.y),
           fixed::FixedCoord::from_cell_offset(2, p.z * inv - c.z)}};
}

/// Home cell + offset → absolute position, for a cell edge of `cell_size`.
inline geom::Vec3d decode(const geom::IVec3& cell, const fixed::FixedVec3& pos,
                          double cell_size) {
  return {(cell.x + pos.x.frac()) * cell_size,
          (cell.y + pos.y.frac()) * cell_size,
          (cell.z + pos.z.frac()) * cell_size};
}

/// One particle after its motion update. A non-zero `shift` means it left
/// its home cell; `pos` is then already expressed in the destination cell.
struct Motion {
  fixed::FixedVec3 pos;
  geom::Vec3f vel;
  geom::IVec3 shift;
};

class Datapath {
 public:
  /// `terms` selects the RL components the pipelines compute (default LJ
  /// only, the paper's evaluation); Ewald real-space adds one table lookup
  /// and a charge-product coefficient per pair (§2.1). `dt_fs` and
  /// `cell_edge` (Å) are the motion update's timestep and cell edge.
  Datapath(const ForceField& ff, double cutoff,
           const interp::InterpConfig& table, const ForceTerms& terms,
           double dt_fs, double cell_edge);

  /// The filter acceptance test on exact fixed-point r² (§3.3).
  bool filter(std::uint64_t r2q) const {
    return (r2q < fixed::kR2One) & (r2q >= min_r2q_);
  }

  /// Force on particle `a` due to `b`, both in the same cell frame, given
  /// their fixed-point r² (`r2_fixed(a, b)`). Float32 datapath.
  geom::Vec3f pair_force(std::uint64_t r2q, const fixed::FixedVec3& a,
                         ElementId ea, const fixed::FixedVec3& b,
                         ElementId eb) const {
    const float r2 = fixed::r2_to_float(r2q);
    // All three tables share one config, so one index serves them all.
    const interp::TableIndex idx = table14_.index_of(r2);
    float magnitude = 0.0f;
    if (terms_.lj) {
      const PairForceCoeffs& k = coeffs_[ea * num_elements_ + eb];
      magnitude +=
          k.c14 * table14_.eval(r2, idx) - k.c8 * table8_.eval(r2, idx);
    }
    if (terms_.ewald_real) {
      magnitude +=
          ewald_coeffs_[ea * num_elements_ + eb] * table_ew_.eval(r2, idx);
    }
    return fixed::displacement_to_float(a, b) * magnitude;
  }

  /// The MU kernel: kick with the combined `force`, then drift. Pure, so a
  /// stalled migration can be retried from the unmodified particle.
  Motion motion_update(const fixed::FixedVec3& pos, const geom::Vec3f& vel,
                       const geom::Vec3f& force, ElementId elem) const;

 private:
  ForceTerms terms_;
  interp::InterpTable table14_;
  interp::InterpTable table8_;
  interp::InterpTable table_ew_;
  std::vector<PairForceCoeffs> coeffs_;
  std::vector<float> ewald_coeffs_;
  std::size_t num_elements_;
  std::uint64_t min_r2q_;
  float dt_;                     ///< fs
  double inv_cell_;              ///< 1 / cell edge, Å⁻¹
  std::vector<float> inv_mass_;  ///< by element, amu⁻¹
};

}  // namespace fasda::md
