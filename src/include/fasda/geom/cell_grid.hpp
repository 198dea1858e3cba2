#pragma once
// Periodic cell grid over the simulation space, with the paper's cell
// indexing (Eq. 7):  CID = Dy*Dz*x + Dz*y + z.
//
// The half-shell neighbour set (Fig. 2) implements Newton's-third-law
// pairing: each cell sends its particles to the 13 "forward" neighbour cells
// and receives from the 13 "backward" ones, so every neighbouring cell pair
// is evaluated exactly once. "Forward" means lexicographically positive
// displacement: dx>0, or dx==0 && dy>0, or dx==dy==0 && dz>0 — which also
// matches the ring rotation direction Eq. 7 optimizes for.

#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "fasda/geom/vec3.hpp"

namespace fasda::geom {

using CellId = std::int32_t;

/// The 13 forward half-shell offsets (of the 26 neighbours of a cell).
std::span<const IVec3> half_shell_offsets();

/// All 26 neighbour offsets (full shell), forward ones first.
std::span<const IVec3> full_shell_offsets();

/// std::round(q), exactly, without the libm call for |q| < 1.5. Keeps the
/// sign of zero; NaN and larger magnitudes fall back to std::round.
/// CellGrid::min_image() divides and calls it only for |d| >= t15 or NaN;
/// below t15 the same value follows from comparing |d| with t05 (the
/// exactness argument is in DESIGN.md §18).
inline double round_half_away(double q) {
  const double a = std::fabs(q);
  if (a < 0.5) return std::copysign(0.0, q);
  if (a < 1.5) return std::copysign(1.0, q);
  return std::round(q);
}

/// True iff d (each component in {-1,0,1}, not all zero) is a forward offset.
constexpr bool is_forward_offset(const IVec3& d) {
  return d.x > 0 || (d.x == 0 && (d.y > 0 || (d.y == 0 && d.z > 0)));
}

class CellGrid {
 public:
  /// dims: number of cells per dimension (each >= 3 so that periodic
  /// neighbour displacements are unambiguous); cell_size: edge length
  /// (= R_c in the paper's recommended configuration).
  CellGrid(IVec3 dims, double cell_size);

  const IVec3& dims() const { return dims_; }
  double cell_size() const { return cell_size_; }
  int num_cells() const { return dims_.product(); }
  Vec3d box() const { return box_; }

  /// Per axis, the smallest |d| that min_image() folds by one box (t05)
  /// and the smallest it leaves to the division formula (t15); see
  /// round_half_away().
  Vec3d t05() const { return t05_; }
  Vec3d t15() const { return t15_; }

  /// Eq. 7 cell id from integer coordinates (must be in range).
  CellId cid(const IVec3& c) const {
    return static_cast<CellId>((c.x * dims_.y + c.y) * dims_.z + c.z);
  }
  IVec3 coords(CellId id) const {
    const int z = id % dims_.z;
    const int y = (id / dims_.z) % dims_.y;
    const int x = id / (dims_.y * dims_.z);
    return {x, y, z};
  }

  /// Wraps integer cell coordinates into the grid (periodic boundaries).
  IVec3 wrap(IVec3 c) const;

  /// Wraps a position into the periodic box [0, box) per component.
  Vec3d wrap_position(Vec3d p) const;

  /// Cell containing a (wrapped) position.
  IVec3 cell_of(const Vec3d& p) const;

  /// Minimum-image displacement between cell coordinates: each component of
  /// (to - from) mapped into [-dims/2, dims/2]. For the neighbour checks used
  /// by the rings the result is meaningful when it lands in {-1,0,1}^3.
  IVec3 cell_displacement(const IVec3& from, const IVec3& to) const {
    return {min_image_component(to.x - from.x, dims_.x),
            min_image_component(to.y - from.y, dims_.y),
            min_image_component(to.z - from.z, dims_.z)};
  }

  /// Minimum-image displacement vector to - from in the periodic box:
  /// per axis d - L*round_half_away(d/L), bit for bit, without the
  /// division while |d| < t15.
  Vec3d min_image(const Vec3d& from, const Vec3d& to) const {
    const Vec3d d = to - from;
    return {min_image_axis(d.x, box_.x, t05_.x, t15_.x),
            min_image_axis(d.y, box_.y, t05_.y, t15_.y),
            min_image_axis(d.z, box_.z, t05_.z, t15_.z)};
  }

  /// One axis of min_image() for |d| < t15 (the caller checks): folds d
  /// by at most one box.
  static double min_image_near(double d, double box, double t05) {
    return d - box * std::copysign(std::fabs(d) >= t05 ? 1.0 : 0.0, d);
  }

  /// True iff `to` is one of `from`'s 13 forward half-shell neighbours
  /// (periodic). A cell is never its own neighbour (dims >= 3 guarantees the
  /// images are distinct).
  bool is_forward_neighbor(const IVec3& from, const IVec3& to) const;

 private:
  /// d wrapped into (-dim/2, dim/2]; ties (exactly dim/2 for even dim) go
  /// positive. No division for |d| < dim, the only case in-range
  /// coordinates produce.
  static int min_image_component(int d, int dim) {
    if (d >= dim || d <= -dim) d %= dim;
    if (d < 0) d += dim;
    return d > dim / 2 ? d - dim : d;
  }

  static double min_image_axis(double d, double box, double t05,
                               double t15) {
    if (std::fabs(d) < t15) return min_image_near(d, box, t05);
    return d - box * round_half_away(d / box);  // |d| >= t15, or NaN
  }

  IVec3 dims_;
  double cell_size_;
  Vec3d box_;
  Vec3d t05_;
  Vec3d t15_;
};

}  // namespace fasda::geom
