#pragma once
// The double-precision cell-list pair walk, shared by the standalone
// observables (energy.hpp) and the reference engine's force, energy and
// Verlet-list passes. It visits pairs in one fixed order, so a caller that
// sums over them adds the same terms in the same order every time:
//   for each home cell c (ascending):
//     the pairs inside c, as (a, b) over c's particles with a before b;
//     then for each offset d (caller's order): every (i in c, j in c + d).
// Each cell lists its particles in ascending index order.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "fasda/geom/cell_grid.hpp"

namespace fasda::md {

/// Particles binned by cell in compressed rows: cell c owns slots
/// [begin(c), end(c)), holding particle indices in ascending order (a
/// stable counting sort) and a copy of their coordinates, so a cell's
/// positions are contiguous. The coordinate arrays carry kPad zeros past
/// the last slot.
class CellBins {
 public:
  void build(const geom::CellGrid& grid,
             std::span<const geom::Vec3d> positions);

  std::uint32_t begin(std::size_t cell) const { return start_[cell]; }
  std::uint32_t end(std::size_t cell) const { return start_[cell + 1]; }
  std::uint32_t index(std::uint32_t slot) const { return index_[slot]; }
  const double* x() const { return x_.data(); }
  const double* y() const { return y_.data(); }
  const double* z() const { return z_.data(); }

  static constexpr std::size_t kPad = 3;

 private:
  std::vector<std::uint32_t> start_;  ///< num_cells + 1 row offsets
  std::vector<std::uint32_t> next_;   ///< scratch: fill cursor per cell
  std::vector<std::uint32_t> cell_;   ///< scratch: each particle's cell
  std::vector<std::uint32_t> index_;
  std::vector<double> x_, y_, z_;
};

/// The lexicographically forward offsets within `radius` (for a radius of
/// one cell, the 13-cell half shell in half_shell_offsets() order), or
/// nullopt when 2*reach + 1 cells do not fit in every axis of `grid`: the
/// periodic images would then repeat a cell, and callers walk all pairs.
std::optional<std::vector<geom::IVec3>> forward_offsets(
    const geom::CellGrid& grid, double radius);

namespace detail {

inline constexpr std::size_t kBlock = 64;

/// Calls visit(i, j, dr, r2) with i = index(h), for each slot of [b, e) in
/// order whose r2 < cutoff2: j = index(slot), dr = grid.min_image(pos_j,
/// pos_i), r2 = dr.norm2(). Per block of kBlock slots, one pass scores r²
/// with min_image_near and no branch, over whole groups of four (CellBins
/// pads the coordinates), so the compiler vectorizes it; a slot with a
/// component at or past t15, or NaN, scores NaN. A second pass lists the
/// slots within the cutoff, and the NaN ones, again without a branch; the
/// NaN ones go through min_image's division form.
template <class Visit>
void visit_row(const geom::CellGrid& grid, const CellBins& bins,
               std::uint32_t h, std::uint32_t b, std::uint32_t e,
               double cutoff2, Visit& visit) {
  const geom::Vec3d box = grid.box(), t05 = grid.t05(), t15 = grid.t15();
  const double* x = bins.x();
  const double* y = bins.y();
  const double* z = bins.z();
  const geom::Vec3d home{x[h], y[h], z[h]};
  const auto near_image = [&](std::size_t s) {
    return geom::Vec3d{
        geom::CellGrid::min_image_near(home.x - x[s], box.x, t05.x),
        geom::CellGrid::min_image_near(home.y - y[s], box.y, t05.y),
        geom::CellGrid::min_image_near(home.z - z[s], box.z, t05.z)};
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::uint32_t i = bins.index(h);
  double r2[kBlock];
  std::uint32_t hits[kBlock];
  for (std::size_t s0 = b; s0 < e; s0 += kBlock) {
    const std::size_t n = std::min<std::size_t>(e - s0, kBlock);
    for (std::size_t k = 0; k < ((n + 3) & ~std::size_t{3}); ++k) {
      const std::size_t s = s0 + k;
      const bool near = (std::fabs(home.x - x[s]) < t15.x) &
                        (std::fabs(home.y - y[s]) < t15.y) &
                        (std::fabs(home.z - z[s]) < t15.z);
      r2[k] = near_image(s).norm2() + (near ? 0.0 : nan);
    }
    std::uint32_t count = 0;
    for (std::size_t k = 0; k < n; ++k) {
      hits[count] = static_cast<std::uint32_t>(k);
      count += !(r2[k] >= cutoff2);
    }
    for (std::uint32_t c = 0; c < count; ++c) {
      const std::size_t s = s0 + hits[c];
      double d2 = r2[hits[c]];
      geom::Vec3d dr;
      if (d2 == d2) {
        dr = near_image(s);
      } else {
        dr = grid.min_image({x[s], y[s], z[s]}, home);
        d2 = dr.norm2();
        if (!(d2 < cutoff2)) continue;
      }
      visit(i, bins.index(static_cast<std::uint32_t>(s)), dr, d2);
    }
  }
}

}  // namespace detail

/// Calls visit(i, j, dr, r2) for every pair with r2 < cutoff2 whose home
/// cell lies in [cell_begin, cell_end), in the order stated at the top of
/// this header; dr = grid.min_image(pos_j, pos_i) and r2 = dr.norm2().
template <class Visit>
void walk_cells(const geom::CellGrid& grid, const CellBins& bins,
                std::span<const geom::IVec3> offsets, double cutoff2,
                std::size_t cell_begin, std::size_t cell_end, Visit&& visit) {
  for (std::size_t cell = cell_begin; cell < cell_end; ++cell) {
    const std::uint32_t hb = bins.begin(cell);
    const std::uint32_t he = bins.end(cell);
    for (std::uint32_t h = hb; h < he; ++h) {
      detail::visit_row(grid, bins, h, h + 1, he, cutoff2, visit);
    }
    const geom::IVec3 hc = grid.coords(static_cast<geom::CellId>(cell));
    for (const geom::IVec3& d : offsets) {
      const auto nbr = static_cast<std::size_t>(grid.cid(grid.wrap(hc + d)));
      for (std::uint32_t h = hb; h < he; ++h) {
        detail::visit_row(grid, bins, h, bins.begin(nbr),
                                bins.end(nbr), cutoff2, visit);
      }
    }
  }
}

/// Calls visit(i, j, dr, r2) for every pair i < j closer than `radius`
/// (r2 < radius²): i ascending, then j ascending, when the box is too small
/// for a cell walk, else in walk_cells() order over forward_offsets().
/// `bins` is rebuilt from `positions`.
template <class Visit>
void for_each_pair_within(const geom::CellGrid& grid,
                          std::span<const geom::Vec3d> positions,
                          double radius, CellBins& bins, Visit&& visit) {
  const double radius2 = radius * radius;
  const auto offsets = forward_offsets(grid, radius);
  if (!offsets) {
    const auto n = static_cast<std::uint32_t>(positions.size());
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        const geom::Vec3d dr = grid.min_image(positions[j], positions[i]);
        const double r2 = dr.norm2();
        if (r2 < radius2) visit(i, j, dr, r2);
      }
    }
    return;
  }
  bins.build(grid, positions);
  walk_cells(grid, bins, *offsets, radius2, 0,
             static_cast<std::size_t>(grid.num_cells()), visit);
}

}  // namespace fasda::md
