#include "fasda/geom/cell_grid.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace fasda::geom {

namespace {

constexpr std::array<IVec3, 26> make_full_shell() {
  std::array<IVec3, 26> out{};
  int forward = 0;
  int backward = 13;
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const IVec3 d{dx, dy, dz};
        if (is_forward_offset(d)) {
          out[forward++] = d;
        } else {
          out[backward++] = d;
        }
      }
    }
  }
  return out;
}

const std::array<IVec3, 26> kFullShell = make_full_shell();

int wrap_component(int v, int dim) {
  if (v >= 0 && v < dim) return v;  // in range: skip the division
  v %= dim;
  return v < 0 ? v + dim : v;
}

double wrap_coordinate(double v, double extent) {
  v = std::fmod(v, extent);
  return v < 0 ? v + extent : v;
}

/// The smallest a >= 0 with fl(a / box) >= q. Quotients are monotone in
/// a, so walk up from q*box until the quotient reaches q, then down while
/// the next smaller double still does; both walks take a step or two.
double quotient_threshold(double box, double q) {
  double a = q * box;
  while (a / box < q) a = std::nextafter(a, HUGE_VAL);
  while (a > 0.0 && std::nextafter(a, 0.0) / box >= q) {
    a = std::nextafter(a, 0.0);
  }
  return a;
}

Vec3d quotient_thresholds(const Vec3d& box, double q) {
  return {quotient_threshold(box.x, q), quotient_threshold(box.y, q),
          quotient_threshold(box.z, q)};
}

}  // namespace

std::span<const IVec3> half_shell_offsets() {
  return {kFullShell.data(), 13};
}

std::span<const IVec3> full_shell_offsets() { return kFullShell; }

CellGrid::CellGrid(IVec3 dims, double cell_size)
    : dims_(dims),
      cell_size_(cell_size),
      box_{dims.x * cell_size, dims.y * cell_size, dims.z * cell_size},
      t05_(quotient_thresholds(box_, 0.5)),
      t15_(quotient_thresholds(box_, 1.5)) {
  if (dims.x < 3 || dims.y < 3 || dims.z < 3) {
    throw std::invalid_argument(
        "CellGrid requires at least 3 cells per dimension so that periodic "
        "neighbour displacements are unambiguous");
  }
  if (cell_size <= 0.0) {
    throw std::invalid_argument("CellGrid cell_size must be positive");
  }
}

IVec3 CellGrid::wrap(IVec3 c) const {
  return {wrap_component(c.x, dims_.x), wrap_component(c.y, dims_.y),
          wrap_component(c.z, dims_.z)};
}

Vec3d CellGrid::wrap_position(Vec3d p) const {
  return {wrap_coordinate(p.x, box_.x), wrap_coordinate(p.y, box_.y),
          wrap_coordinate(p.z, box_.z)};
}

IVec3 CellGrid::cell_of(const Vec3d& p) const {
  const Vec3d w = wrap_position(p);
  IVec3 c{static_cast<int>(w.x / cell_size_), static_cast<int>(w.y / cell_size_),
          static_cast<int>(w.z / cell_size_)};
  // Guard against w == box() after floating-point rounding.
  if (c.x >= dims_.x) c.x = dims_.x - 1;
  if (c.y >= dims_.y) c.y = dims_.y - 1;
  if (c.z >= dims_.z) c.z = dims_.z - 1;
  return c;
}

bool CellGrid::is_forward_neighbor(const IVec3& from, const IVec3& to) const {
  const IVec3 d = cell_displacement(from, to);
  if (d.x < -1 || d.x > 1 || d.y < -1 || d.y > 1 || d.z < -1 || d.z > 1) {
    return false;
  }
  if (d == IVec3{0, 0, 0}) return false;
  return is_forward_offset(d);
}

}  // namespace fasda::geom
