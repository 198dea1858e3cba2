#include "fasda/md/pair_walk.hpp"

namespace fasda::md {

void CellBins::build(const geom::CellGrid& grid,
                     std::span<const geom::Vec3d> positions) {
  const auto num_cells = static_cast<std::size_t>(grid.num_cells());
  const std::size_t n = positions.size();
  start_.assign(num_cells + 1, 0);
  cell_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_[i] = static_cast<std::uint32_t>(grid.cid(grid.cell_of(positions[i])));
    ++start_[cell_[i] + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) start_[c + 1] += start_[c];
  next_.assign(start_.begin(), start_.end() - 1);
  index_.resize(n);
  x_.assign(n + kPad, 0.0);
  y_.assign(n + kPad, 0.0);
  z_.assign(n + kPad, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = next_[cell_[i]]++;
    index_[slot] = static_cast<std::uint32_t>(i);
    x_[slot] = positions[i].x;
    y_[slot] = positions[i].y;
    z_[slot] = positions[i].z;
  }
}

std::optional<std::vector<geom::IVec3>> forward_offsets(
    const geom::CellGrid& grid, double radius) {
  const int reach =
      static_cast<int>(std::ceil(radius / grid.cell_size() - 1e-12));
  const geom::IVec3 dims = grid.dims();
  if (2 * reach + 1 > std::min({dims.x, dims.y, dims.z})) return std::nullopt;
  std::vector<geom::IVec3> offsets;
  for (int dx = 0; dx <= reach; ++dx) {  // no forward offset has dx < 0
    for (int dy = -reach; dy <= reach; ++dy) {
      for (int dz = -reach; dz <= reach; ++dz) {
        const geom::IVec3 d{dx, dy, dz};
        if (geom::is_forward_offset(d)) offsets.push_back(d);
      }
    }
  }
  return offsets;
}

}  // namespace fasda::md
