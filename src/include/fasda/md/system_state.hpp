#pragma once
// Flat particle state shared by every engine (reference, functional,
// cycle-level). Positions are absolute coordinates in the periodic box;
// engines that store per-cell offsets (like the hardware) import/export
// through this structure.

#include <cstdint>
#include <vector>

#include "fasda/geom/cell_grid.hpp"
#include "fasda/geom/vec3.hpp"
#include "fasda/md/force_field.hpp"

namespace fasda::md {

struct SystemState {
  geom::IVec3 cell_dims;   ///< cells per dimension
  double cell_size = 0.0;  ///< Å; equals R_c in the recommended configuration

  std::vector<geom::Vec3d> positions;   ///< Å, wrapped into the box
  std::vector<geom::Vec3d> velocities;  ///< Å/fs (leapfrog half-step)
  std::vector<ElementId> elements;

  std::size_t size() const { return positions.size(); }

  geom::CellGrid grid() const { return geom::CellGrid(cell_dims, cell_size); }
};

/// The input check every engine runs at construction: each particle's
/// element id must name an element of `ff`, because the coefficient and
/// mass tables are indexed by it. Throws std::invalid_argument naming the
/// first bad particle index.
void check_elements(const SystemState& state, const ForceField& ff);

/// Kinetic energy in internal units given a force field (for masses).
double kinetic_energy(const SystemState& state, const ForceField& ff);

/// Total linear momentum (amu·Å/fs); conserved by a correct force loop.
geom::Vec3d total_momentum(const SystemState& state, const ForceField& ff);

}  // namespace fasda::md
