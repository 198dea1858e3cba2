#include "fasda/md/energy.hpp"

#include "fasda/md/pair_walk.hpp"

namespace fasda::md {

namespace {

/// Calls visit(i, j, dr, r2) for every unordered pair within the cutoff.
/// Works for any cell-size/cutoff ratio: the neighbour reach is
/// ceil(cutoff / cell_size) cells; when the periodic box is too small for
/// that reach to be unambiguous, it walks all pairs.
template <class Visitor>
void for_each_pair(const SystemState& state, double cutoff, Visitor&& visit) {
  CellBins bins;
  for_each_pair_within(state.grid(), state.positions, cutoff, bins, visit);
}

}  // namespace

double compute_potential_energy(const SystemState& state, const ForceField& ff,
                                double cutoff, const ForceTerms& terms) {
  double pe = 0.0;
  for_each_pair(state, cutoff,
                [&](std::uint32_t i, std::uint32_t j, const geom::Vec3d&,
                    double r2) {
                  pe += ff.pair_energy(r2, state.elements[i],
                                       state.elements[j], terms);
                });
  return pe;
}

std::vector<geom::Vec3d> compute_forces(const SystemState& state,
                                        const ForceField& ff, double cutoff,
                                        const ForceTerms& terms) {
  std::vector<geom::Vec3d> forces(state.size());
  for_each_pair(state, cutoff, [&](std::uint32_t i, std::uint32_t j,
                                   const geom::Vec3d& dr, double) {
    const geom::Vec3d fij =
        ff.pair_force(dr, state.elements[i], state.elements[j], terms);
    forces[i] += fij;
    forces[j] -= fij;
  });
  return forces;
}

std::size_t count_pairs_within_cutoff(const SystemState& state, double cutoff) {
  std::size_t n = 0;
  for_each_pair(state, cutoff,
                [&](std::uint32_t, std::uint32_t, const geom::Vec3d&, double) {
                  ++n;
                });
  return n;
}

}  // namespace fasda::md
