#include "fasda/md/system_state.hpp"

#include <stdexcept>
#include <string>

namespace fasda::md {

void check_elements(const SystemState& state, const ForceField& ff) {
  if (state.elements.size() != state.size()) {
    throw std::invalid_argument(
        "state has " + std::to_string(state.size()) + " particles but " +
        std::to_string(state.elements.size()) + " element ids");
  }
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (state.elements[i] >= ff.num_elements()) {
      throw std::invalid_argument(
          "particle " + std::to_string(i) + " has element id " +
          std::to_string(state.elements[i]) + ", but the force field has " +
          std::to_string(ff.num_elements()) + " element(s)");
    }
  }
}

double kinetic_energy(const SystemState& state, const ForceField& ff) {
  double ke = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const double m = ff.element(state.elements[i]).mass;
    ke += 0.5 * m * state.velocities[i].norm2();
  }
  return ke;
}

geom::Vec3d total_momentum(const SystemState& state, const ForceField& ff) {
  geom::Vec3d p{};
  for (std::size_t i = 0; i < state.size(); ++i) {
    p += state.velocities[i] * ff.element(state.elements[i]).mass;
  }
  return p;
}

}  // namespace fasda::md
