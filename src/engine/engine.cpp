#include "fasda/engine/engine.hpp"

#include "fasda/md/analysis.hpp"
#include "fasda/util/stopwatch.hpp"

namespace fasda::engine {

void Engine::step(int n) {
  if (n <= 0) return;
  energies_.reset();
  util::Stopwatch wall;
  do_step(n);
  metrics_.wall_seconds += wall.seconds();
  metrics_.steps_completed += n;
  update_metrics(metrics_);
}

double Engine::kinetic_energy() const { return md::kinetic_energy(state(), ff_); }

Energies Engine::energies() {
  if (energies_) return *energies_;
  const md::SystemState s = state();
  Energies e;
  e.potential = potential_energy();
  e.kinetic = md::kinetic_energy(s, ff_);
  e.total = e.potential + e.kinetic;
  e.temperature = md::temperature(s, ff_);
  energies_ = e;
  return e;
}

}  // namespace fasda::engine
