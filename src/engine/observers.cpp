#include "fasda/engine/observers.hpp"

#include <algorithm>

#include "fasda/md/checkpoint.hpp"
#include "fasda/util/stopwatch.hpp"

namespace fasda::engine {

RunResult run(Engine& engine, int steps, int sample_every,
              const std::vector<StepObserver*>& observers) {
  const int block_size = sample_every > 0 ? sample_every : std::max(steps, 1);
  RunResult result;
  result.steps = steps;

  util::Stopwatch wall;
  Energies e = engine.energies();
  result.initial = e;
  for (StepObserver* obs : observers) obs->on_sample(0, engine.state(), e);

  for (int done = 0; done < steps;) {
    const int block = std::min(block_size, steps - done);
    engine.step(block);
    done += block;
    e = engine.energies();
    if (observers.empty()) continue;
    const md::SystemState snapshot = engine.state();
    for (StepObserver* obs : observers) obs->on_sample(done, snapshot, e);
  }

  result.final_energies = e;
  result.wall_seconds = wall.seconds();
  for (StepObserver* obs : observers) obs->on_finish(steps, engine);
  return result;
}

EnergyTablePrinter::EnergyTablePrinter(std::FILE* out) : out_(out) {}

void EnergyTablePrinter::on_sample(int step, const md::SystemState&,
                                   const Energies& energies) {
  if (!header_printed_) {
    std::fprintf(out_, "%8s %16s %10s\n", "step", "E total", "T (K)");
    header_printed_ = true;
  }
  std::fprintf(out_, "%8d %16.8g %10.1f\n", step, energies.total,
               energies.temperature);
}

XyzObserver::XyzObserver(const std::string& path, const md::ForceField& ff)
    : writer_(path, ff) {}

void XyzObserver::on_sample(int step, const md::SystemState& state,
                            const Energies&) {
  writer_.write(state, "step=" + std::to_string(step));
}

MetricsObserver::MetricsObserver(obs::Hub& hub, std::string path,
                                 int write_every)
    : hub_(hub),
      path_(std::move(path)),
      write_every_(write_every > 0 ? write_every : 1),
      h_step_(hub.metrics().gauge("md.step")),
      h_potential_(hub.metrics().gauge("md.energy.potential")),
      h_kinetic_(hub.metrics().gauge("md.energy.kinetic")),
      h_total_(hub.metrics().gauge("md.energy.total")),
      h_temperature_(hub.metrics().gauge("md.temperature")),
      h_samples_(hub.metrics().counter("md.samples")) {}

void MetricsObserver::on_sample(int step, const md::SystemState&,
                                const Energies& energies) {
  obs::Registry& m = hub_.metrics();
  m.set(obs::kClusterNode, h_step_, static_cast<double>(step));
  m.set(obs::kClusterNode, h_potential_, energies.potential);
  m.set(obs::kClusterNode, h_kinetic_, energies.kinetic);
  m.set(obs::kClusterNode, h_total_, energies.total);
  m.set(obs::kClusterNode, h_temperature_, energies.temperature);
  m.add(obs::kClusterNode, h_samples_);
  if (path_.empty()) return;
  if (++samples_since_write_ >= write_every_) {
    samples_since_write_ = 0;
    write_file();
  }
}

void MetricsObserver::on_finish(int, Engine&) {
  if (!path_.empty()) write_file();
}

void MetricsObserver::write_file() {
  const obs::MetricsSnapshot snap = hub_.metrics().snapshot();
  const bool prom =
      path_.size() >= 5 && path_.compare(path_.size() - 5, 5, ".prom") == 0;
  obs::write_text_file(path_, prom ? snap.to_prometheus() : snap.to_json());
  ++writes_;
}

CheckpointObserver::CheckpointObserver(std::string path)
    : path_(std::move(path)) {}

void CheckpointObserver::on_sample(int, const md::SystemState& state,
                                   const Energies&) {
  last_ = state;
}

void CheckpointObserver::on_finish(int, Engine& engine) {
  if (!last_) last_ = engine.state();
  md::save_checkpoint(path_, *last_);
}

}  // namespace fasda::engine
