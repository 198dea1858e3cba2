// fasda_md — command-line MD driver over the engine registry (the repo's
// equivalent of the paper artifact's run.py).
//
//   fasda_md --engine cycle --space 4x4x4 --cells 2x2x2 --pes 3 --spes 2
//            --steps 10 --xyz /tmp/out.xyz
//
// --engine selects a back end by registry name; see the README's engine
// table for what each one computes.
//
// Common flags:
//   --space XYZ        global cells: 3-digit shorthand (444) or XxYxZ
//                      (12x4x4); default 333
//   --per-cell N       particles per cell (default 64)
//   --steps N          timesteps (default 10)
//   --dt FS            timestep in fs (default 2)
//   --temperature K    initial Maxwell-Boltzmann temperature (default 300)
//   --seed N           dataset seed
//   --forcefield F     na | nacl (nacl enables alternating placement)
//   --ewald            add the Ewald real-space electrostatic term
//   --sample N         print energy/temperature every N steps (default 10)
//   --xyz PATH         write an extended-XYZ trajectory at each sample
//   --threads N        reference/functional worker threads (default 1)
//   --restart PATH     load the initial state from a checkpoint instead of
//                      generating a dataset
//   --checkpoint PATH  save the final state for later --restart
// Cycle-engine flags:
//   --cells XYZ        cells per FPGA (default = --space: single node)
//   --pes N --spes N   strong-scaling variant (defaults 1, 1)
//   --workers N        cycle-scheduler threads (default 1; 0 = all cores)
//   --faults SPEC      lossy-fabric model + ack/retransmit recovery
//                      (DESIGN.md section 10). SPEC is a comma list:
//                      drop=0.05,dup=0.02,reorder=0.02,corrupt=0.01,seed=7,
//                      dead=SRC-DST,dropk=SRC-DST-K, plus node faults
//                      crash=NODE-CYCLE, die=NODE-CYCLE (permanent),
//                      hang=NODE-CYCLE, stall=NODE-CYCLE-CYCLES. The
//                      trajectory stays bitwise identical to the fault-free
//                      run; an unrecovered dead link or dead node
//                      terminates with a typed error (exit codes below).
// Supervision flags (DESIGN.md section 11):
//   --supervise          run under supervisor::Supervisor: periodic
//                        checkpoints, rollback-and-replay on node/link
//                        failure, incident report at the end
//   --checkpoint-every N steps between rollback checkpoints (default:
//                        --sample)
//   --max-restarts N     engine rebuilds before giving up (default 3)
//   --allow-degraded     permit the re-shard onto surviving nodes when the
//                        same node dies twice (permanent death)
// Observability flags (DESIGN.md section 12):
//   --log-level L      debug | info | warn | error | off (default warn)
//   --trace-out FILE   write a Chrome trace_event JSON of the run (load at
//                      ui.perfetto.dev); written on every exit path,
//                      including after an unrecovered failure
//   --metrics-out FILE write the metrics-registry snapshot; a .prom
//                      extension selects Prometheus text, else JSON
//   --metrics-every N  rewrite --metrics-out every N samples (default 1)
//
// The cycle engine elides idle cycles (DESIGN.md section 13). To bisect a
// suspected elision bug, set FASDA_NAIVE_TICK=1 in the environment: every
// component then ticks every cycle, with bitwise-identical results.
//
// Exit codes: 0 = completed; 1 = usage/config error (an unknown flag, a
// malformed number, an unknown --forcefield or a --restart state whose
// element ids the force field lacks included); 2 = unrecovered
// degraded link; 3 = unrecovered node failure; 4 = completed, but in
// degraded (re-sharded) mode after a permanent node death.

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "fasda/engine/batch_runner.hpp"
#include "fasda/engine/observers.hpp"
#include "fasda/engine/registry.hpp"
#include "fasda/md/checkpoint.hpp"
#include "fasda/md/dataset.hpp"
#include "fasda/obs/obs.hpp"
#include "fasda/supervisor/supervisor.hpp"
#include "fasda/sync/sync.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/log.hpp"

namespace {

const char* incident_kind_name(fasda::supervisor::IncidentKind kind) {
  switch (kind) {
    case fasda::supervisor::IncidentKind::kNodeFailure: return "node-failure";
    case fasda::supervisor::IncidentKind::kDegradedLink: return "degraded-link";
    case fasda::supervisor::IncidentKind::kOther: return "other";
  }
  return "unknown";
}

void print_incidents(const fasda::supervisor::RunReport& report) {
  if (report.incidents.empty()) {
    std::printf("\nsupervision: no incidents\n");
    return;
  }
  std::printf("\nsupervision report: %zu incident(s), %d restart(s)%s\n",
              report.incidents.size(), report.restarts,
              report.degraded ? ", degraded topology" : "");
  int i = 0;
  for (const auto& inc : report.incidents) {
    std::printf("  #%d attempt %d: %s node %d%s%s at step %lld — %s%s\n", ++i,
                inc.attempt, incident_kind_name(inc.kind), inc.node,
                inc.phase.empty() ? "" : " in phase ",
                inc.phase.empty() ? "" : inc.phase.c_str(),
                inc.at_step, inc.recovered ? "recovered" : "unrecovered",
                inc.caused_reshard ? " (re-sharded)" : "");
  }
}

int run(const fasda::util::Cli& cli) {
  using namespace fasda;
  if (auto level = cli.get("log-level")) {
    util::set_log_level(util::parse_log_level(*level));
  }
  engine::EngineSpec spec;
  spec.engine = cli.get_or("engine", "functional");
  spec.dt = cli.get_or("dt", 2.0);
  spec.threads = static_cast<std::size_t>(cli.get_or("threads", 1L));
  spec.terms.ewald_real = cli.has_switch("ewald");
  if (auto cells = cli.get("cells")) spec.cells_per_node = util::parse_dims(*cells);
  spec.pes_per_spe = static_cast<int>(cli.get_or("pes", 1L));
  spec.spes = static_cast<int>(cli.get_or("spes", 1L));
  spec.num_worker_threads = static_cast<int>(cli.get_or("workers", 1L));
  if (auto faults = cli.get("faults")) {
    spec.faults = net::FaultPlan::parse(*faults);
  }

  const geom::IVec3 space = util::parse_dims(cli.get_or("space", "333"));
  const int per_cell = static_cast<int>(cli.get_or("per-cell", 64L));
  const int steps = static_cast<int>(cli.get_or("steps", 10L));
  const int sample = static_cast<int>(cli.get_or("sample", 10L));
  const std::string ff_name = cli.get_or("forcefield", "na");
  if (ff_name != "na" && ff_name != "nacl") {
    throw std::invalid_argument("--forcefield: unknown force field '" +
                                ff_name + "' (na | nacl)");
  }
  const md::ForceField ff = ff_name == "nacl" ? md::ForceField::sodium_chloride()
                                              : md::ForceField::sodium();

  md::SystemState state;
  if (auto restart = cli.get("restart")) {
    state = md::load_checkpoint(*restart);
    if (state.cell_dims != space) {
      std::fprintf(stderr, "restart: checkpoint is %dx%dx%d, --space says %dx%dx%d\n",
                   state.cell_dims.x, state.cell_dims.y, state.cell_dims.z,
                   space.x, space.y, space.z);
      return 1;
    }
  } else {
    md::DatasetParams params;
    params.particles_per_cell = per_cell;
    params.seed = static_cast<std::uint64_t>(cli.get_or("seed", 0x5eedL));
    params.temperature = cli.get_or("temperature", 300.0);
    if (ff_name == "nacl") params.elements = md::ElementAssignment::kAlternating;
    state = md::generate_dataset(space, 8.5, ff, params);
  }

  if (spec.faults && spec.engine != "cycle") {
    std::fprintf(stderr, "--faults models the inter-FPGA fabric; it only "
                         "applies to --engine cycle\n");
    return 1;
  }

  // Telemetry: one hub for the whole run; the spec plumbs it through every
  // layer of the cycle engine. flush_obs runs on every exit path once the
  // run started, so a crashed run still leaves a loadable trace behind.
  const auto trace_out = cli.get("trace-out");
  const auto metrics_out = cli.get("metrics-out");
  const int metrics_every = static_cast<int>(cli.get_or("metrics-every", 1L));
  obs::Hub hub;
  if (trace_out || metrics_out) spec.obs = &hub;
  auto flush_obs = [&] {
    if (trace_out && !obs::write_text_file(*trace_out,
                                           hub.trace().to_chrome_json())) {
      std::fprintf(stderr, "trace-out: cannot write %s\n", trace_out->c_str());
    }
    if (metrics_out) {
      const obs::MetricsSnapshot snap = hub.metrics().snapshot();
      const std::string& p = *metrics_out;
      const bool prom =
          p.size() >= 5 && p.compare(p.size() - 5, 5, ".prom") == 0;
      if (!obs::write_text_file(p, prom ? snap.to_prometheus()
                                        : snap.to_json())) {
        std::fprintf(stderr, "metrics-out: cannot write %s\n", p.c_str());
      }
    }
  };

  engine::EnergyTablePrinter table;
  std::optional<engine::XyzObserver> xyz;
  std::optional<engine::CheckpointObserver> checkpoint;
  std::optional<engine::MetricsObserver> metrics;
  std::vector<engine::StepObserver*> observers{&table};
  if (auto path = cli.get("xyz")) observers.push_back(&xyz.emplace(*path, ff));
  if (auto path = cli.get("checkpoint")) {
    observers.push_back(&checkpoint.emplace(*path));
  }
  if (metrics_out) {
    observers.push_back(&metrics.emplace(hub, *metrics_out, metrics_every));
  }

  if (cli.has_switch("supervise")) {
    supervisor::SupervisorConfig scfg;
    scfg.checkpoint_every =
        static_cast<int>(cli.get_or("checkpoint-every", static_cast<long>(sample)));
    scfg.max_restarts = static_cast<int>(cli.get_or("max-restarts", 3L));
    scfg.allow_degraded = cli.has_switch("allow-degraded");

    std::printf("fasda_md: %s engine (supervised), %zu particles (%dx%dx%d "
                "cells), %d steps\n",
                spec.engine.c_str(), state.size(), space.x, space.y, space.z,
                steps);

    supervisor::Supervisor sup(state, ff, spec, scfg);
    const supervisor::RunReport report = sup.run(steps, observers);
    print_incidents(report);
    flush_obs();
    if (!report.completed) {
      std::fprintf(stderr, "\nsupervision gave up after %d restart(s): %s\n",
                   report.restarts, report.final_error.c_str());
      if (report.incidents.empty()) return 1;
      switch (report.incidents.back().kind) {
        case supervisor::IncidentKind::kDegradedLink: return 2;
        case supervisor::IncidentKind::kNodeFailure: return 3;
        case supervisor::IncidentKind::kOther: return 1;
      }
      return 1;
    }
    std::printf("completed %lld steps (%d checkpoint(s))\n", report.steps,
                report.checkpoints_taken);
    if (xyz) std::printf("trajectory: %d frames\n", xyz->frames_written());
    if (auto path = cli.get("checkpoint")) {
      std::printf("checkpoint: %s\n", path->c_str());
    }
    return report.degraded ? 4 : 0;
  }

  const std::unique_ptr<engine::Engine> eng =
      engine::Registry::instance().create(state, ff, spec);

  std::printf("fasda_md: %s engine, %zu particles (%dx%dx%d cells), %d steps\n",
              eng->name().c_str(), state.size(), space.x, space.y, space.z,
              steps);

  engine::RunResult result;
  try {
    result = engine::run(*eng, steps, sample, observers);
  } catch (const sync::DegradedLinkError& e) {
    std::fprintf(stderr, "\n%s\n", e.what());
    flush_obs();
    return 2;
  } catch (const sync::NodeFailureError& e) {
    std::fprintf(stderr, "\n%s\n", e.what());
    flush_obs();
    return 3;
  }
  flush_obs();

  std::printf("\nwall time: %.2f s (%.1f ms/step)\n", result.wall_seconds,
              1000.0 * result.wall_seconds / steps);
  std::printf("energy drift: %.3e (relative)\n",
              std::abs(result.final_energies.total - result.initial.total) /
                  std::abs(result.initial.total));

  const engine::StepMetrics& m = eng->metrics();
  if (m.has_cycle_counters) {
    std::printf("\ncycle-level counters:\n");
    std::printf("  total cycles        : %llu\n",
                static_cast<unsigned long long>(m.total_cycles));
    std::printf("  simulation rate     : %.2f us/day @ 200 MHz\n",
                m.microseconds_per_day);
    std::printf("  PE utilization      : %.0f%% hw, %.0f%% time\n",
                100 * m.pe_hardware_utilization, 100 * m.pe_time_utilization);
    std::printf("  packets (pos/frc)   : %llu / %llu\n",
                static_cast<unsigned long long>(m.position_packets),
                static_cast<unsigned long long>(m.force_packets));
  }
  if (spec.faults) {
    if (auto* cyc = dynamic_cast<const engine::CycleEngine*>(eng.get())) {
      const net::LinkStats r = cyc->simulation().traffic().reliability_total;
      std::printf("\nfabric reliability (all channels):\n");
      std::printf("  injected faults     : %llu drop, %llu dup, %llu reorder, "
                  "%llu corrupt\n",
                  static_cast<unsigned long long>(r.injected_drops),
                  static_cast<unsigned long long>(r.injected_dups),
                  static_cast<unsigned long long>(r.injected_reorders),
                  static_cast<unsigned long long>(r.injected_corrupts));
      std::printf("  retransmits         : %llu (%llu timeouts, max retry "
                  "depth %d)\n",
                  static_cast<unsigned long long>(r.retransmits),
                  static_cast<unsigned long long>(r.timeouts),
                  r.max_retry_depth);
      std::printf("  receiver            : %llu CRC failures, %llu duplicates "
                  "discarded\n",
                  static_cast<unsigned long long>(r.crc_failures),
                  static_cast<unsigned long long>(r.duplicates_discarded));
      std::printf("  control traffic     : %llu acks, %llu nacks\n",
                  static_cast<unsigned long long>(r.acks_sent),
                  static_cast<unsigned long long>(r.nacks_sent));
      std::printf("  recovery cycles     : %llu\n",
                  static_cast<unsigned long long>(r.recovery_cycles));
    }
  }
  if (xyz) std::printf("trajectory: %d frames\n", xyz->frames_written());
  if (auto path = cli.get("checkpoint")) {
    std::printf("checkpoint: %s\n", path->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every flag this driver reads; anything else (a typo, a retired flag) is
  // an error rather than a silently ignored default.
  return fasda::util::Cli::run(
      argc, argv, "fasda_md",
      {"log-level", "engine", "dt", "threads", "ewald", "cells", "pes",
       "spes", "workers", "faults", "space", "per-cell", "steps", "sample",
       "forcefield", "restart", "seed", "temperature", "trace-out",
       "metrics-out", "metrics-every", "xyz", "checkpoint", "supervise",
       "checkpoint-every", "max-restarts", "allow-degraded"},
      run);
}
