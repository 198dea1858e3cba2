#include "fasda/serve/job.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "fasda/md/dataset.hpp"
#include "fasda/net/fault.hpp"
#include "fasda/supervisor/supervisor.hpp"
#include "fasda/util/bytes.hpp"
#include "fasda/util/cli.hpp"
#include "fasda/util/crc32.hpp"
#include "fasda/util/stopwatch.hpp"

namespace fasda::serve {
namespace {

md::ForceField forcefield_for(const JobRequest& req) {
  return req.forcefield == "nacl" ? md::ForceField::sodium_chloride()
                                  : md::ForceField::sodium();
}

std::uint64_t f64_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

bool nibble_of(char c, std::uint8_t& out) {
  if (c >= '0' && c <= '9') out = static_cast<std::uint8_t>(c - '0');
  else if (c >= 'a' && c <= 'f') out = static_cast<std::uint8_t>(c - 'a' + 10);
  else if (c >= 'A' && c <= 'F') out = static_cast<std::uint8_t>(c - 'A' + 10);
  else return false;
  return true;
}

std::vector<std::uint8_t> encode_state_bytes(const md::SystemState& state) {
  util::ByteWriter w;
  w.i32(state.cell_dims.x);
  w.i32(state.cell_dims.y);
  w.i32(state.cell_dims.z);
  w.f64(state.cell_size);
  w.u32(static_cast<std::uint32_t>(state.size()));
  for (std::size_t i = 0; i < state.size(); ++i) {
    w.f64(state.positions[i].x);
    w.f64(state.positions[i].y);
    w.f64(state.positions[i].z);
    w.f64(state.velocities[i].x);
    w.f64(state.velocities[i].y);
    w.f64(state.velocities[i].z);
    w.u8(state.elements[i]);
  }
  return w.take();
}

std::string replica_label(int r) { return "r" + std::to_string(r); }

std::string u64_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_u64_hex(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  out = 0;
  for (const char c : s) {
    std::uint8_t nib;
    if (!nibble_of(c, nib)) return false;
    out = (out << 4) | nib;
  }
  return true;
}

JobOutcome worst_outcome(const std::vector<ReplicaOutcome>& replicas) {
  // Severity order for the job-level fold; kOk is least severe.
  JobOutcome worst = JobOutcome::kOk;
  const auto rank = [](JobOutcome o) {
    switch (o) {
      case JobOutcome::kOk: return 0;
      case JobOutcome::kDegraded: return 1;
      case JobOutcome::kDegradedLink: return 2;
      case JobOutcome::kNodeFailure: return 3;
      case JobOutcome::kIncomplete: return 4;
    }
    return 4;
  };
  for (const ReplicaOutcome& r : replicas) {
    if (rank(r.outcome) > rank(worst)) worst = r.outcome;
  }
  return worst;
}

void fill_energies(ReplicaOutcome& out, const engine::Energies& e) {
  out.potential_bits = f64_bits(e.potential);
  out.kinetic_bits = f64_bits(e.kinetic);
  out.total_bits = f64_bits(e.total);
  out.temperature_bits = f64_bits(e.temperature);
}

void fill_state(ReplicaOutcome& out, const md::SystemState& state,
                bool return_state) {
  const std::vector<std::uint8_t> bytes = encode_state_bytes(state);
  util::Crc32 crc;
  crc.add_bytes(bytes.data(), bytes.size());
  out.state_crc32 = crc.value();
  if (return_state) out.state_hex = hex_of(bytes);
}

}  // namespace

const char* job_outcome_name(JobOutcome o) {
  switch (o) {
    case JobOutcome::kOk: return "ok";
    case JobOutcome::kDegraded: return "degraded";
    case JobOutcome::kDegradedLink: return "degraded-link";
    case JobOutcome::kNodeFailure: return "node-failure";
    case JobOutcome::kIncomplete: return "incomplete";
  }
  return "incomplete";
}

int job_outcome_exit_code(JobOutcome o) {
  // The fasda_md taxonomy: 0 completed, 1 incomplete/usage, 2 unrecovered
  // degraded link, 3 unrecovered node failure, 4 completed degraded.
  switch (o) {
    case JobOutcome::kOk: return 0;
    case JobOutcome::kDegraded: return 4;
    case JobOutcome::kDegradedLink: return 2;
    case JobOutcome::kNodeFailure: return 3;
    case JobOutcome::kIncomplete: return 1;
  }
  return 1;
}

std::optional<JobOutcome> job_outcome_from_name(std::string_view name) {
  for (const JobOutcome o :
       {JobOutcome::kOk, JobOutcome::kDegraded, JobOutcome::kDegradedLink,
        JobOutcome::kNodeFailure, JobOutcome::kIncomplete}) {
    if (name == job_outcome_name(o)) return o;
  }
  return std::nullopt;
}

std::optional<JobRequest> JobRequest::from_json(const json::Value& v,
                                                std::string& error) {
  if (!v.is_object()) {
    error = "submit payload must be a JSON object";
    return std::nullopt;
  }
  JobRequest r;
  bool ok = true;
  const auto str_field = [&](const char* key, std::string& out) {
    const json::Value* m = v.find(key);
    if (!m) return;
    if (!m->is_string()) {
      ok = false;
      error = std::string(key) + " must be a string";
      return;
    }
    out = m->string;
  };
  const auto int_field = [&](const char* key, auto& out, long long lo,
                             long long hi) {
    const json::Value* m = v.find(key);
    if (!m) return;
    if (!m->is_number() || !m->integral || m->integer < lo ||
        m->integer > hi) {
      ok = false;
      error = std::string(key) + " must be an integer in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]";
      return;
    }
    out = static_cast<std::remove_reference_t<decltype(out)>>(m->integer);
  };
  const auto num_field = [&](const char* key, double& out, double lo,
                             double hi) {
    const json::Value* m = v.find(key);
    if (!m) return;
    if (!m->is_number() || m->number < lo || m->number > hi) {
      ok = false;
      error = std::string(key) + " must be a number in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]";
      return;
    }
    out = m->number;
  };
  const auto bool_field = [&](const char* key, bool& out) {
    const json::Value* m = v.find(key);
    if (!m) return;
    if (!m->is_bool()) {
      ok = false;
      error = std::string(key) + " must be a boolean";
      return;
    }
    out = m->boolean;
  };

  str_field("tenant", r.tenant);
  str_field("idempotency", r.idempotency);
  int_field("priority", r.priority, -1000000, 1000000);
  int_field("replicas", r.replicas, 1, 65536);
  int_field("steps", r.steps, 0, 10000000);
  int_field("sample", r.sample, 0, 10000000);
  str_field("space", r.space);
  int_field("per_cell", r.per_cell, 1, 512);
  {
    const json::Value* m = v.find("seed");
    if (m) {
      if (!m->is_number() || !m->integral || m->integer < 0) {
        ok = false;
        error = "seed must be a non-negative integer";
      } else {
        r.seed = static_cast<std::uint64_t>(m->integer);
      }
    }
  }
  num_field("temperature", r.temperature, 0.0, 1e6);
  str_field("forcefield", r.forcefield);
  str_field("engine", r.engine);
  num_field("dt", r.dt, 1e-6, 1e3);
  bool_field("ewald", r.ewald);
  int_field("threads", r.threads, 1, 256);
  str_field("cells", r.cells);
  int_field("pes", r.pes, 1, 64);
  int_field("spes", r.spes, 1, 64);
  int_field("workers", r.workers, 0, 256);
  str_field("faults", r.faults);
  int_field("batch_workers", r.batch_workers, 1, 256);
  bool_field("supervise", r.supervise);
  int_field("checkpoint_every", r.checkpoint_every, 0, 10000000);
  int_field("max_restarts", r.max_restarts, 0, 1000);
  bool_field("allow_degraded", r.allow_degraded);
  bool_field("return_state", r.return_state);

  if (!ok) return std::nullopt;
  return r;
}

std::string JobRequest::to_json() const {
  std::string out = "{";
  out += "\"tenant\":" + json::quoted(tenant);
  if (!idempotency.empty()) {
    out += ",\"idempotency\":" + json::quoted(idempotency);
  }
  out += ",\"priority\":" + std::to_string(priority);
  out += ",\"replicas\":" + std::to_string(replicas);
  out += ",\"steps\":" + std::to_string(steps);
  out += ",\"sample\":" + std::to_string(sample);
  out += ",\"space\":" + json::quoted(space);
  out += ",\"per_cell\":" + std::to_string(per_cell);
  out += ",\"seed\":" + std::to_string(seed);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", temperature);
  out += std::string(",\"temperature\":") + buf;
  out += ",\"forcefield\":" + json::quoted(forcefield);
  out += ",\"engine\":" + json::quoted(engine);
  std::snprintf(buf, sizeof buf, "%.17g", dt);
  out += std::string(",\"dt\":") + buf;
  out += std::string(",\"ewald\":") + (ewald ? "true" : "false");
  out += ",\"threads\":" + std::to_string(threads);
  if (!cells.empty()) out += ",\"cells\":" + json::quoted(cells);
  out += ",\"pes\":" + std::to_string(pes);
  out += ",\"spes\":" + std::to_string(spes);
  out += ",\"workers\":" + std::to_string(workers);
  if (!faults.empty()) out += ",\"faults\":" + json::quoted(faults);
  out += ",\"batch_workers\":" + std::to_string(batch_workers);
  out += std::string(",\"supervise\":") + (supervise ? "true" : "false");
  out += ",\"checkpoint_every\":" + std::to_string(checkpoint_every);
  out += ",\"max_restarts\":" + std::to_string(max_restarts);
  out += std::string(",\"allow_degraded\":") +
         (allow_degraded ? "true" : "false");
  out += std::string(",\"return_state\":") + (return_state ? "true" : "false");
  out += "}";
  return out;
}

std::string JobRequest::validate() const {
  if (tenant.empty() || tenant.size() > 64) {
    return "tenant must be 1..64 characters";
  }
  if (idempotency.size() > 128) {
    return "idempotency key must be at most 128 characters";
  }
  if (!engine::Registry::instance().contains(engine)) {
    return "unknown engine \"" + engine + "\"";
  }
  if (forcefield != "na" && forcefield != "nacl") {
    return "forcefield must be na or nacl";
  }
  try {
    const geom::IVec3 dims = util::parse_dims(space);
    // CellGrid needs >= 3 cells per axis for unambiguous periodic
    // neighbour displacements; reject at admission instead of letting
    // every replica die with the same engine-construction error.
    if (dims.x < 3 || dims.y < 3 || dims.z < 3) {
      return "space: needs at least 3 cells per dimension";
    }
    // Resource caps: bound what one admitted job may allocate before the
    // product arithmetic below can overflow (axes <= 1024 keeps the cell
    // product <= 2^30 in uint64).
    if (dims.x > kMaxCellsPerAxis || dims.y > kMaxCellsPerAxis ||
        dims.z > kMaxCellsPerAxis) {
      return "space: at most " + std::to_string(kMaxCellsPerAxis) +
             " cells per axis";
    }
    const std::uint64_t cells_total = static_cast<std::uint64_t>(dims.x) *
                                      static_cast<std::uint64_t>(dims.y) *
                                      static_cast<std::uint64_t>(dims.z);
    if (cells_total > kMaxSpaceCells) {
      return "space: " + std::to_string(cells_total) +
             " cells exceeds the per-job cap of " +
             std::to_string(kMaxSpaceCells);
    }
    const std::uint64_t replica_particles =
        cells_total * static_cast<std::uint64_t>(per_cell);
    if (replica_particles > kMaxReplicaParticles) {
      return "space*per_cell: " + std::to_string(replica_particles) +
             " particles per replica exceeds the cap of " +
             std::to_string(kMaxReplicaParticles);
    }
    const std::uint64_t job_particles =
        replica_particles * static_cast<std::uint64_t>(replicas);
    if (job_particles > kMaxJobParticles) {
      return "space*per_cell*replicas: " + std::to_string(job_particles) +
             " particles exceeds the per-job cap of " +
             std::to_string(kMaxJobParticles);
    }
    if (return_state && job_particles > kMaxReturnStateParticles) {
      return "return_state: " + std::to_string(job_particles) +
             " particles would not fit one result frame (cap " +
             std::to_string(kMaxReturnStateParticles) + ")";
    }
  } catch (const std::invalid_argument& e) {
    return std::string("space: ") + e.what();
  }
  if (!cells.empty()) {
    try {
      util::parse_dims(cells);
    } catch (const std::invalid_argument& e) {
      return std::string("cells: ") + e.what();
    }
  }
  if (!faults.empty()) {
    if (engine != "cycle") return "faults only apply to the cycle engine";
    try {
      net::FaultPlan::parse(faults);
    } catch (const std::invalid_argument& e) {
      return std::string("faults: ") + e.what();
    }
  }
  return {};
}

std::string encode_state_hex(const md::SystemState& state) {
  return hex_of(encode_state_bytes(state));
}

std::optional<md::SystemState> decode_state_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::vector<std::uint8_t> bytes(hex.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::uint8_t hi, lo;
    if (!nibble_of(hex[2 * i], hi) || !nibble_of(hex[2 * i + 1], lo)) {
      return std::nullopt;
    }
    bytes[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  util::ByteReader r(bytes);
  md::SystemState state;
  state.cell_dims.x = r.i32();
  state.cell_dims.y = r.i32();
  state.cell_dims.z = r.i32();
  state.cell_size = r.f64();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > 100000000u ||
      r.remaining() != static_cast<std::size_t>(n) * 49) {
    return std::nullopt;
  }
  state.positions.resize(n);
  state.velocities.resize(n);
  state.elements.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    state.positions[i] = {r.f64(), r.f64(), r.f64()};
    state.velocities[i] = {r.f64(), r.f64(), r.f64()};
    state.elements[i] = r.u8();
  }
  if (!r.done()) return std::nullopt;
  return state;
}

std::uint32_t state_crc32(const md::SystemState& state) {
  const std::vector<std::uint8_t> bytes = encode_state_bytes(state);
  util::Crc32 crc;
  crc.add_bytes(bytes.data(), bytes.size());
  return crc.value();
}

engine::EngineSpec engine_spec_for(const JobRequest& req) {
  const std::string problem = req.validate();
  if (!problem.empty()) throw std::invalid_argument("job: " + problem);
  engine::EngineSpec spec;
  spec.engine = req.engine;
  spec.dt = req.dt;
  spec.terms.ewald_real = req.ewald;
  spec.threads = static_cast<std::size_t>(req.threads);
  if (!req.cells.empty()) spec.cells_per_node = util::parse_dims(req.cells);
  spec.pes_per_spe = req.pes;
  spec.spes = req.spes;
  spec.num_worker_threads = req.workers;
  if (!req.faults.empty()) spec.faults = net::FaultPlan::parse(req.faults);
  return spec;
}

md::SystemState make_replica_state(const JobRequest& req, int replica) {
  const md::ForceField ff = forcefield_for(req);
  md::DatasetParams params;
  params.particles_per_cell = req.per_cell;
  params.seed = req.seed + static_cast<std::uint64_t>(replica);
  params.temperature = req.temperature;
  if (req.forcefield == "nacl") {
    params.elements = md::ElementAssignment::kAlternating;
  }
  return md::generate_dataset(util::parse_dims(req.space), 8.5, ff, params);
}

namespace {

/// Rebases a resumed replica's observer stream onto absolute steps and
/// fires the journal's `checkpointed` hook once per banked block. The
/// supervisor saves the checkpoint file before on_sample fires, so by the
/// time `checkpointed` runs the state for that step is on disk (renamed
/// into place, not fsynced).
class ResumeShimObserver final : public engine::StepObserver {
 public:
  ResumeShimObserver(engine::StepObserver* inner, long long base, int replica,
                     const ExecutionHooks* hooks)
      : inner_(inner), base_(base), replica_(replica), hooks_(hooks) {}

  void on_sample(int step, const md::SystemState& state,
                 const engine::Energies& energies) override {
    const long long absolute = base_ + step;
    // step 0 is the initial sample (nothing newly banked); for a resumed
    // replica that step was journaled by the pre-crash incarnation.
    if (step > 0 && hooks_ && hooks_->checkpointed) {
      hooks_->checkpointed(replica_, absolute);
    }
    if (inner_) inner_->on_sample(static_cast<int>(absolute), state, energies);
  }

  void on_finish(int steps, engine::Engine& engine) override {
    if (inner_) {
      inner_->on_finish(static_cast<int>(base_ + steps), engine);
    }
  }

 private:
  engine::StepObserver* inner_;
  long long base_;
  int replica_;
  const ExecutionHooks* hooks_;
};

}  // namespace

JobResult execute_job(std::uint64_t job_id, const JobRequest& req,
                      const ReplicaObserverFactory* observers,
                      const ExecutionHooks* hooks) {
  util::Stopwatch wall;
  JobResult out;
  out.job_id = job_id;
  out.replicas.resize(static_cast<std::size_t>(req.replicas));

  const md::ForceField ff = forcefield_for(req);
  const engine::EngineSpec spec = engine_spec_for(req);

  if (req.supervise) {
    // Sequential supervised replicas: each gets its own Supervisor with
    // rollback-and-replay; a recovered replica is bitwise identical to an
    // uninterrupted one (DESIGN.md §11), so supervision never enters the
    // determinism contract.
    for (int r = 0; r < req.replicas; ++r) {
      ReplicaOutcome& rep = out.replicas[static_cast<std::size_t>(r)];
      rep.label = replica_label(r);
      supervisor::SupervisorConfig scfg;
      scfg.checkpoint_every = req.checkpoint_every > 0
                                  ? req.checkpoint_every
                                  : (req.sample > 0 ? req.sample : req.steps);
      scfg.max_restarts = req.max_restarts;
      scfg.allow_degraded = req.allow_degraded;

      // Resume hand-off: a replica the journal knows a banked checkpoint
      // for restarts from that state and runs only the remaining steps;
      // `base` rebases every observed/journaled/reported step back to the
      // uninterrupted run's numbering.
      long long base = 0;
      std::optional<md::SystemState> resume_state;
      if (hooks) {
        const auto it = hooks->resume.find(r);
        if (it != hooks->resume.end()) {
          base = std::min<long long>(it->second.first, req.steps);
          resume_state = it->second.second;
        }
      }
      if (hooks && hooks->checkpoint_path) {
        scfg.checkpoint_path_for = [hooks, r, base](long long step) {
          return hooks->checkpoint_path(r, base + step);
        };
      }

      engine::StepObserver* user_obs = nullptr;
      if (observers) user_obs = (*observers)(r);
      ResumeShimObserver shim(user_obs, base, r, hooks);
      std::vector<engine::StepObserver*> obs;
      if (user_obs || (hooks && hooks->checkpointed)) obs.push_back(&shim);
      try {
        supervisor::Supervisor sup(
            resume_state ? std::move(*resume_state)
                         : make_replica_state(req, r),
            ff, spec, scfg);
        const supervisor::RunReport report =
            sup.run(static_cast<int>(req.steps - base), obs);
        rep.steps = report.steps + base;
        fill_energies(rep, report.final_energies);
        fill_state(rep, report.final_state, req.return_state);
        if (report.completed) {
          rep.outcome =
              report.degraded ? JobOutcome::kDegraded : JobOutcome::kOk;
        } else {
          rep.error = report.final_error;
          rep.outcome = JobOutcome::kIncomplete;
          if (!report.incidents.empty()) {
            switch (report.incidents.back().kind) {
              case supervisor::IncidentKind::kDegradedLink:
                rep.outcome = JobOutcome::kDegradedLink;
                break;
              case supervisor::IncidentKind::kNodeFailure:
                rep.outcome = JobOutcome::kNodeFailure;
                break;
              case supervisor::IncidentKind::kOther: break;
            }
          }
        }
      } catch (const std::exception& e) {
        rep.outcome = JobOutcome::kIncomplete;
        rep.error = e.what();
      }
    }
  } else {
    std::vector<engine::BatchJob> jobs(static_cast<std::size_t>(req.replicas));
    for (int r = 0; r < req.replicas; ++r) {
      engine::BatchJob& job = jobs[static_cast<std::size_t>(r)];
      job.label = replica_label(r);
      job.state = make_replica_state(req, r);
      job.ff = ff;
      job.spec = spec;
      job.steps = req.steps;
      // Drive through engine::run (not bare step) so both the daemon and
      // the direct comparison path take the identical sample-chunked
      // stepping; the observer only reads state, never perturbs it.
      job.body = [&req, observers, r](engine::ReplicaContext& ctx) {
        std::vector<engine::StepObserver*> obs;
        if (observers) {
          if (engine::StepObserver* o = (*observers)(r)) obs.push_back(o);
        }
        const engine::RunResult rr =
            engine::run(ctx.engine(), req.steps, req.sample, obs);
        return rr.final_energies.total;
      };
    }
    engine::BatchRunner runner(static_cast<std::size_t>(req.batch_workers));
    const engine::BatchReport report = runner.run(jobs);
    for (std::size_t r = 0; r < report.replicas.size(); ++r) {
      const engine::ReplicaResult& res = report.replicas[r];
      ReplicaOutcome& rep = out.replicas[r];
      rep.label = res.label;
      rep.steps = res.steps;
      rep.error = res.error;
      if (res.ok) {
        rep.outcome = JobOutcome::kOk;
      } else {
        switch (res.failure) {
          case engine::ReplicaFailure::kDegradedLink:
            rep.outcome = JobOutcome::kDegradedLink;
            break;
          case engine::ReplicaFailure::kNodeFailure:
            rep.outcome = JobOutcome::kNodeFailure;
            break;
          default: rep.outcome = JobOutcome::kIncomplete; break;
        }
      }
      fill_energies(rep, res.final_energies);
      fill_state(rep, res.final_state, req.return_state);
    }
  }

  out.outcome = worst_outcome(out.replicas);
  out.exit_code = job_outcome_exit_code(out.outcome);
  out.wall_seconds = wall.seconds();
  return out;
}

std::string JobResult::to_json(bool deterministic_only) const {
  std::string out = "{";
  out += "\"job\":" + std::to_string(job_id);
  out += ",\"outcome\":" + json::quoted(job_outcome_name(outcome));
  out += ",\"exit_code\":" + std::to_string(exit_code);
  if (!deterministic_only) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", wall_seconds);
    out += std::string(",\"wall_seconds\":") + buf;
  }
  out += ",\"replicas\":[";
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaOutcome& r = replicas[i];
    if (i) out += ',';
    out += "{\"label\":" + json::quoted(r.label);
    out += ",\"outcome\":" + json::quoted(job_outcome_name(r.outcome));
    if (!r.error.empty()) out += ",\"error\":" + json::quoted(r.error);
    out += ",\"steps\":" + std::to_string(r.steps);
    out += ",\"potential\":" + json::quoted(u64_hex(r.potential_bits));
    out += ",\"kinetic\":" + json::quoted(u64_hex(r.kinetic_bits));
    out += ",\"total\":" + json::quoted(u64_hex(r.total_bits));
    out += ",\"temperature\":" + json::quoted(u64_hex(r.temperature_bits));
    out += ",\"state_crc32\":" + std::to_string(r.state_crc32);
    if (!r.state_hex.empty()) out += ",\"state\":" + json::quoted(r.state_hex);
    out += "}";
  }
  out += "]}";
  return out;
}

std::optional<JobResult> JobResult::from_json(const json::Value& v,
                                              std::string& error) {
  if (!v.is_object()) {
    error = "result payload must be a JSON object";
    return std::nullopt;
  }
  JobResult out;
  const json::Value* job = v.find("job");
  if (!job || !job->is_number() || !job->integral || job->integer < 0) {
    error = "result missing job id";
    return std::nullopt;
  }
  out.job_id = static_cast<std::uint64_t>(job->integer);
  const json::Value* outcome = v.find("outcome");
  if (!outcome || !outcome->is_string()) {
    error = "result missing outcome";
    return std::nullopt;
  }
  const auto parsed = job_outcome_from_name(outcome->string);
  if (!parsed) {
    error = "unknown outcome \"" + outcome->string + "\"";
    return std::nullopt;
  }
  out.outcome = *parsed;
  if (const json::Value* ec = v.find("exit_code")) {
    out.exit_code = static_cast<int>(ec->int_or(1));
  }
  if (const json::Value* w = v.find("wall_seconds")) {
    out.wall_seconds = w->num_or(0);
  }
  const json::Value* reps = v.find("replicas");
  if (!reps || !reps->is_array()) {
    error = "result missing replicas";
    return std::nullopt;
  }
  for (const json::Value& item : reps->items) {
    if (!item.is_object()) {
      error = "replica entries must be objects";
      return std::nullopt;
    }
    ReplicaOutcome rep;
    if (const json::Value* l = item.find("label")) rep.label = l->str_or("");
    const json::Value* ro = item.find("outcome");
    const auto rparsed =
        ro && ro->is_string() ? job_outcome_from_name(ro->string)
                              : std::nullopt;
    if (!rparsed) {
      error = "replica missing outcome";
      return std::nullopt;
    }
    rep.outcome = *rparsed;
    if (const json::Value* e = item.find("error")) rep.error = e->str_or("");
    if (const json::Value* s = item.find("steps")) rep.steps = s->int_or(0);
    const auto bits_field = [&](const char* key, std::uint64_t& bits) {
      const json::Value* m = item.find(key);
      if (!m || !m->is_string() || !parse_u64_hex(m->string, bits)) {
        error = std::string("replica missing/invalid ") + key;
        return false;
      }
      return true;
    };
    if (!bits_field("potential", rep.potential_bits) ||
        !bits_field("kinetic", rep.kinetic_bits) ||
        !bits_field("total", rep.total_bits) ||
        !bits_field("temperature", rep.temperature_bits)) {
      return std::nullopt;
    }
    if (const json::Value* c = item.find("state_crc32")) {
      rep.state_crc32 = static_cast<std::uint32_t>(c->int_or(0));
    }
    if (const json::Value* s = item.find("state")) {
      rep.state_hex = s->str_or("");
    }
    out.replicas.push_back(std::move(rep));
  }
  return out;
}

}  // namespace fasda::serve
