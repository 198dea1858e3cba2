#pragma once
// Job model for fasda_serve (DESIGN.md §15): what a tenant submits, what
// comes back, and the one execution path both the daemon and the direct
// BatchRunner comparison share.
//
// Determinism contract: execute_job() is a pure function of the JobRequest
// — the workload is regenerated from (space, per_cell, seed, …) with
// md::generate_dataset, replica r uses seed + r, and every replica runs
// through engine::BatchRunner whose per-replica results are worker-count
// independent (DESIGN.md §9). A JobResult produced by the daemon is
// therefore bitwise identical to one produced by calling execute_job()
// in-process, for any queue worker count and across daemon restarts —
// tests/serve_test.cpp proves it over a real loopback socket. To make
// "bitwise" checkable through a JSON protocol, energies travel as f64 bit
// patterns and the optional final state as hex-encoded bytes, never as
// decimal floats.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fasda/engine/batch_runner.hpp"
#include "fasda/engine/observers.hpp"
#include "fasda/serve/json.hpp"

namespace fasda::serve {

/// Admission resource caps (enforced by JobRequest::validate, so an
/// over-budget submit is a typed bad-request, never an allocation). The
/// daemon is shared across a trust boundary: without these, one request
/// for a huge space × per_cell × replicas product would OOM-kill every
/// tenant's jobs at make_replica_state time.
inline constexpr long long kMaxCellsPerAxis = 1024;
inline constexpr std::uint64_t kMaxSpaceCells = 1ull << 20;
inline constexpr std::uint64_t kMaxReplicaParticles = 1ull << 22;
inline constexpr std::uint64_t kMaxJobParticles = 1ull << 24;
/// return_state ships ~98 hex chars per particle in one kResult frame;
/// this keeps the worst-case result comfortably under wire.hpp's
/// 16 MiB kMaxFrameBytes (2^17 × 98 ≈ 12.3 MiB plus JSON overhead).
inline constexpr std::uint64_t kMaxReturnStateParticles = 1ull << 17;

/// One submitted job: a tenant, scheduling hints, the generated workload,
/// and the engine configuration for every replica of the ensemble.
struct JobRequest {
  std::string tenant = "default";
  /// Client-chosen dedup key (<= 128 chars; "" = none). A durable server
  /// remembers key -> job id across restarts, so resubmitting after an
  /// ambiguous crash (kAccepted lost in flight) attaches to the original
  /// job instead of double-running it (DESIGN.md §16).
  std::string idempotency;
  int priority = 0;    ///< higher runs first; ties break by arrival seq
  int replicas = 1;    ///< ensemble width; replica r gets seed + r
  int steps = 10;      ///< timesteps per replica
  int sample = 0;      ///< status-publish granularity; <= 0 = one block

  // Workload (md::generate_dataset over space cells of edge 8.5 Å).
  std::string space = "333";
  int per_cell = 8;
  std::uint64_t seed = 0x5eed;
  double temperature = 300.0;
  std::string forcefield = "na";  ///< na | nacl

  // Engine configuration (mirrors the fasda_md flags).
  std::string engine = "functional";
  double dt = 2.0;
  bool ewald = false;
  int threads = 1;            ///< reference/functional worker threads
  std::string cells;          ///< cycle engine: cells per node; "" = space
  int pes = 1;
  int spes = 1;
  int workers = 1;            ///< cycle-scheduler threads
  std::string faults;         ///< net::FaultPlan::parse spec; "" = none

  // Execution policy.
  int batch_workers = 1;      ///< BatchRunner threads for the ensemble
  bool supervise = false;     ///< run each replica under the supervisor
  int checkpoint_every = 0;   ///< supervised: steps between checkpoints
  int max_restarts = 3;
  bool allow_degraded = false;
  bool return_state = false;  ///< include hex final state per replica

  /// Parses a submit payload. Unknown keys are ignored (forward
  /// compatibility); a type-mismatched or out-of-range value fails with a
  /// one-line diagnostic in `error`. The retired process-worker and
  /// tick-mode keys of older requests and journals land here too: both only
  /// picked a bitwise-identical execution path, so the job replays in
  /// process with the same result.
  static std::optional<JobRequest> from_json(const json::Value& v,
                                             std::string& error);
  std::string to_json() const;

  /// Validates semantics that from_json cannot see alone (engine name
  /// registered, space/cells parse, faults spec parses, cycle-only flags).
  /// Returns a diagnostic or empty for OK.
  std::string validate() const;
};

/// Typed job outcome mapping the fasda_md exit-code taxonomy
/// (DESIGN.md §15): ok(0), degraded(4, completed on a re-sharded
/// topology), degraded-link(2), node-failure(3), incomplete(1).
enum class JobOutcome : std::uint8_t {
  kOk = 0,
  kDegraded,
  kDegradedLink,
  kNodeFailure,
  kIncomplete,
};

const char* job_outcome_name(JobOutcome o);
int job_outcome_exit_code(JobOutcome o);
std::optional<JobOutcome> job_outcome_from_name(std::string_view name);

/// Per-replica result. Energies are f64 bit patterns (hex); state_hex is
/// the byte-exact final state when the request asked for it; state_crc32
/// covers the same encoding always, so a client can verify bitwise
/// determinism without shipping the coordinates.
struct ReplicaOutcome {
  std::string label;
  JobOutcome outcome = JobOutcome::kIncomplete;
  std::string error;          ///< exception text when not kOk/kDegraded
  long long steps = 0;
  std::uint64_t potential_bits = 0;
  std::uint64_t kinetic_bits = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t temperature_bits = 0;
  std::uint32_t state_crc32 = 0;
  std::string state_hex;      ///< empty unless return_state
};

struct JobResult {
  std::uint64_t job_id = 0;
  JobOutcome outcome = JobOutcome::kIncomplete;  ///< worst replica outcome
  int exit_code = 1;
  std::vector<ReplicaOutcome> replicas;
  double wall_seconds = 0;  ///< excluded from the determinism contract

  static std::optional<JobResult> from_json(const json::Value& v,
                                            std::string& error);
  /// `deterministic_only` drops the wall-clock field so two results can be
  /// compared as strings.
  std::string to_json(bool deterministic_only = false) const;
};

/// Byte-exact state codec backing state_hex/state_crc32: cell_dims,
/// cell_size, then per-particle position/velocity f64 bits and element.
std::string encode_state_hex(const md::SystemState& state);
std::optional<md::SystemState> decode_state_hex(const std::string& hex);
std::uint32_t state_crc32(const md::SystemState& state);

/// Builds the engine spec the request describes. Throws
/// std::invalid_argument on specs validate() would reject.
engine::EngineSpec engine_spec_for(const JobRequest& req);

/// Generates replica r's initial state (seed + r, quantized dataset).
md::SystemState make_replica_state(const JobRequest& req, int replica);

/// Runs the whole ensemble and folds it into a JobResult. `observers`
/// (optional, may be null) yields a per-replica StepObserver the engine
/// run loop calls at every sample — the daemon hangs its streaming-status
/// publisher here; the direct path passes nullptr and still steps through
/// the identical engine::run() chunking, so observation never perturbs
/// results. Supervised requests run replicas sequentially under
/// supervisor::Supervisor; everything else goes through BatchRunner.
using ReplicaObserverFactory =
    std::function<engine::StepObserver*(int replica)>;

/// Durability hand-off between execute_job and the serve journal
/// (DESIGN.md §16). Only supervised jobs participate: the supervisor is
/// the layer that banks checkpoints, so non-supervised jobs recover by
/// deterministic re-run from scratch instead.
struct ExecutionHooks {
  /// Step-stamped checkpoint file for (replica, absolute step); "" skips
  /// the save. The supervisor writes the file (atomic tmp+rename) BEFORE
  /// `checkpointed` fires for the same step.
  std::function<std::string(int replica, long long step)> checkpoint_path;
  /// Called after the checkpoint file for (replica, absolute step) is
  /// durable — the journal appends its kCheckpoint record here.
  std::function<void(int replica, long long step)> checkpointed;
  /// Resume points: replica -> (banked step, checkpointed state). A listed
  /// replica restarts from that state and runs the remaining steps; its
  /// observers and result report absolute steps, so the output is bitwise
  /// identical to an uninterrupted run (the PR 4 supervisor guarantee
  /// lifted through the serve boundary).
  std::map<int, std::pair<long long, md::SystemState>> resume;
};

JobResult execute_job(std::uint64_t job_id, const JobRequest& req,
                      const ReplicaObserverFactory* observers = nullptr,
                      const ExecutionHooks* hooks = nullptr);

}  // namespace fasda::serve
