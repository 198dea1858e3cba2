#pragma once
// Chained synchronization (§4.4, Figs. 12-13).
//
// Each node exchanges "last position" / "last force" signals with its
// immediate neighbours only (the signals ride the final packet of each
// stream, net::Packet::last). A node may advance to motion update once all
// four criteria hold — last position sent and received, last force sent and
// received, each counted against the number of neighbouring nodes — and the
// motion-update phase uses the simplified single-signal variant. There is
// no global barrier: distant nodes decouple from a straggler and get a head
// start into the next iteration.
//
// BulkBarrier models the conventional alternative (Fig. 12 left): every
// node arrives at a central coordinator and is released `release_latency`
// cycles after the slowest arrival. Used by the synchronization ablation.

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "fasda/net/fault.hpp"
#include "fasda/sim/kernel.hpp"

namespace fasda::sync {

enum class SyncMode { kChained, kBulk };

/// Raised when a sync round cannot complete because the retransmit protocol
/// declared a fabric link dead (net::DegradedLink): the chained-sync `last`
/// signal for that neighbour will never arrive, so the run surfaces a typed
/// error instead of spinning until the cycle budget trips. Thrown by
/// core::Simulation::run on the caller's thread, between scheduler cycles —
/// never from inside a worker tick.
class DegradedLinkError : public std::runtime_error {
 public:
  DegradedLinkError(const net::DegradedLink& link, std::string channel)
      : std::runtime_error(
            "sync: " + channel + " link " + std::to_string(link.src) + "->" +
            std::to_string(link.dst) + " degraded after " +
            std::to_string(link.retries) + " retries at cycle " +
            std::to_string(link.detected_at) + " (seq " +
            std::to_string(link.seq) + ")"),
        link_(link),
        channel_(std::move(channel)) {}

  const net::DegradedLink& link() const { return link_; }
  const std::string& channel() const { return channel_; }

 private:
  net::DegradedLink link_;
  std::string channel_;
};

/// Raised when an FPGA node itself stops making progress: its per-cycle
/// heartbeat (FpgaNode::tick stamps the current cycle whenever the node is
/// alive) has gone stale past the watchdog budget, or the retransmit
/// protocol degraded a link whose destination node is no longer ticking —
/// the node died, not the wire. Carries which node, which FSM phase it
/// stalled in, and for how many cycles. Like DegradedLinkError this is
/// thrown by core::Simulation::run on the caller's thread between scheduler
/// cycles, never from inside a worker tick.
class NodeFailureError : public std::runtime_error {
 public:
  NodeFailureError(int node, std::string phase, sim::Cycle cycles_stalled,
                   sim::Cycle detected_at)
      : std::runtime_error("sync: node " + std::to_string(node) +
                           " unresponsive in phase '" + phase + "' for " +
                           std::to_string(cycles_stalled) +
                           " cycles (detected at cycle " +
                           std::to_string(detected_at) + ")"),
        node_(node),
        phase_(std::move(phase)),
        cycles_stalled_(cycles_stalled),
        detected_at_(detected_at) {}

  int node() const { return node_; }
  const std::string& phase() const { return phase_; }
  sim::Cycle cycles_stalled() const { return cycles_stalled_; }
  sim::Cycle detected_at() const { return detected_at_; }

 private:
  int node_;
  std::string phase_;
  sim::Cycle cycles_stalled_;
  sim::Cycle detected_at_;
};

/// Per-node signal counters for one iteration.
class ChainedSync {
 public:
  explicit ChainedSync(int num_neighbors) : neighbors_(num_neighbors) {}

  void begin_iteration() {
    pos_received_ = frc_received_ = mu_received_ = 0;
    pos_sent_ = frc_sent_ = mu_sent_ = false;
  }

  void on_last_position_received() { ++pos_received_; }
  void on_last_force_received() { ++frc_received_; }
  void on_last_mu_received() { ++mu_received_; }

  void mark_last_position_sent() { pos_sent_ = true; }
  void mark_last_force_sent() { frc_sent_ = true; }
  void mark_last_mu_sent() { mu_sent_ = true; }

  bool last_position_sent() const { return pos_sent_; }
  bool last_force_sent() const { return frc_sent_; }
  bool last_mu_sent() const { return mu_sent_; }

  bool all_positions_received() const { return pos_received_ >= neighbors_; }
  bool all_forces_received() const { return frc_received_ >= neighbors_; }
  bool all_mu_received() const { return mu_received_ >= neighbors_; }

  /// The four §4.4 criteria.
  bool may_enter_motion_update() const {
    return pos_sent_ && frc_sent_ && all_positions_received() &&
           all_forces_received();
  }

  bool may_finish_motion_update() const { return mu_sent_ && all_mu_received(); }

  int num_neighbors() const { return neighbors_; }

 private:
  int neighbors_;
  int pos_received_ = 0, frc_received_ = 0, mu_received_ = 0;
  bool pos_sent_ = false, frc_sent_ = false, mu_sent_ = false;
};

/// Global barrier with a release latency (host round trip or central-FPGA
/// hop). A node arrives once per (iteration, phase) sequence number and is
/// released `release_latency` cycles after the slowest arrival.
///
/// Shared across every FPGA-node shard, so arrive()/released() take an
/// internal mutex: both are called from concurrent shard ticks under the
/// parallel scheduler. The outcome stays independent of arrival order
/// within a cycle — and therefore bitwise identical to serial — as long as
/// release_latency >= 1, because a generation completed at cycle N is only
/// ever releasable at N + release_latency > N (core::Simulation enforces
/// the precondition when parallel execution is requested).
class BulkBarrier {
 public:
  BulkBarrier(int num_nodes, sim::Cycle release_latency)
      : num_nodes_(num_nodes), release_latency_(release_latency) {}

  void arrive(std::uint64_t seq, sim::Cycle now) {
    std::lock_guard lock(mutex_);
    Generation& g = generations_[seq];
    if (g.arrived >= num_nodes_) {
      throw std::logic_error("BulkBarrier: more arrivals than nodes");
    }
    if (++g.arrived == num_nodes_) {
      g.release_at = now + release_latency_;
      // Elision poke: nodes already waiting on this generation reported no
      // wake of their own (release_cycle was nullopt when they were swept),
      // so a scheduler with their shards asleep must hear the release got
      // scheduled. The hook must be thread-safe — the completing arrival
      // happens inside a concurrent shard tick.
      if (wake_hook_) wake_hook_(g.release_at);
    }
  }

  /// See arrive(). Wired once at cluster construction, before any ticks.
  void set_wake_hook(std::function<void(sim::Cycle)> hook) {
    wake_hook_ = std::move(hook);
  }

  bool released(std::uint64_t seq, sim::Cycle now) const {
    std::lock_guard lock(mutex_);
    const auto it = generations_.find(seq);
    return it != generations_.end() && it->second.arrived == num_nodes_ &&
           now >= it->second.release_at;
  }

  /// Elision wake oracle: the cycle released(seq, ·) turns true, or nullopt
  /// while the generation is still filling (a waiting node then sleeps
  /// until another node's arrival executes a cycle and triggers a fresh
  /// wake sweep). Called single-threaded between cycles.
  std::optional<sim::Cycle> release_cycle(std::uint64_t seq) const {
    std::lock_guard lock(mutex_);
    const auto it = generations_.find(seq);
    if (it == generations_.end() || it->second.arrived != num_nodes_) {
      return std::nullopt;
    }
    return it->second.release_at;
  }

 private:
  struct Generation {
    int arrived = 0;
    sim::Cycle release_at = 0;
  };

  int num_nodes_;
  sim::Cycle release_latency_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Generation> generations_;
  std::function<void(sim::Cycle)> wake_hook_;
};

}  // namespace fasda::sync
