#pragma once
// Metrics registry (DESIGN.md §12): named counters / gauges / histograms
// owned per simulated node. Registration resolves a name to a Handle once;
// after that the hot path is a bounds-free indexed add into a plain uint64
// slot, cheap enough to stay on inside Fabric::commit or an FSM transition.
//
// Sharding mirrors the scheduler contract (DESIGN.md §8): slot shard i is
// written only by whichever worker thread ticks node i, the cluster shard
// (node = kClusterNode) only from single-threaded phases (fabric commit,
// the run_until caller). Registration and snapshotting happen between runs
// on the caller thread. Under those rules no locks are needed and a
// snapshot — which merges the shards in node-id order — is bitwise
// identical for any worker count.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fasda::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Slot index with the metric kind packed into the top two bits, so the
/// hot-path add/set/observe is a single indexed write with no name lookup.
using Handle = std::uint32_t;

/// Shard id for cluster-wide metrics (written single-threaded only).
inline constexpr int kClusterNode = -1;

/// Histograms bucket by bit width: bucket k counts values v with
/// bit_width(v) == k (v = 0 lands in bucket 0), capped at the last bucket.
inline constexpr int kHistogramBuckets = 65;

const char* metric_kind_name(MetricKind kind);

/// Deterministic point-in-time view of a Registry: series sorted by name,
/// per-node breakdowns sorted by node id, shards already merged.
struct MetricsSnapshot {
  struct Series {
    std::string name;
    std::string help;  ///< exporter HELP text; empty = use the name
    MetricKind kind = MetricKind::kCounter;
    // Counters: total is the sum over shards; per_node lists the nonzero
    // shards. Gauges: value is the cluster slot (or, if only per-node slots
    // were set, the last node's); per_node_values lists every touched slot.
    std::uint64_t total = 0;
    double value = 0.0;
    std::vector<std::pair<int, std::uint64_t>> per_node;
    std::vector<std::pair<int, double>> per_node_values;
    // Histograms: buckets merged across shards, plus the exact sum of all
    // observed values (u64 wraparound adds, so merging stays
    // order-independent) for native Prometheus `_sum` exposition.
    std::vector<std::uint64_t> buckets;
    std::uint64_t sum = 0;

    std::uint64_t bucket_count() const;
  };

  std::vector<Series> series;  // sorted by name

  const Series* find(std::string_view name) const;
  std::uint64_t counter_total(std::string_view name) const;
  std::uint64_t counter(std::string_view name, int node) const;
  double gauge_or(std::string_view name, double fallback = 0.0) const;

  /// Folds `other` in: counters and histogram buckets add, gauges take
  /// `other`'s value where it has one. Series order stays name-sorted.
  void merge(const MetricsSnapshot& other);

  std::string to_json() const;
  std::string to_prometheus() const;
};

class Registry {
 public:
  /// Registers (or re-resolves) a metric. Same name + same kind returns the
  /// same handle; same name under a different kind throws
  /// std::invalid_argument. Single-threaded: never call during a run.
  /// `help` is exporter HELP text; the first non-empty help wins.
  Handle counter(std::string_view name, std::string_view help = {});
  Handle gauge(std::string_view name, std::string_view help = {});
  Handle histogram(std::string_view name, std::string_view help = {});

  /// Grows the shard set to cover nodes [0, count). Never shrinks, so a
  /// degraded re-shard keeps publishing into the same registry.
  void ensure_nodes(int count);
  int num_nodes() const { return static_cast<int>(shards_.size()) - 1; }

  // ---- hot path (node = owning shard, kClusterNode for cluster slots) ----
  void add(int node, Handle h, std::uint64_t delta = 1) noexcept {
    shards_[static_cast<std::size_t>(node + 1)].counters[slot_of(h)] += delta;
  }
  /// Overwrites a counter slot with an externally accumulated total —
  /// idempotent publishing of already-counted stats (TrafficMatrix,
  /// LinkStats) into the registry.
  void set_counter(int node, Handle h, std::uint64_t total) noexcept {
    shards_[static_cast<std::size_t>(node + 1)].counters[slot_of(h)] = total;
  }
  void set(int node, Handle h, double value) noexcept {
    auto& shard = shards_[static_cast<std::size_t>(node + 1)];
    shard.gauges[slot_of(h)] = value;
    shard.gauge_set[slot_of(h)] = 1;
  }
  void observe(int node, Handle h, std::uint64_t value) noexcept;

  std::uint64_t counter_value(int node, Handle h) const {
    return shards_[static_cast<std::size_t>(node + 1)].counters[slot_of(h)];
  }

  /// Merges the shards in node-id order into a name-sorted snapshot.
  MetricsSnapshot snapshot() const;

 private:
  struct Shard {
    std::vector<std::uint64_t> counters;
    std::vector<double> gauges;
    std::vector<std::uint8_t> gauge_set;
    std::vector<std::uint64_t> hist;  // kHistogramBuckets per histogram slot
    std::vector<std::uint64_t> hist_sum;  // one running sum per slot
  };
  struct Meta {
    std::string name;
    std::string help;
    MetricKind kind;
    Handle handle;
  };

  static constexpr std::uint32_t kSlotMask = (1u << 30) - 1;
  static std::uint32_t slot_of(Handle h) noexcept { return h & kSlotMask; }
  static MetricKind kind_of(Handle h) noexcept {
    return static_cast<MetricKind>(h >> 30);
  }
  static Handle make_handle(MetricKind kind, std::uint32_t slot) noexcept {
    return (static_cast<Handle>(kind) << 30) | slot;
  }

  Handle register_metric(std::string_view name, MetricKind kind,
                         std::string_view help = {});
  void resize_shard(Shard& shard) const;

  std::vector<Meta> metas_;             // registration order
  std::array<std::uint32_t, 3> next_slot_{0, 0, 0};
  std::vector<Shard> shards_{1};        // [0] = cluster, [i + 1] = node i
};

/// Fig. 18 egress breakdown sourced from the registry: the share (percent)
/// of `src`'s data packets on channel `ch` ("net.pos" / "net.frc" /
/// "net.mig") sent to each destination node, in node-id order. Replaces the
/// per-bench aggregation that used to live in fig18_communication.
std::vector<double> egress_percentages(const MetricsSnapshot& snap,
                                       std::string_view channel, int src,
                                       int num_nodes);

}  // namespace fasda::obs
