#pragma once
// Inter-FPGA communication (§4.3, Figs. 10-11).
//
// Records are packed four to a 512-bit AXI-Stream packet. Departures are
// paced by a per-board cooldown counter ("we limit the transmission of each
// board to once per several cycles", §5.4) so traffic peaks cannot
// overwhelm the switch. Packets cross a constant-latency link (switch
// time-of-flight) in order per source, and are unpacked at the destination
// one record per cycle ("the data is then serialized and sent to the EX
// node"). A `last` flag rides the final packet of a stream and implements
// the chained-synchronization signals of §4.4.
//
// An Endpoint is one node's attachment to one traffic class (positions and
// forces use separate QSFP ports in the paper; migrations get a third
// logical channel). A Fabric routes packets between the endpoints of one
// traffic class and records the per-pair traffic matrix behind Fig. 18.
//
// Reliability (PR 3): the physical links are UDP over a 100 GbE switch, so
// packets can be lost, duplicated, reordered or corrupted. An Endpoint that
// has been armed via arm_reliability() stamps every data packet with a
// per-link sequence number and a field-wise CRC-32, acknowledges received
// data with out-of-band control packets (cumulative ack + optional nack),
// buffers unacknowledged packets for retransmission with a bounded
// exponential backoff, and declares the link degraded after max_retries.
// All endpoints of a fabric must be armed together: Fabric::set_fault_plan
// makes the wire lossy, and only armed endpoints recover. An *unarmed*
// endpoint behaves bit-for-bit as before this layer existed; an armed
// endpoint on a perfect wire keeps identical data-packet timing (acks are
// out-of-band and counted separately), which the golden-figure guard pins.
//
// Cross-shard contract (parallel scheduler): the Fabric is the ONLY channel
// between FPGA-node shards, and it is two-phase. send() during tick only
// stages the packet in a per-source slot — no other shard's endpoint state
// is touched — and commit() (run single-threaded by the scheduler, the
// Fabric registers as a kGlobalShard clocked element) delivers staged
// packets to destination endpoints in ascending source-id order. Because
// link_latency >= 1 (enforced below), a delivered packet only ever becomes
// pollable in a *later* cycle, so no shard can observe another shard's
// same-cycle traffic — the property that makes parallel ticking bitwise
// identical to serial. Fault injection happens inside commit(), drawing
// from per-link RNG streams, so a FaultPlan produces the same fault
// sequence for any worker count.

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fasda/idmap/cell_id_map.hpp"
#include "fasda/net/fault.hpp"
#include "fasda/ring/tokens.hpp"
#include "fasda/sim/kernel.hpp"

namespace fasda::net {

inline constexpr int kRecordsPerPacket = 4;
inline constexpr int kPacketBits = 512;

/// Remote position record: carries the GCID; the receiver converts to LCID
/// on arrival (§4.2).
struct PosRecord {
  geom::IVec3 src_gcell;
  fixed::FixedVec3 offset;
  md::ElementId elem = 0;
  std::uint16_t slot = 0;
};

/// Remote force record: destination carried as GCID for the same reason.
struct FrcRecord {
  geom::IVec3 dest_gcell;
  geom::Vec3f force;
  std::uint16_t slot = 0;
};

/// Remote migration record (motion-update phase).
struct MigRecord {
  geom::IVec3 dest_gcell;
  fixed::FixedVec3 offset;
  geom::Vec3f vel;
  md::ElementId elem = 0;
  std::uint32_t particle_id = 0;
};

// CRC input is fed field by field so struct padding bytes never enter the
// digest (byte-hashing the whole struct would be indeterminate).

inline void hash_record(Crc32& crc, const PosRecord& r) {
  crc.add(r.src_gcell.x);
  crc.add(r.src_gcell.y);
  crc.add(r.src_gcell.z);
  crc.add(r.offset.x.raw());
  crc.add(r.offset.y.raw());
  crc.add(r.offset.z.raw());
  crc.add(r.elem);
  crc.add(r.slot);
}

inline void hash_record(Crc32& crc, const FrcRecord& r) {
  crc.add(r.dest_gcell.x);
  crc.add(r.dest_gcell.y);
  crc.add(r.dest_gcell.z);
  crc.add(r.force.x);
  crc.add(r.force.y);
  crc.add(r.force.z);
  crc.add(r.slot);
}

inline void hash_record(Crc32& crc, const MigRecord& r) {
  crc.add(r.dest_gcell.x);
  crc.add(r.dest_gcell.y);
  crc.add(r.dest_gcell.z);
  crc.add(r.offset.x.raw());
  crc.add(r.offset.y.raw());
  crc.add(r.offset.z.raw());
  crc.add(r.vel.x);
  crc.add(r.vel.y);
  crc.add(r.vel.z);
  crc.add(r.elem);
  crc.add(r.particle_id);
}

// Bit-flip corruption targets a real payload field (never padding), so a
// corrupted packet always fails its CRC check at the receiver.

inline void corrupt_record(PosRecord& r, std::uint64_t rnd) {
  r.offset.x = fixed::FixedCoord::from_raw(
      r.offset.x.raw() ^ (1u << (rnd % 32)));
}

inline void corrupt_record(FrcRecord& r, std::uint64_t rnd) {
  r.force.x = std::bit_cast<float>(
      std::bit_cast<std::uint32_t>(r.force.x) ^ (1u << (rnd % 32)));
}

inline void corrupt_record(MigRecord& r, std::uint64_t rnd) {
  r.vel.x = std::bit_cast<float>(
      std::bit_cast<std::uint32_t>(r.vel.x) ^ (1u << (rnd % 32)));
}

enum class PacketKind : std::uint8_t {
  kData,     ///< sequenced payload, subject to ack/retransmit when armed
  kControl,  ///< out-of-band cumulative ack / nack, never retransmitted
};

template <class R>
struct Packet {
  std::array<R, kRecordsPerPacket> records{};
  int count = 0;
  bool last = false;
  NodeId src = -1;
  NodeId dst = -1;
  // Reliability header, stamped only by armed endpoints.
  PacketKind kind = PacketKind::kData;
  std::uint64_t seq = 0;   ///< data: per-(src,dst) sequence number
  std::uint64_t ack = 0;   ///< control: cumulative — every seq < ack received
  std::uint64_t nack = 0;  ///< control: first missing seq (valid iff has_nack)
  bool has_nack = false;
  bool retransmit = false;  ///< diagnostic: data resent after timeout/nack
  std::uint32_t crc = 0;
};

/// Field-wise CRC over header and payload. `retransmit` is deliberately
/// excluded: a retransmitted copy must verify against the original digest.
template <class R>
std::uint32_t packet_crc(const Packet<R>& p) {
  Crc32 crc;
  crc.add(static_cast<std::uint8_t>(p.kind));
  crc.add(p.seq);
  crc.add(p.ack);
  crc.add(p.nack);
  crc.add(static_cast<std::uint8_t>(p.has_nack));
  crc.add(p.count);
  crc.add(static_cast<std::uint8_t>(p.last));
  crc.add(p.src);
  crc.add(p.dst);
  for (int i = 0; i < p.count; ++i) hash_record(crc, p.records[i]);
  return crc.value();
}

/// Flips one payload bit; a header-only packet has its stream-end flag
/// flipped instead. Either way the receiver's CRC check catches it.
template <class R>
void corrupt_packet(Packet<R>& p, std::uint64_t rnd) {
  if (p.count > 0) {
    corrupt_record(p.records[rnd % static_cast<std::uint64_t>(p.count)],
                   rnd / 13);
  } else {
    p.last = !p.last;
  }
}

struct ChannelConfig {
  sim::Cycle link_latency = 200;  ///< cycles; ~1 µs through the switch
  /// Minimum cycles between departures (the §5.4 cooldown counter). 2
  /// caps a port at 51.2 Gbps — still spreading peaks well below the
  /// 100 Gbps line rate while keeping the encapsulators off the critical
  /// path of the strongest-scaling variant.
  int cooldown = 2;
};

/// Per-(src,dst) traffic counts for one channel.
struct TrafficMatrix {
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> packets;
  std::uint64_t total_packets = 0;
  /// Reliability traffic, counted separately so the Fig. 18 data numbers
  /// stay comparable whether or not the protocol is armed: acks/nacks land
  /// in control_packets only, while retransmitted data counts in both
  /// packets and retransmit_packets (it is real switch load).
  std::uint64_t control_packets = 0;
  std::uint64_t retransmit_packets = 0;

  void record(NodeId src, NodeId dst) {
    packets[{src, dst}]++;
    total_packets++;
  }
};

template <class R>
class Endpoint {
 public:
  Endpoint(NodeId self, const ChannelConfig& config)
      : self_(self), config_(config) {}

  NodeId self() const { return self_; }

  /// Turns on sequence numbers, CRC stamping and the ack/retransmit
  /// protocol. Must be called on every endpoint of a fabric (arming is
  /// all-or-nothing per channel) before any traffic flows. An armed
  /// endpoint additionally needs tick_protocol() pumped every cycle.
  void arm_reliability(const ReliabilityConfig& rc = {}) {
    armed_ = true;
    rel_ = rc;
    if (rel_.rto == 0) {
      rel_.rto = 2 * config_.link_latency +
                 4 * static_cast<sim::Cycle>(config_.cooldown) + 64;
    }
    if (rel_.max_backoff == 0) rel_.max_backoff = 8 * rel_.rto;
  }

  bool reliable() const { return armed_; }

  // ---- egress ----

  /// Adds a record to the packing buffer for `dst` (a P2R/F2R encapsulator
  /// register set, Fig. 11); a full buffer becomes a ready packet.
  void enqueue(NodeId dst, const R& record) {
    auto& buf = packing_[dst];
    buf.records[buf.count++] = record;
    buf.src = self_;
    buf.dst = dst;
    if (buf.count == kRecordsPerPacket) {
      push_ready(buf);
      buf = Packet<R>{};
    }
  }

  /// Ends the stream towards every peer in `peers`: flushes partial packets
  /// and guarantees each peer receives exactly one packet with last=true
  /// for THIS stream (an empty header-only packet if nothing else is
  /// pending). Packing buffers are released afterwards, so peers a node
  /// stops talking to cost nothing across the rest of the run. A peer that
  /// saw no traffic at all this stream still gets its boundary packet —
  /// idle traffic classes participate in flush bookkeeping like any other.
  void flush_last(const std::vector<NodeId>& peers) {
    // Peers whose newest queued packet still needs finding after the flush.
    std::vector<NodeId> untagged;
    for (const NodeId dst : peers) {
      auto it = packing_.find(dst);
      if (it != packing_.end() && it->second.count > 0) {
        it->second.last = true;  // the flushed partial is the stream's end
        push_ready(it->second);
      } else {
        untagged.push_back(dst);
      }
      if (it != packing_.end()) packing_.erase(it);
    }
    // One reverse scan over ready_ (not one per peer) finds each remaining
    // peer's newest queued packet. If that packet already closes an earlier
    // stream — possible when a slow link leaves the previous stream's end
    // undelivered — the peer gets a fresh header-only last packet so every
    // flush_last yields exactly one last event.
    std::vector<NodeId> needs_empty;
    for (auto rit = ready_.rbegin(); rit != ready_.rend() && !untagged.empty();
         ++rit) {
      auto found = std::find(untagged.begin(), untagged.end(), rit->dst);
      if (found == untagged.end()) continue;
      untagged.erase(found);
      if (!rit->last) rit->last = true;
      else needs_empty.push_back(rit->dst);
    }
    // Peers with nothing queued (and peers whose newest packet was already a
    // stream end) get the empty header-only last packet.
    untagged.insert(untagged.end(), needs_empty.begin(), needs_empty.end());
    for (const NodeId dst : untagged) {
      Packet<R> p;
      p.src = self_;
      p.dst = dst;
      p.last = true;
      push_ready(p);
    }
  }

  /// Sends at most one data packet when the cooldown allows — pending
  /// retransmits take priority over new data. Armed endpoints also flush
  /// any due control packets, which bypass the cooldown (acks ride a
  /// dedicated sideband, not the data encapsulators). `send` is the
  /// fabric's delivery hook.
  void tick_egress(sim::Cycle now,
                   const std::function<void(const Packet<R>&)>& send) {
    if (armed_) flush_control(send);
    if (now < next_departure_) return;
    if (armed_ && !retx_q_.empty()) {
      send(retx_q_.front());
      retx_q_.pop_front();
      next_departure_ = now + static_cast<sim::Cycle>(config_.cooldown);
      return;
    }
    if (ready_.empty()) return;
    if (armed_) {
      Packet<R>& p = ready_.front();
      p.crc = packet_crc(p);  // after flush_last may have tagged `last`
      TxLink& tx = tx_[p.dst];
      if (tx.unacked.empty()) tx.deadline = now + rel_.rto;
      tx.unacked.push_back(p);
    }
    send(ready_.front());
    ready_.pop_front();
    next_departure_ = now + static_cast<sim::Cycle>(config_.cooldown);
  }

  /// Armed-mode per-cycle pump, independent of the owner's FSM phase:
  /// classifies arrivals (data → in-order accept queue, control → ack
  /// bookkeeping), fires retransmit timeouts, and emits due control
  /// packets. Unarmed endpoints ignore it.
  void tick_protocol(sim::Cycle now,
                     const std::function<void(const Packet<R>&)>& send) {
    if (!armed_) return;
    process_arrivals_armed(now);
    check_timeouts(now);
    flush_control(send);
  }

  bool egress_pending() const {
    if (!ready_.empty() || !retx_q_.empty()) return true;
    for (const auto& [dst, buf] : packing_) {
      if (buf.count > 0) return true;
    }
    return false;
  }

  /// Packing buffers (encapsulator register sets) currently allocated;
  /// flush_last releases a stream's buffers, so this tracks only the peers
  /// with an open stream.
  std::size_t packing_buffer_count() const { return packing_.size(); }

  // ---- ingress ----

  void deliver(const Packet<R>& p, sim::Cycle arrival) {
    arrivals_.emplace(arrival, p);
    if (wake_hook_) wake_hook_(arrival);
  }

  /// Elision poke (DESIGN.md §13): called on every delivery with the
  /// arrival cycle, so a scheduler that put the owning node's whole shard
  /// to sleep learns that new input is coming. Fabric commits run on the
  /// driving thread, which makes the hook race-free by construction.
  void set_wake_hook(std::function<void(sim::Cycle)> hook) {
    wake_hook_ = std::move(hook);
  }

  /// Serializes one record per cycle out of arrived packets. `last` events
  /// surface via take_last_events() when their packet is opened. Armed
  /// endpoints read protocol-accepted packets (tick_protocol must run);
  /// unarmed endpoints read raw arrivals directly.
  std::optional<R> poll_record(sim::Cycle now) {
    if (unpack_.empty()) open_next_packet(now);
    if (unpack_.empty()) return std::nullopt;
    R r = unpack_.front();
    unpack_.pop_front();
    return r;
  }

  std::vector<NodeId> take_last_events() {
    return std::exchange(last_events_, {});
  }

  /// Work still queued on the receive side (arrived, accepted, or parked
  /// out-of-order awaiting a retransmit).
  bool ingress_pending() const {
    if (!unpack_.empty() || !arrivals_.empty() || !accept_q_.empty()) {
      return true;
    }
    for (const auto& [src, rx] : rx_) {
      if (!rx.ooo.empty()) return true;
    }
    return false;
  }

  // ---- elision wake oracle (DESIGN.md §13) ----
  // Earliest cycle >= now at which the corresponding tick_* entry point
  // could change state, judged from committed state. Conservative-early is
  // safe; late is a correctness bug (the differential harness would catch
  // it as a bitwise divergence).

  /// tick_protocol: next in-flight arrival, due/overdue retransmit timeout,
  /// or a pending control emission. kNeverCycle when unarmed (the pump is a
  /// no-op then).
  sim::Cycle protocol_wake(sim::Cycle now) const {
    if (!armed_) return sim::kNeverCycle;
    sim::Cycle wake = sim::kNeverCycle;
    if (!arrivals_.empty()) {
      wake = std::min(wake, std::max(arrivals_.begin()->first, now));
    }
    for (const auto& [dst, tx] : tx_) {
      if (tx.degraded || tx.unacked.empty()) continue;
      wake = std::min(wake, std::max(tx.deadline, now));
    }
    for (const auto& [src, rx] : rx_) {
      if (rx.ack_due || rx.nack_due) return now;
    }
    return wake;
  }

  /// tick_egress: due control packets, or a queued data/retransmit packet
  /// once the cooldown expires.
  sim::Cycle egress_wake(sim::Cycle now) const {
    if (armed_) {
      for (const auto& [src, rx] : rx_) {
        if (rx.ack_due || rx.nack_due) return now;
      }
    }
    if (!retx_q_.empty() || !ready_.empty()) {
      return std::max(now, next_departure_);
    }
    return sim::kNeverCycle;
  }

  /// poll_record/take_last_events: records mid-unpack, unconsumed last
  /// events, accepted (armed) or arrived/arriving (unarmed) packets.
  sim::Cycle ingress_wake(sim::Cycle now) const {
    if (!unpack_.empty() || !last_events_.empty()) return now;
    if (armed_) return accept_q_.empty() ? sim::kNeverCycle : now;
    if (!arrivals_.empty()) return std::max(arrivals_.begin()->first, now);
    return sim::kNeverCycle;
  }

  // ---- reliability introspection ----

  /// Protocol counters, keyed by directed link: {self,dst} carries the tx
  /// side (retransmits, timeouts, retry depth, recovery cycles), {src,self}
  /// the rx side (acks/nacks sent, duplicates discarded, CRC failures).
  const std::map<Link, LinkStats>& link_stats() const { return stats_; }

  bool degraded() const { return !degraded_.empty(); }
  const std::vector<DegradedLink>& degraded_links() const { return degraded_; }

 private:
  struct TxLink {
    std::uint64_t next_seq = 0;     ///< assigned when a packet is staged
    std::uint64_t base = 0;         ///< oldest unacknowledged seq
    std::deque<Packet<R>> unacked;  ///< sent, awaiting cumulative ack
    sim::Cycle deadline = 0;        ///< next retransmit timeout
    int retries = 0;                ///< consecutive timeouts on `base`
    bool degraded = false;
    bool recovering = false;
    sim::Cycle recovery_start = 0;
  };

  struct RxLink {
    std::uint64_t expected = 0;            ///< next in-order seq
    std::map<std::uint64_t, Packet<R>> ooo;  ///< parked out-of-order packets
    bool ack_due = false;
    bool nack_due = false;
  };

  void push_ready(const Packet<R>& p) {
    ready_.push_back(p);
    if (armed_) {
      Packet<R>& q = ready_.back();
      q.kind = PacketKind::kData;
      q.seq = tx_[q.dst].next_seq++;
    }
  }

  void process_arrivals_armed(sim::Cycle now) {
    while (!arrivals_.empty() && arrivals_.begin()->first <= now) {
      const Packet<R> p = arrivals_.begin()->second;
      arrivals_.erase(arrivals_.begin());
      if (p.kind == PacketKind::kControl) handle_control(p, now);
      else handle_data(p);
    }
  }

  void handle_control(const Packet<R>& p, sim::Cycle now) {
    if (packet_crc(p) != p.crc) {
      ++stats_[{p.src, self_}].crc_failures;
      return;  // the sender's own timeout recovers a lost/garbled ack
    }
    TxLink& tx = tx_[p.src];  // acks our data on the self→p.src link
    LinkStats& st = stats_[{self_, p.src}];
    bool advanced = false;
    while (tx.base < p.ack && !tx.unacked.empty()) {
      tx.unacked.pop_front();
      ++tx.base;
      advanced = true;
    }
    if (advanced) {
      tx.retries = 0;
      tx.deadline = now + rel_.rto;
      if (tx.recovering) {
        st.recovery_cycles += now - tx.recovery_start;
        tx.recovering = false;
      }
    }
    if (p.has_nack && p.nack == tx.base && !tx.unacked.empty() &&
        !tx.degraded) {
      queue_retransmit(tx, st, now);
    }
  }

  void handle_data(const Packet<R>& p) {
    RxLink& rx = rx_[p.src];
    LinkStats& st = stats_[{p.src, self_}];
    if (packet_crc(p) != p.crc) {
      ++st.crc_failures;
      rx.ack_due = rx.nack_due = true;  // seq untrusted: nack `expected`
      return;
    }
    if (p.seq < rx.expected) {
      ++st.duplicates_discarded;
      rx.ack_due = true;  // re-ack so the sender stops resending
      return;
    }
    if (p.seq > rx.expected) {
      if (!rx.ooo.emplace(p.seq, p).second) ++st.duplicates_discarded;
      rx.ack_due = rx.nack_due = true;
      return;
    }
    accept_q_.push_back(p);
    ++rx.expected;
    for (auto it = rx.ooo.find(rx.expected); it != rx.ooo.end();
         it = rx.ooo.find(rx.expected)) {
      accept_q_.push_back(it->second);
      rx.ooo.erase(it);
      ++rx.expected;
    }
    rx.ack_due = true;
  }

  void check_timeouts(sim::Cycle now) {
    for (auto& [dst, tx] : tx_) {
      if (tx.degraded || tx.unacked.empty() || now < tx.deadline) continue;
      LinkStats& st = stats_[{self_, dst}];
      ++st.timeouts;
      ++tx.retries;
      if (tx.retries > st.max_retry_depth) st.max_retry_depth = tx.retries;
      if (tx.retries > rel_.max_retries) {
        tx.degraded = true;
        degraded_.push_back(
            DegradedLink{self_, dst, tx.base, now, tx.retries - 1});
        continue;
      }
      queue_retransmit(tx, st, now);
      const int shift = tx.retries < 16 ? tx.retries : 16;
      sim::Cycle backoff = rel_.rto << shift;
      if (backoff > rel_.max_backoff) backoff = rel_.max_backoff;
      tx.deadline = now + backoff;
    }
  }

  void queue_retransmit(TxLink& tx, LinkStats& st, sim::Cycle now) {
    Packet<R> rp = tx.unacked.front();
    rp.retransmit = true;
    retx_q_.push_back(rp);
    ++st.retransmits;
    if (!tx.recovering) {
      tx.recovering = true;
      tx.recovery_start = now;
    }
  }

  void flush_control(const std::function<void(const Packet<R>&)>& send) {
    for (auto& [src, rx] : rx_) {
      if (!rx.ack_due && !rx.nack_due) continue;
      Packet<R> c;
      c.kind = PacketKind::kControl;
      c.src = self_;
      c.dst = src;
      c.ack = rx.expected;
      if (rx.nack_due) {
        c.has_nack = true;
        c.nack = rx.expected;
      }
      c.crc = packet_crc(c);
      LinkStats& st = stats_[{src, self_}];
      ++st.acks_sent;
      if (rx.nack_due) ++st.nacks_sent;
      rx.ack_due = rx.nack_due = false;
      send(c);
    }
  }

  void open_next_packet(sim::Cycle now) {
    if (armed_) {
      // Arrivals were already filtered into seq order by tick_protocol.
      while (!accept_q_.empty()) {
        const Packet<R> p = accept_q_.front();
        accept_q_.pop_front();
        for (int i = 0; i < p.count; ++i) unpack_.push_back(p.records[i]);
        if (p.last) last_events_.push_back(p.src);
        if (!unpack_.empty()) return;  // empty last-only packets keep draining
      }
      return;
    }
    while (!arrivals_.empty() && arrivals_.begin()->first <= now) {
      const Packet<R> p = arrivals_.begin()->second;
      arrivals_.erase(arrivals_.begin());
      for (int i = 0; i < p.count; ++i) unpack_.push_back(p.records[i]);
      if (p.last) last_events_.push_back(p.src);
      if (!unpack_.empty()) return;  // empty last-only packets keep draining
    }
  }

  NodeId self_;
  ChannelConfig config_;
  std::map<NodeId, Packet<R>> packing_;
  std::deque<Packet<R>> ready_;
  sim::Cycle next_departure_ = 0;
  std::multimap<sim::Cycle, Packet<R>> arrivals_;
  std::deque<R> unpack_;
  std::vector<NodeId> last_events_;
  std::function<void(sim::Cycle)> wake_hook_;

  // Reliability state (armed mode only).
  bool armed_ = false;
  ReliabilityConfig rel_;
  std::map<NodeId, TxLink> tx_;
  std::map<NodeId, RxLink> rx_;
  std::deque<Packet<R>> retx_q_;   ///< retransmit copies, sent before new data
  std::deque<Packet<R>> accept_q_;  ///< CRC-checked, in-seq-order packets
  std::map<Link, LinkStats> stats_;
  std::vector<DegradedLink> degraded_;
};

template <class R>
class Fabric : public sim::Clocked {
 public:
  explicit Fabric(const ChannelConfig& config) : config_(config) {
    if (config_.link_latency < 1) {
      // A zero-latency link would let a receiver observe same-cycle sends,
      // making results depend on component tick order (serial or parallel).
      throw std::invalid_argument("Fabric: link_latency must be >= 1");
    }
  }

  void attach(Endpoint<R>* endpoint) {
    if (static_cast<std::size_t>(endpoint->self()) >= endpoints_.size()) {
      endpoints_.resize(endpoint->self() + 1, nullptr);
    }
    endpoints_[endpoint->self()] = endpoint;
    if (staged_.size() < endpoints_.size()) staged_.resize(endpoints_.size());
  }

  /// Makes the wire lossy per `plan`. Every endpoint must be armed (only
  /// armed endpoints detect and recover losses). `channel_salt`
  /// distinguishes the pos/frc/mig channels so each draws independent
  /// per-link fault streams from one plan seed.
  void set_fault_plan(const FaultPlan& plan, std::uint64_t channel_salt) {
    plan_ = plan;
    salt_ = channel_salt;
  }

  const std::optional<FaultPlan>& fault_plan() const { return plan_; }

  /// Attaches telemetry (null detaches): live per-packet counters
  /// attributed to the source node, plus instant trace events for injected
  /// faults and retransmitted data packets. Counters and events are emitted
  /// from commit() — single-threaded, ascending source order — so they are
  /// worker-count independent. Call after every endpoint is attached.
  void set_obs(obs::Hub* hub, obs::Comp comp, std::string_view channel) {
    obs_ = hub;
    comp_ = comp;
    if (hub == nullptr) return;
    auto& m = hub->metrics();
    const std::string base = "net." + std::string(channel);
    h_packets_ = m.counter(base + ".packets");
    h_control_ = m.counter(base + ".control_packets");
    h_retransmits_ = m.counter(base + ".retransmit_packets");
    h_fault_drop_ = m.counter(base + ".faults.drop");
    h_fault_dup_ = m.counter(base + ".faults.dup");
    h_fault_reorder_ = m.counter(base + ".faults.reorder");
    h_fault_corrupt_ = m.counter(base + ".faults.corrupt");
    to_handles_.clear();
    for (std::size_t dst = 0; dst < endpoints_.size(); ++dst) {
      to_handles_.push_back(m.counter(base + ".to." + std::to_string(dst)));
    }
  }

  /// The egress `send` hook: stages the packet in the sender's own slot.
  /// Safe to call concurrently from different source shards; two packets
  /// from the same source are staged in send order.
  void send(const Packet<R>& p, sim::Cycle now) {
    staged_.at(p.src).push_back(Staged{p, now + config_.link_latency});
  }

  /// Applies the cycle's staged sends: stamps the traffic matrix and
  /// schedules the in-order arrival at each destination. Single-threaded;
  /// ascending source order matches what serial in-id-order ticking did —
  /// and gives every fault draw a worker-count-independent position in its
  /// per-link stream.
  void commit() override {
    for (auto& q : staged_) {
      for (Staged& s : q) {
        // Everything staged this cycle was sent this cycle; reorder delay is
        // added after this point, so the send stamp is exact.
        const sim::Cycle sent = s.arrival - config_.link_latency;
        count_traffic(s.packet, sent);
        if (plan_) {
          apply_faults(s, sent);
        } else {
          emit(s.packet, s.arrival);
        }
      }
      q.clear();
    }
  }

  const TrafficMatrix& traffic() const { return traffic_; }
  const ChannelConfig& config() const { return config_; }

  /// Faults injected so far, per directed link (empty without a plan).
  const std::map<Link, LinkStats>& fault_stats() const { return fault_stats_; }

 private:
  struct Staged {
    Packet<R> packet;
    sim::Cycle arrival;
  };

  /// Per-link injection state: an independent RNG stream plus the data
  /// packet index that drop_exact triggers count against.
  struct FaultState {
    util::Xoshiro256 rng{0};
    std::uint64_t data_seen = 0;
  };

  void count_traffic(const Packet<R>& p, sim::Cycle sent) {
    if (p.kind == PacketKind::kControl) {
      ++traffic_.control_packets;
      if (obs_ != nullptr) obs_->metrics().add(p.src, h_control_);
      return;
    }
    traffic_.record(p.src, p.dst);
    if (p.retransmit) ++traffic_.retransmit_packets;
    if (obs_ != nullptr) {
      auto& m = obs_->metrics();
      m.add(p.src, h_packets_);
      m.add(p.src, to_handles_[static_cast<std::size_t>(p.dst)]);
      if (p.retransmit) {
        m.add(p.src, h_retransmits_);
        obs_->trace().instant(obs::kClusterShard, p.src, comp_, "retransmit",
                              sent, "dst", p.dst);
      }
    }
  }

  void fault_event(const char* name, obs::Handle h, NodeId src, NodeId dst,
                   sim::Cycle sent) {
    if (obs_ == nullptr) return;
    obs_->metrics().add(src, h);
    obs_->trace().instant(obs::kClusterShard, src, comp_, name, sent, "dst",
                          dst);
  }

  void apply_faults(Staged& s, sim::Cycle sent) {
    const NodeId src = s.packet.src;
    const NodeId dst = s.packet.dst;
    // A crashed node's switch port is down: everything addressed to it
    // disappears at the fabric from the crash cycle on. (Nothing departs a
    // crashed node — it no longer ticks — so only the destination side
    // needs checking; a hang or stall leaves the NIC up and packets queue
    // in the endpoint instead.)
    if (plan_->has_node_faults()) {
      const auto down = plan_->node_links_down_at(dst);
      if (down && s.arrival >= *down) {
        ++fault_stats_[{src, dst}].injected_drops;
        fault_event("port-down-drop", h_fault_drop_, src, dst, sent);
        return;
      }
    }
    const LinkFaults& lf = plan_->faults_for(src, dst);
    const auto exact_it = plan_->drop_exact.find({src, dst});
    const bool has_exact = exact_it != plan_->drop_exact.end();
    if (!lf.any() && !has_exact) {
      emit(s.packet, s.arrival);
      return;
    }
    LinkStats& st = fault_stats_[{src, dst}];
    if (lf.dead) {
      ++st.injected_drops;
      fault_event("dead-link-drop", h_fault_drop_, src, dst, sent);
      return;
    }
    FaultState& fs = fault_state(src, dst);
    bool drop = false;
    if (s.packet.kind == PacketKind::kData) {
      if (has_exact && exact_it->second.count(fs.data_seen) > 0) drop = true;
      ++fs.data_seen;
    }
    if (lf.drop > 0 && fs.rng.uniform() < lf.drop) drop = true;
    if (drop) {
      ++st.injected_drops;
      fault_event("drop", h_fault_drop_, src, dst, sent);
      return;
    }
    Packet<R> p = s.packet;
    if (lf.corrupt > 0 && fs.rng.uniform() < lf.corrupt) {
      corrupt_packet(p, fs.rng());
      ++st.injected_corrupts;
      fault_event("corrupt", h_fault_corrupt_, src, dst, sent);
    }
    sim::Cycle arrival = s.arrival;
    if (lf.reorder > 0 && fs.rng.uniform() < lf.reorder) {
      // Extra in-flight delay: enough for later departures to overtake.
      arrival += 1 + fs.rng.below(
                         static_cast<std::uint64_t>(4 * config_.cooldown + 8));
      ++st.injected_reorders;
      fault_event("reorder", h_fault_reorder_, src, dst, sent);
    }
    emit(p, arrival);
    if (lf.dup > 0 && fs.rng.uniform() < lf.dup) {
      emit(p, arrival + 1);
      ++st.injected_dups;
      fault_event("dup", h_fault_dup_, src, dst, sent);
    }
  }

  /// Terminal delivery point of commit(): the destination endpoint.
  void emit(const Packet<R>& p, sim::Cycle arrival) {
    endpoints_.at(p.dst)->deliver(p, arrival);
  }

  FaultState& fault_state(NodeId src, NodeId dst) {
    auto it = fault_state_.find({src, dst});
    if (it == fault_state_.end()) {
      FaultState fs;
      fs.rng = util::Xoshiro256(link_seed(plan_->seed, salt_, src, dst));
      it = fault_state_.emplace(Link{src, dst}, fs).first;
    }
    return it->second;
  }

  ChannelConfig config_;
  std::vector<Endpoint<R>*> endpoints_;
  std::vector<std::vector<Staged>> staged_;  // one slot per source node
  TrafficMatrix traffic_;
  std::optional<FaultPlan> plan_;
  std::uint64_t salt_ = 0;
  std::map<Link, FaultState> fault_state_;
  std::map<Link, LinkStats> fault_stats_;

  // Telemetry (null hub = disabled; handles resolved once in set_obs).
  obs::Hub* obs_ = nullptr;
  obs::Comp comp_ = obs::Comp::kNetPos;
  obs::Handle h_packets_ = 0;
  obs::Handle h_control_ = 0;
  obs::Handle h_retransmits_ = 0;
  obs::Handle h_fault_drop_ = 0;
  obs::Handle h_fault_dup_ = 0;
  obs::Handle h_fault_reorder_ = 0;
  obs::Handle h_fault_corrupt_ = 0;
  std::vector<obs::Handle> to_handles_;
};

}  // namespace fasda::net
