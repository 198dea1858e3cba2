#pragma once
// The 1-D daisy-chain ("ring") interconnect of §3.2.
//
// A Ring owns one hop slot per station (CBB ring nodes plus EX nodes), so a
// token takes one cycle per hop. Each cycle every occupied slot consults its
// station: pass, deliver a copy (position multicast), deliver-and-drop
// (force/migration unicast, or the last position copy), or drop. A delivery
// that the station cannot accept (input queue full) stalls the token in
// place — backpressure propagates upstream exactly like a ready/valid
// chain. Tokens then advance simultaneously into free slots (bubbles
// propagate backwards; a completely full ring of moving tokens rotates),
// settled in one backward walk from an empty slot or a stalled token.
// Freed slots accept injections from their station's local FIFO. A ring
// with nothing in flight skips straight to injection.
//
// The stations are a template parameter, one object answering for every
// hop slot by index, so classification and delivery are static calls the
// compiler can inline (a node's stations are lookup tables built once, see
// cbb::CellArray). `Stations` provides
//
//   Action classify(std::size_t station, const T& token) const;
//   bool try_deliver(std::size_t station, T& token);
//
// try_deliver hands over a copy (kDeliver) or the token itself
// (kDeliverAndDrop) and returns false when the station cannot accept this
// cycle; the token then stalls in its slot and is retried next cycle. It
// may mutate the token on success (e.g. decrement a multicast counter).
//
// Occupied slots are tracked in a bitset and the station pass visits only
// those. When no token stalls, every token advances one hop — the ring
// rotates — which is a shift of the station origin, not a move of each
// token. The whole ring ticks as one Component, which keeps movement atomic
// and independent of global component ordering.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "fasda/sim/kernel.hpp"

namespace fasda::ring {

/// What a station does with the token sitting at it.
enum class Action { kPass, kDeliver, kDeliverAndDrop, kDrop };

template <class T, class Stations>
class Ring : public sim::Component, public sim::Clocked {
 public:
  /// One hop slot's occupant. `stalled` is per-tick scratch: the station
  /// pass sets it when a delivery was refused, and the movement keeps such
  /// a token in place.
  struct Slot {
    T token;
    bool delivered_here = false;
    bool stalled = false;
  };

  /// `sources[i]` is station i's local injection FIFO (nullptr if it never
  /// injects); one entry per station. The ring commits its sources itself:
  /// register the ring, not the sources, as the Clocked element. A staged
  /// push reports its FIFO to the ring, so injection only looks at
  /// stations with something waiting.
  Ring(std::string name, Stations stations, std::vector<sim::Fifo<T>*> sources)
      : Component(std::move(name)),
        stations_(std::move(stations)),
        sources_(std::move(sources)),
        tokens_(sources_.size()),
        occupied_(sources_.size()),
        delivered_(sources_.size()),
        stalled_(sources_.size()),
        waiting_(sources_.size()) {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      sim::Fifo<T>* src = sources_[i];
      if (src == nullptr) continue;
      src->report_staging_to(&staged_);
      station_of_.emplace_back(src, i);
      if (src->total_occupancy() != 0) staged_.push_back(src);
    }
    std::sort(station_of_.begin(), station_of_.end());
  }

  std::size_t num_stations() const { return tokens_.size(); }

  /// Tokens currently travelling (occupied hop slots).
  std::size_t occupancy() const { return in_flight_; }

  /// Hop slot `i` as committed by the last tick (empty when no token).
  std::optional<Slot> slot(std::size_t i) const {
    const std::size_t p = phys(i);
    if (!occupied_.test(p)) return std::nullopt;
    return Slot{tokens_[p], delivered_.test(p), stalled_.test(p)};
  }

  const sim::UtilCounter& util() const { return util_; }

  /// A ring only acts on tokens in flight or waiting to inject; everything
  /// else (station FIFO fills) executes a cycle and re-sweeps.
  sim::Cycle next_wake(sim::Cycle now) const override {
    if (in_flight_ > 0 || waiting_.any()) return now;
    return sim::kNeverCycle;
  }

  /// Commits the sources that staged a push since the last commit, and
  /// marks their stations as having tokens waiting.
  void commit() override {
    for (sim::Clocked* c : staged_) {
      c->commit();
      const auto it = std::lower_bound(
          station_of_.begin(), station_of_.end(),
          std::pair<const sim::Clocked*, std::size_t>{c, 0});
      if (!sources_[it->second]->empty()) waiting_.set(it->second);
    }
    staged_.clear();
  }

  /// An idle tick records util_(0, n, false) and nothing else.
  void skip_idle(sim::Cycle from, sim::Cycle to) override {
    const std::size_t n = tokens_.size();
    if (n == 0) return;
    util_.record(0, static_cast<std::uint64_t>(n) * (to - from), false);
  }

  void tick(sim::Cycle) override {
    const std::size_t n = tokens_.size();
    if (n == 0) return;
    if (in_flight_ == 0) {
      // The station pass and movement have nothing to act on.
      util_.record(0, n, false);
      inject();
      return;
    }
    util_.record(in_flight_, n, true);

    // Station pass over the occupied slots, in ascending station order. A
    // token that delivered a copy but could not advance last cycle is
    // marked delivered_here so the station never receives a duplicate
    // while it waits for the slot ahead to free up. A refused delivery
    // stalls its token and makes it the anchor of the movement walk.
    stalled_.clear();
    std::size_t anchor = n;
    occupied_.for_each_set(base_, n, [&](std::size_t p) { visit(p, anchor); });
    occupied_.for_each_set(0, base_, [&](std::size_t p) { visit(p, anchor); });

    // Movement: every token moves one hop unless the slot ahead stays
    // occupied, so a stalled token blocks everything behind it. With no
    // stall every token moves — the whole ring rotates, which only moves
    // the station origin. Otherwise one backward walk from a stalled
    // anchor settles each slot ahead before the token behind it looks: the
    // anchor itself never moves.
    if (anchor == n) {
      base_ = base_ == 0 ? n - 1 : base_ - 1;
      delivered_.clear();  // every token arrives at a new station
    } else {
      std::size_t i = anchor;
      for (std::size_t k = 1; k < n; ++k) {
        const std::size_t ahead = i;
        i = i == 0 ? n - 1 : i - 1;
        const std::size_t p = phys(i);
        if (!occupied_.test(p) || stalled_.test(p)) continue;
        const std::size_t pa = phys(ahead);
        if (occupied_.test(pa)) continue;
        tokens_[pa] = tokens_[p];
        occupied_.set(pa);
        delivered_.reset(pa);  // arriving at a new station
        occupied_.reset(p);
        delivered_.reset(p);
      }
    }

    inject();
  }

 private:
  // Station i's hop slot is tokens_[phys(i)]: a rotation of every token
  // only moves base_.
  std::size_t phys(std::size_t i) const {
    const std::size_t p = i + base_;
    return p >= tokens_.size() ? p - tokens_.size() : p;
  }
  std::size_t station(std::size_t p) const {
    return p >= base_ ? p - base_ : p + tokens_.size() - base_;
  }

  /// The station pass for the token in physical slot p.
  void visit(std::size_t p, std::size_t& anchor) {
    if (delivered_.test(p)) return;
    const std::size_t i = station(p);
    switch (stations_.classify(i, tokens_[p])) {
      case Action::kPass:
        break;
      case Action::kDeliver:
        if (stations_.try_deliver(i, tokens_[p])) {
          delivered_.set(p);
        } else {
          stalled_.set(p);
          anchor = i;
        }
        break;
      case Action::kDeliverAndDrop:
        if (stations_.try_deliver(i, tokens_[p])) {
          release(p);
        } else {
          stalled_.set(p);
          anchor = i;
        }
        break;
      case Action::kDrop:
        release(p);
        break;
    }
  }

  void release(std::size_t p) {
    occupied_.reset(p);
    --in_flight_;
  }

  /// Injection into empty slots from the stations' local FIFOs, for the
  /// stations with tokens waiting.
  void inject() {
    waiting_.for_each_set(0, tokens_.size(), [&](std::size_t i) {
      const std::size_t p = phys(i);
      if (occupied_.test(p)) return;
      sim::Fifo<T>* src = sources_[i];
      tokens_[p] = src->pop();
      occupied_.set(p);
      delivered_.reset(p);
      stalled_.reset(p);
      ++in_flight_;
      if (src->empty()) waiting_.reset(i);
    });
  }

  Stations stations_;
  std::vector<sim::Fifo<T>*> sources_;
  /// (source, station) by source address, to find a staged source's station.
  std::vector<std::pair<const sim::Clocked*, std::size_t>> station_of_;
  std::vector<sim::Clocked*> staged_;  ///< sources staged since the last commit
  std::vector<T> tokens_;  ///< by physical slot; valid where occupied_ is set
  sim::Bitset occupied_;
  sim::Bitset delivered_;  ///< the token delivered a copy at its current station
  sim::Bitset stalled_;    ///< the token's delivery was refused this tick
  sim::Bitset waiting_;    ///< by station: its source holds committed tokens
  std::size_t base_ = 0;
  std::size_t in_flight_ = 0;  ///< set bits of occupied_
  sim::UtilCounter util_;
};

}  // namespace fasda::ring
