#pragma once
// The 1-D daisy-chain ("ring") interconnect of §3.2.
//
// A Ring owns one hop slot per station (CBB ring nodes plus EX nodes), so a
// token takes one cycle per hop. Each cycle every occupied slot consults its
// station: pass, deliver a copy (position multicast), deliver-and-drop
// (force/migration unicast, or the last position copy), or drop. A delivery
// that the station cannot accept (input FIFO full) stalls the token in
// place — backpressure propagates upstream exactly like a ready/valid
// chain. Tokens then advance simultaneously into free slots (bubbles
// propagate backwards; a completely full ring of moving tokens rotates),
// settled in one backward walk from an empty slot or a stalled token.
// Freed slots accept injections from their station's local FIFO. A ring
// with nothing in flight skips straight to injection.
//
// The whole ring ticks as one Component, which keeps movement atomic and
// independent of global component ordering.

#include <algorithm>
#include <optional>
#include <vector>

#include "fasda/sim/kernel.hpp"

namespace fasda::ring {

template <class T>
class Station {
 public:
  enum class Action { kPass, kDeliver, kDeliverAndDrop, kDrop };

  virtual ~Station() = default;

  /// Decides what this station wants to do with a token sitting at it.
  virtual Action classify(const T& token) const = 0;

  /// Hands over a copy (kDeliver) or the token itself (kDeliverAndDrop).
  /// Returns false when the station cannot accept this cycle; the token then
  /// stalls in its slot and is retried next cycle. May mutate the token on
  /// success (e.g. decrement a multicast counter).
  virtual bool try_deliver(T& token) = 0;

  /// Local injection source, or nullptr if this station never injects.
  /// Must return the same pointer for the station's whole lifetime: the
  /// Ring reads it once at construction and caches it.
  virtual sim::Fifo<T>* inject_source() = 0;
};

template <class T>
class Ring : public sim::Component {
 public:
  /// One hop slot's occupant. `stalled` is per-tick scratch: phase 1 sets it
  /// when a delivery was refused, and the movement phase keeps such a token
  /// in place.
  struct Slot {
    T token;
    bool delivered_here = false;
    bool stalled = false;
  };

  Ring(std::string name, std::vector<Station<T>*> stations)
      : Component(std::move(name)),
        stations_(std::move(stations)),
        slots_(stations_.size()) {
    for (Station<T>* st : stations_) sources_.push_back(st->inject_source());
  }

  std::size_t num_stations() const { return stations_.size(); }

  /// Tokens currently travelling (occupied hop slots).
  std::size_t occupancy() const { return in_flight_; }

  /// Hop slot `i` as committed by the last tick (empty when no token).
  const std::optional<Slot>& slot(std::size_t i) const { return slots_[i]; }

  const sim::UtilCounter& util() const { return util_; }

  /// A ring only acts on tokens in flight or waiting to inject; everything
  /// else (station FIFO fills) executes a cycle and re-sweeps.
  sim::Cycle next_wake(sim::Cycle now) const override {
    if (in_flight_ > 0) return now;
    for (const sim::Fifo<T>* src : sources_) {
      if (src != nullptr && !src->empty()) return now;
    }
    return sim::kNeverCycle;
  }

  /// An idle tick records util_(0, n, false) and nothing else.
  void skip_idle(sim::Cycle from, sim::Cycle to) override {
    const std::size_t n = slots_.size();
    if (n == 0) return;
    util_.record(0, static_cast<std::uint64_t>(n) * (to - from), false);
  }

  void tick(sim::Cycle) override {
    const std::size_t n = slots_.size();
    if (n == 0) return;
    if (in_flight_ == 0) {
      // Phases 1 and 2 have nothing to act on.
      util_.record(0, n, false);
      inject();
      return;
    }

    // Phase 1: station interaction. A token that delivered a copy but could
    // not advance last cycle is marked delivered_here so the station never
    // receives a duplicate while it waits for the slot ahead to free up.
    // Also finds an anchor for phase 2: an empty slot or a stalled token.
    std::size_t occupied = 0;
    std::size_t anchor = n;
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<Slot>& slot = slots_[i];
      if (!slot) {
        anchor = i;
        continue;
      }
      ++occupied;
      slot->stalled = false;
      if (slot->delivered_here) continue;
      switch (stations_[i]->classify(slot->token)) {
        case Station<T>::Action::kPass:
          break;
        case Station<T>::Action::kDeliver:
          if (stations_[i]->try_deliver(slot->token)) {
            slot->delivered_here = true;
          } else {
            slot->stalled = true;
            anchor = i;
          }
          break;
        case Station<T>::Action::kDeliverAndDrop:
          if (stations_[i]->try_deliver(slot->token)) {
            slot.reset();
            --in_flight_;
          } else {
            slot->stalled = true;
          }
          anchor = i;
          break;
        case Station<T>::Action::kDrop:
          slot.reset();
          --in_flight_;
          anchor = i;
          break;
      }
    }

    util_.record(occupied, n, occupied > 0);

    // Phase 2: movement. Every token moves one hop unless the slot ahead
    // stays occupied, so a stalled token blocks everything behind it. With
    // no anchor every slot holds a mover and the ring rotates. Otherwise one
    // backward walk from the anchor settles each slot ahead before the token
    // behind it looks: the anchor itself never moves.
    if (anchor == n) {
      std::rotate(slots_.begin(), slots_.end() - 1, slots_.end());
      for (auto& s : slots_) s->delivered_here = false;
    } else {
      std::size_t ahead = anchor;
      for (std::size_t k = 1; k < n; ++k) {
        const std::size_t i = ahead == 0 ? n - 1 : ahead - 1;
        std::optional<Slot>& slot = slots_[i];
        if (slot && !slot->stalled && !slots_[ahead]) {
          slot->delivered_here = false;  // arriving at a new station
          slots_[ahead] = std::move(slot);
          slot.reset();
        }
        ahead = i;
      }
    }

    inject();
  }

 private:
  /// Phase 3: injection into empty slots.
  void inject() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i]) continue;
      sim::Fifo<T>* src = sources_[i];
      if (src != nullptr && !src->empty()) {
        slots_[i] = Slot{src->pop()};
        ++in_flight_;
      }
    }
  }

  std::vector<Station<T>*> stations_;
  /// stations_[i]->inject_source(), cached: the pointer is fixed for the
  /// station's lifetime (see Station::inject_source).
  std::vector<sim::Fifo<T>*> sources_;
  std::vector<std::optional<Slot>> slots_;
  std::size_t in_flight_ = 0;  ///< occupied entries of slots_
  sim::UtilCounter util_;
};

}  // namespace fasda::ring
