// The event-driven simulation core's clock and dispatch queue.
//
// Everything the asynchronous engine does — message deliveries, timer
// expiries, partial-synchrony deadline releases, injected faults — is an
// event on one central time-ordered EventList (the htsim pattern: one
// queue of (time, source) pairs drives arbitrarily many event-source
// objects). Determinism is non-negotiable here, so ties are broken by a
// monotone sequence number: two events scheduled for the same instant
// dispatch in the order they were scheduled (FIFO), never in queue order.
//
// The queue is a calendar of per-instant FIFO buckets over the next
// kWindow instants plus a (time, seq) heap for later ones, so the short
// delays that carry almost all traffic cost O(1) per event.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"

namespace synran {

/// Simulated time in abstract ticks. The engine never consults wall-clock
/// (lint-enforced); ticks only mean "this happens before that" plus the
/// delay models' arithmetic.
using SimTime = std::uint64_t;

/// Sentinel: "no deadline" / "never". Not a schedulable instant.
inline constexpr SimTime kNever = ~static_cast<SimTime>(0);

/// `at + delay`, saturating at kNever - 1, the last schedulable instant.
/// Every "after a delay" instant the engine and the delay models compute
/// goes through this, so an enormous delay clamps instead of wrapping.
constexpr SimTime time_after(SimTime at, SimTime delay) {
  return delay >= kNever - at ? kNever - 1 : at + delay;
}

/// Something that reacts to scheduled events. One source may have any
/// number of events outstanding; `tag` disambiguates them (the scheduling
/// call passes it through verbatim).
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual void do_next_event(SimTime now, std::uint64_t tag) = 0;
};

/// The central time-ordered event queue. Entries dispatch in exact
/// (time, seq) order, where seq is assigned monotonically at schedule time,
/// so equal-time entries dispatch in scheduling order and a run's event
/// order is a pure function of the calls made against the list.
///
/// Layout: a ring of kWindow FIFO buckets holds every entry whose instant
/// lies in [now, now + kWindow), bucket `time mod kWindow`, with a bitmask
/// of the non-empty ones; a (time, seq) min-heap holds the later entries.
/// Each bucket holds a single instant, and appending keeps it in seq order.
/// When run_next advances the clock it first migrates every heap entry the
/// window now covers into its bucket, in (time, seq) order and before the
/// new instant's first dispatch can schedule anything. A heap entry for
/// instant T was scheduled before T entered the window, so its seq is below
/// that of anything scheduled straight into T's bucket: the FIFO holds.
///
/// Window tests are offsets (`at - now < kWindow`), never `now + kWindow`,
/// which wraps once time saturates at kNever - 1. The ring's slots past
/// kNever - 1 correspond to no schedulable instant and stay empty.
class EventList {
 public:
  SimTime now() const { return now_; }
  bool empty() const { return size() == 0; }
  std::size_t size() const { return near_size_ + far_.size(); }

  // next_time and schedule_at run on every clock step and every timed
  // send, so they are defined here; only a far-future schedule calls out.

  /// Earliest scheduled instant. Requires a non-empty list.
  SimTime next_time() const {
    SYNRAN_REQUIRE(!empty(), "next_time() on an empty event list");
    if (occupied_ == 0) return far_.front().time;
    // Rotate the mask so bit k stands for instant now + k.
    const std::uint64_t ahead =
        std::rotr(occupied_, static_cast<int>(slot(now_)));
    return now_ + static_cast<SimTime>(std::countr_zero(ahead));
  }

  /// Schedules `source` at absolute time `at` (>= now, < kNever). The
  /// source is borrowed and must outlive the dispatch.
  void schedule_at(EventSource& source, SimTime at, std::uint64_t tag = 0) {
    SYNRAN_REQUIRE(at >= now_, "cannot schedule an event in the past");
    SYNRAN_REQUIRE(at != kNever, "kNever is not a schedulable instant");
    const Item item{&source, tag};
    const std::uint64_t seq = next_seq_++;
    if (at - now_ < kWindow)
      push_near(at, item);
    else
      push_far(Entry{at, seq, item});
  }

  /// Schedules `source` at now + delay (saturating below kNever).
  void schedule_in(EventSource& source, SimTime delay, std::uint64_t tag = 0);

  /// Dispatches the earliest event, advancing the clock to its time first.
  /// Returns false (and leaves the clock alone) when the list is empty.
  bool run_next();

  /// Events dispatched so far.
  std::uint64_t dispatched() const { return dispatched_; }

  /// Returns the list to its freshly constructed state: no entries, clock,
  /// sequence and dispatch count at 0. The buckets and the far heap keep
  /// their capacity, so a list reused across runs stops allocating once it
  /// has grown. Dropped entries are never dispatched, so their sources
  /// need not outlive the reset.
  void reset();

 private:
  /// Instants the bucket ring covers, from now on: every delay the
  /// workloads use (uniform jitter, GST bounds, retransmit timers) fits.
  /// One bit per bucket in a 64-bit occupancy mask.
  static constexpr SimTime kWindow = 64;

  struct Item {
    EventSource* source = nullptr;
    std::uint64_t tag = 0;
  };
  /// One instant's entries in seq order; `head` is the next to dispatch.
  struct Bucket {
    std::vector<Item> items;
    std::size_t head = 0;
  };
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    Item item;
  };
  /// Max-heap comparator inverted into a min-heap on (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static std::size_t slot(SimTime t) {
    return static_cast<std::size_t>(t % kWindow);
  }
  void push_near(SimTime at, const Item& item) {
    const std::size_t s = slot(at);
    ring_[s].items.push_back(item);
    occupied_ |= std::uint64_t{1} << s;
    ++near_size_;
  }
  void push_far(const Entry& entry);

  std::array<Bucket, kWindow> ring_;
  std::uint64_t occupied_ = 0;  ///< bit slot(t) set iff bucket t non-empty
  std::size_t near_size_ = 0;
  std::vector<Entry> far_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

/// A free-standing event source wrapping a callback: the composition
/// mechanism that lets fault injection and protocol timeouts ride the same
/// clock as the delay models instead of replacing them. The engine arms one
/// Trigger per injected fault; tests and future scenario families arm their
/// own.
class Trigger final : public EventSource {
 public:
  using Action = std::function<void(SimTime now, std::uint64_t tag)>;

  Trigger(EventList& list, Action action);

  void arm_at(SimTime at, std::uint64_t tag = 0);
  void arm_in(SimTime delay, std::uint64_t tag = 0);

  void do_next_event(SimTime now, std::uint64_t tag) override;

 private:
  EventList* list_;
  Action action_;
};

}  // namespace synran
