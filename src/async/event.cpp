#include "async/event.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"

namespace synran {

SimTime EventList::next_time() const {
  SYNRAN_REQUIRE(!empty(), "next_time() on an empty event list");
  if (occupied_ == 0) return far_.front().time;
  // Rotate the mask so bit k stands for instant now + k.
  const std::uint64_t ahead =
      std::rotr(occupied_, static_cast<int>(slot(now_)));
  return now_ + static_cast<SimTime>(std::countr_zero(ahead));
}

void EventList::push_near(SimTime at, const Item& item) {
  const std::size_t s = slot(at);
  ring_[s].items.push_back(item);
  occupied_ |= std::uint64_t{1} << s;
  ++near_size_;
}

void EventList::schedule_at(EventSource& source, SimTime at,
                            std::uint64_t tag) {
  SYNRAN_REQUIRE(at >= now_, "cannot schedule an event in the past");
  SYNRAN_REQUIRE(at != kNever, "kNever is not a schedulable instant");
  const Item item{&source, tag};
  const std::uint64_t seq = next_seq_++;
  if (at - now_ < kWindow) {
    push_near(at, item);
    return;
  }
  far_.push_back(Entry{at, seq, item});
  std::push_heap(far_.begin(), far_.end(), Later{});
}

void EventList::schedule_in(EventSource& source, SimTime delay,
                            std::uint64_t tag) {
  schedule_at(source, time_after(now_, delay), tag);
}

bool EventList::run_next() {
  if (empty()) return false;
  const SimTime at = next_time();
  if (at != now_) {
    // The window slides to [at, at + kWindow): pull in what it now covers
    // before anything at the new instant runs.
    now_ = at;
    while (!far_.empty() && far_.front().time - now_ < kWindow) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      push_near(far_.back().time, far_.back().item);
      far_.pop_back();
    }
  }
  Bucket& b = ring_[slot(at)];
  const Item e = b.items[b.head++];
  if (b.head == b.items.size()) {
    b.items.clear();
    b.head = 0;
    occupied_ &= ~(std::uint64_t{1} << slot(at));
  }
  --near_size_;
  ++dispatched_;
  e.source->do_next_event(at, e.tag);
  return true;
}

Trigger::Trigger(EventList& list, Action action)
    : list_(&list), action_(std::move(action)) {
  SYNRAN_REQUIRE(action_ != nullptr, "Trigger needs an action");
}

void Trigger::arm_at(SimTime at, std::uint64_t tag) {
  list_->schedule_at(*this, at, tag);
}

void Trigger::arm_in(SimTime delay, std::uint64_t tag) {
  list_->schedule_in(*this, delay, tag);
}

void Trigger::do_next_event(SimTime now, std::uint64_t tag) {
  action_(now, tag);
}

}  // namespace synran
