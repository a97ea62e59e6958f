#include "async/event.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace synran {

void EventList::push_far(const Entry& entry) {
  far_.push_back(entry);
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

void EventList::reset() {
  for (Bucket& b : ring_) {
    b.items.clear();
    b.head = 0;
  }
  occupied_ = 0;
  near_size_ = 0;
  far_.clear();
  now_ = 0;
  next_seq_ = 0;
  dispatched_ = 0;
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
