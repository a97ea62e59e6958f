// Tests for the event-driven core's clock layer: EventList determinism,
// FIFO tiebreaking and a reference-order fuzz across its bucket window (on
// fresh lists and on one list reset between schedules), Trigger
// composition, the delay models (fixed, seeded uniform, adversary-held,
// GST clamping, saturation near kNever), and the async run auditor's
// violation detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "async/audit.hpp"
#include "async/benor.hpp"
#include "async/core.hpp"
#include "async/delay.hpp"
#include "async/event.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace synran {
namespace {

/// Records every dispatch as (time, tag) so tests can assert exact order.
class Recorder final : public EventSource {
 public:
  void do_next_event(SimTime now, std::uint64_t tag) override {
    seen.push_back({now, tag});
  }
  std::vector<std::pair<SimTime, std::uint64_t>> seen;
};

TEST(AsyncEventListTest, DispatchesInTimeOrder) {
  EventList list;
  Recorder rec;
  list.schedule_at(rec, 30, 0);
  list.schedule_at(rec, 10, 1);
  list.schedule_at(rec, 20, 2);
  while (list.run_next()) {
  }
  ASSERT_EQ(rec.seen.size(), 3u);
  EXPECT_EQ(rec.seen[0], (std::pair<SimTime, std::uint64_t>{10, 1}));
  EXPECT_EQ(rec.seen[1], (std::pair<SimTime, std::uint64_t>{20, 2}));
  EXPECT_EQ(rec.seen[2], (std::pair<SimTime, std::uint64_t>{30, 0}));
  EXPECT_EQ(list.now(), 30u);
  EXPECT_EQ(list.dispatched(), 3u);
}

TEST(AsyncEventListTest, EqualTimesDispatchInSchedulingOrderFifo) {
  // Property: any number of same-instant events dispatch in exactly the
  // order they were scheduled — never heap order. Interleave two instants
  // to make a sift-down reordering (the classic binary-heap hazard) likely
  // if the tiebreak were absent.
  EventList list;
  Recorder rec;
  constexpr std::uint64_t kPerInstant = 64;
  for (std::uint64_t i = 0; i < kPerInstant; ++i) {
    list.schedule_at(rec, 5, i);
    list.schedule_at(rec, 7, 1000 + i);
  }
  while (list.run_next()) {
  }
  ASSERT_EQ(rec.seen.size(), 2 * kPerInstant);
  for (std::uint64_t i = 0; i < kPerInstant; ++i) {
    EXPECT_EQ(rec.seen[i].first, 5u);
    EXPECT_EQ(rec.seen[i].second, i) << "FIFO broken at t=5 slot " << i;
    EXPECT_EQ(rec.seen[kPerInstant + i].first, 7u);
    EXPECT_EQ(rec.seen[kPerInstant + i].second, 1000 + i)
        << "FIFO broken at t=7 slot " << i;
  }
}

TEST(AsyncEventListTest, RejectsSchedulingInThePast) {
  EventList list;
  Recorder rec;
  list.schedule_at(rec, 10, 0);
  ASSERT_TRUE(list.run_next());  // now = 10
  EXPECT_THROW(list.schedule_at(rec, 9, 1), ArgumentError);
  EXPECT_THROW(list.schedule_at(rec, kNever, 1), ArgumentError);
  EXPECT_NO_THROW(list.schedule_at(rec, 10, 1));  // now itself is fine
}

TEST(AsyncEventListTest, ScheduleInSaturatesBelowNever) {
  EventList list;
  Recorder rec;
  list.schedule_in(rec, kNever);  // would overflow; saturates
  EXPECT_EQ(list.next_time(), kNever - 1);
}

TEST(AsyncEventListTest, NextTimeRequiresNonEmpty) {
  EventList list;
  EXPECT_THROW(list.next_time(), ArgumentError);
  EXPECT_FALSE(list.run_next());
  EXPECT_EQ(list.now(), 0u);
}

TEST(AsyncEventListTest, IdenticalScheduleIdenticalDispatch) {
  // Two lists fed the same interleaved schedule-and-run sequence dispatch
  // identically — the determinism the engine's thread-invariance rests on.
  auto drive = [](EventList& list, Recorder& rec) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      list.schedule_at(rec, list.now() + (i % 7) * 3, i);
      if (i % 3 == 0) list.run_next();
    }
    while (list.run_next()) {
    }
  };
  EventList a, b;
  Recorder ra, rb;
  drive(a, ra);
  drive(b, rb);
  EXPECT_EQ(ra.seen, rb.seen);
}

// ------------------------------------------- reference-order fuzz

/// The event list's contract restated as the simplest possible model: an
/// ordered set of (time, seq, tag), dispatched smallest first.
struct ReferenceList {
  std::set<std::tuple<SimTime, std::uint64_t, std::uint64_t>> pending;
  SimTime now = 0;
  std::uint64_t seq = 0;
  std::uint64_t dispatched = 0;

  void schedule_at(SimTime at, std::uint64_t tag) {
    pending.insert({at, seq++, tag});
  }
  SimTime after(SimTime delay) const {
    return kNever - now <= delay ? kNever - 1 : now + delay;
  }
  std::pair<SimTime, std::uint64_t> pop() {
    const auto [at, s, tag] = *pending.begin();
    pending.erase(pending.begin());
    now = at;
    ++dispatched;
    return {at, tag};
  }
};

/// Drives an EventList and a ReferenceList through the same seeded mix of
/// schedule_at, schedule_in and run_next calls. Dispatched events schedule
/// more from inside the callback, as the engine's activations do. The list
/// is the fuzz's own, or a borrowed one that must start out empty.
class ReferenceFuzz final : public EventSource {
 public:
  explicit ReferenceFuzz(std::uint64_t seed) : rng_(seed), list_(own_) {}
  ReferenceFuzz(std::uint64_t seed, EventList& list)
      : rng_(seed), list_(list) {}

  /// With `drain` false the schedule is abandoned part-way, leaving
  /// entries (near and far) in the list.
  void run(SimTime start, int ops, bool drain = true) {
    if (start != 0) {  // move both clocks to `start` first
      list_.schedule_at(*this, start, next_tag_);
      ref_.schedule_at(start, next_tag_++);
      step();
    }
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      if (rng_.below(5) < 2)
        schedule();
      else
        step();
    }
    if (drain) {
      draining_ = true;  // no more children, so the drain terminates
      while (!ref_.pending.empty() && !::testing::Test::HasFailure()) step();
      EXPECT_FALSE(list_.run_next());
    }
    EXPECT_EQ(seen_, expected_);
  }

  void do_next_event(SimTime now, std::uint64_t tag) override {
    seen_.push_back({now, tag});
    const std::uint64_t children = draining_ ? 0 : rng_.below(3);
    for (std::uint64_t c = 0; c < children; ++c) schedule();
  }

 private:
  static constexpr SimTime kW = 64;  // EventList's bucket window

  SimTime delay() {
    switch (rng_.below(10)) {
      case 0: return 0;
      case 1: return kW - 1;
      case 2: return kW;
      case 3: return kW + 1;
      case 4: return kW + rng_.below(4 * kW);
      case 5: return 1000 + rng_.below(1000000);  // far future
      case 6: return rng_.below(50) == 0 ? kNever : rng_.below(kW);
      default: return rng_.below(kW);
    }
  }

  void schedule() {
    const SimTime d = delay();
    const SimTime at = ref_.after(d);
    const std::uint64_t tag = next_tag_++;
    if (rng_.flip())
      list_.schedule_in(*this, d, tag);
    else
      list_.schedule_at(*this, at, tag);
    ref_.schedule_at(at, tag);
    check_state();
  }

  void step() {
    if (ref_.pending.empty()) {
      EXPECT_FALSE(list_.run_next());
    } else {
      expected_.push_back(ref_.pop());
      ASSERT_TRUE(list_.run_next());
    }
    check_state();
  }

  void check_state() {
    ASSERT_EQ(list_.size(), ref_.pending.size());
    ASSERT_EQ(list_.empty(), ref_.pending.empty());
    ASSERT_EQ(list_.dispatched(), ref_.dispatched);
    ASSERT_EQ(list_.now(), ref_.now);
    if (!ref_.pending.empty()) {
      ASSERT_EQ(list_.next_time(), std::get<0>(*ref_.pending.begin()));
    }
  }

  Xoshiro256 rng_;
  EventList own_;
  EventList& list_;
  ReferenceList ref_;
  std::uint64_t next_tag_ = 0;
  bool draining_ = false;
  std::vector<std::pair<SimTime, std::uint64_t>> seen_;
  std::vector<std::pair<SimTime, std::uint64_t>> expected_;
};

TEST(AsyncEventListTest, MatchesReferenceOrderOnRandomSchedules) {
  // Delays straddle the bucket window (0, W-1, W, W+1), reach far past it,
  // and saturate at kNever - 1; a third of the runs start just below
  // kNever, where `now + W` would wrap.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    ReferenceFuzz fuzz(seed);
    fuzz.run(seed % 3 == 0 ? kNever - 200 : 0, 2000);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(AsyncEventListTest, ResetListMatchesReferenceOrderOnRandomSchedules) {
  // One list serves every schedule, reset() in between, as an engine
  // workspace reuses its list across runs. Half the schedules stop with
  // entries still queued, some of them in the far heap and some at
  // instants near kNever; their source is gone by the next reset. Each
  // schedule must then run exactly as on a fresh list, with the clock and
  // the dispatch count back at 0.
  EventList list;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    list.reset();
    ASSERT_TRUE(list.empty());
    ASSERT_EQ(list.size(), 0u);
    ASSERT_EQ(list.now(), 0u);
    ASSERT_EQ(list.dispatched(), 0u);
    ASSERT_FALSE(list.run_next());
    ReferenceFuzz fuzz(seed, list);
    fuzz.run(seed % 3 == 0 ? kNever - 200 : 0, 2000, seed % 2 == 0);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(AsyncTriggerTest, FiresActionWithTimeAndTag) {
  EventList list;
  std::vector<std::pair<SimTime, std::uint64_t>> fired;
  Trigger trig(list, [&](SimTime now, std::uint64_t tag) {
    fired.push_back({now, tag});
  });
  trig.arm_at(42, 7);
  trig.arm_in(5, 8);
  while (list.run_next()) {
  }
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<SimTime, std::uint64_t>{5, 8}));
  EXPECT_EQ(fired[1], (std::pair<SimTime, std::uint64_t>{42, 7}));
}

TEST(AsyncDelayModelTest, FixedAddsLatency) {
  FixedDelay d(10);
  const LinkDelay out = d.classify({0, 1, 0}, 25);
  EXPECT_FALSE(out.held);
  EXPECT_EQ(out.deliver_at, 35u);
}

TEST(AsyncDelayModelTest, UniformBoundedAndSeedDeterministic) {
  UniformDelay a(3, 9, 77);
  UniformDelay b(3, 9, 77);
  for (int i = 0; i < 200; ++i) {
    const LinkDelay da = a.classify({0, 1, 0}, 100);
    const LinkDelay db = b.classify({0, 1, 0}, 100);
    EXPECT_FALSE(da.held);
    EXPECT_GE(da.deliver_at, 103u);
    EXPECT_LE(da.deliver_at, 109u);
    EXPECT_EQ(da.deliver_at, db.deliver_at) << "seed determinism broken";
  }
  EXPECT_THROW(UniformDelay(9, 3, 1), ArgumentError);
}

TEST(AsyncDelayModelTest, AdversaryHoldsWithoutDeadline) {
  AdversaryDelay d;
  const LinkDelay out = d.classify({0, 1, 0}, 50);
  EXPECT_TRUE(out.held);
  EXPECT_EQ(out.deadline, kNever);
}

TEST(AsyncDelayModelTest, GstClampsHeldDeadline) {
  GstDelay d(100, 5);  // adversary-held, forced within 5 ticks after GST
  // Before GST: the deadline is GST + bound.
  LinkDelay early = d.classify({0, 1, 0}, 10);
  EXPECT_TRUE(early.held);
  EXPECT_EQ(early.deadline, 105u);
  // After GST: deadline is send time + bound.
  LinkDelay late = d.classify({0, 1, 0}, 200);
  EXPECT_TRUE(late.held);
  EXPECT_EQ(late.deadline, 205u);
  EXPECT_THROW(GstDelay(0, 0), ArgumentError);  // bound must be >= 1
}

TEST(AsyncDelayModelTest, GstClampsTimedInnerModel) {
  // Wrapping a timed model: a delivery the inner model would postpone past
  // the bound is pulled back to max(now, GST) + bound.
  FixedDelay slow(1000);
  GstDelay d(slow, 50, 20);
  const LinkDelay out = d.classify({0, 1, 0}, 60);
  EXPECT_FALSE(out.held);
  EXPECT_EQ(out.deliver_at, 80u);  // min(60+1000, 60+20)
}

TEST(AsyncDelayModelTest, GstDeadlineSaturatesNearNever) {
  // gst + bound exactly 2^64 - 1: the deadline is the last instant, not
  // kNever ("no deadline").
  GstDelay exact(kNever - 1000, 1000);
  EXPECT_EQ(exact.classify({0, 1, 0}, 0).deadline, kNever - 1);
  // gst + bound past 2^64 - 1: clamped, not wrapped into the past.
  GstDelay past(kNever - 1000, 2000);
  const LinkDelay held = past.classify({0, 1, 0}, 0);
  EXPECT_TRUE(held.held);
  EXPECT_EQ(held.deadline, kNever - 1);
  // A send after GST near the end of time saturates the same way.
  GstDelay early(10, 8);
  EXPECT_EQ(early.classify({0, 1, 0}, kNever - 3).deadline, kNever - 1);
  // A timed inner model is clamped to the saturated deadline too.
  FixedDelay slow(kNever - 1);
  GstDelay timed(slow, kNever - 1000, 2000);
  EXPECT_EQ(timed.classify({0, 1, 0}, 5).deliver_at, kNever - 1);
}

TEST(AsyncDelayModelTest, FixedAndUniformSaturateNearNever) {
  FixedDelay fixed(10);
  EXPECT_EQ(fixed.classify({0, 1, 0}, kNever - 3).deliver_at, kNever - 1);
  EXPECT_EQ(fixed.classify({0, 1, 0}, kNever - 11).deliver_at, kNever - 1);
  EXPECT_EQ(fixed.classify({0, 1, 0}, kNever - 12).deliver_at, kNever - 2);
  FixedDelay huge(kNever);
  EXPECT_EQ(huge.classify({0, 1, 0}, 0).deliver_at, kNever - 1);
  UniformDelay uniform(5, 9, 3);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(uniform.classify({0, 1, 0}, kNever - 4).deliver_at, kNever - 1);
  UniformDelay wide(0, kNever - 1, 3);
  for (int i = 0; i < 20; ++i)
    EXPECT_GE(wide.classify({0, 1, 0}, kNever - 100).deliver_at,
              kNever - 100);
}

TEST(AsyncDelayModelTest, GstNearNeverStillDeliversAfterGst) {
  // The stall scheduler only ever waits, so every delivery is a GST
  // deadline. With gst + bound past 2^64 - 1 every one of them lands on
  // kNever - 1, and the run must still decide there, after GST.
  const BenOrAsyncFactory factory;
  StallScheduler sched;
  GstDelay delay(kNever - 1000, 2000);
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.delay = &delay;
  std::vector<Bit> inputs = {Bit::Zero, Bit::One, Bit::One, Bit::Zero,
                             Bit::One};
  const AsyncRunResult res = run_async(factory, inputs, sched, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_GE(res.end_time, delay.gst());
  EXPECT_EQ(res.decision_time, kNever - 1);
}

// ------------------------------------------------------------ the auditor

TEST(AsyncAuditTest, RejectsTimeMovingBackwards) {
  AsyncRunAuditor audit;
  audit.begin(4, 1, 0);
  audit.note_time(10);
  EXPECT_THROW(audit.note_time(9), InvariantError);
}

TEST(AsyncAuditTest, EnforcesCrashBudget) {
  AsyncRunAuditor audit;
  audit.begin(4, 1, 0);
  audit.on_crash(0, 2);
  EXPECT_THROW(audit.on_crash(0, 3), InvariantError);
  EXPECT_EQ(audit.crashes(), 1u);
}

TEST(AsyncAuditTest, RejectsDoubleCrashAndBadVictim) {
  AsyncRunAuditor audit;
  audit.begin(4, 4, 0);
  audit.on_crash(0, 2);
  EXPECT_THROW(audit.on_crash(0, 2), InvariantError);
  EXPECT_THROW(audit.on_crash(0, 9), InvariantError);
}

TEST(AsyncAuditTest, RejectsDeliveryToCrashedProcess) {
  AsyncRunAuditor audit;
  audit.begin(4, 1, 0);
  audit.on_crash(5, 2);
  EXPECT_THROW(audit.on_deliver(6, AsyncMessage{0, 2, 0}), InvariantError);
  EXPECT_NO_THROW(audit.on_deliver(6, AsyncMessage{0, 3, 0}));
}

TEST(AsyncAuditTest, RejectsSendFromCrashedProcess) {
  AsyncRunAuditor audit;
  audit.begin(4, 1, 0);
  audit.on_crash(5, 2);
  EXPECT_THROW(audit.on_send(6, AsyncMessage{2, 0, 0}), InvariantError);
}

TEST(AsyncAuditTest, EnforcesOmissionBudgetAndLiveSender) {
  AsyncRunAuditor audit;
  audit.begin(4, 1, 1);
  audit.on_omission(3, 1, 2);
  EXPECT_THROW(audit.on_omission(3, 1, 1), InvariantError);
  audit.begin(4, 1, 5);
  audit.on_crash(0, 1);
  EXPECT_THROW(audit.on_omission(1, 1, 1), InvariantError);
}

TEST(AsyncAuditTest, EndCrossChecksReportedTotals) {
  AsyncRunAuditor audit;
  audit.begin(4, 2, 0);
  audit.on_crash(0, 1);
  EXPECT_NO_THROW(audit.on_end(1, 0));
  EXPECT_THROW(audit.on_end(2, 0), InvariantError);
  EXPECT_THROW(audit.on_end(1, 1), InvariantError);
}

}  // namespace
}  // namespace synran
