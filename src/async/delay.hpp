// Per-link delay models: the policy layer between "a process sent a
// message" and "the recipient's on_message fires".
//
// A model classifies each send into either a timed delivery (the fabric
// schedules it on the EventList) or an adversary-held message (parked in
// the scheduler-visible pool until the scheduler delivers it — the classic
// full-information asynchronous adversary). A held classification may carry
// a deadline, which is how partial synchrony enters: GstDelay clamps every
// delivery to max(send_time, GST) + bound, so the adversary keeps full
// scheduling freedom before the global stabilization time and only bounded
// freedom after it [DLS88-style]. Composition over replacement: the same
// scheduler, fault injections, and protocol timeouts run unchanged under
// any model.
#pragma once

#include <cstdint>
#include <memory>

#include "async/event.hpp"
#include "async/process.hpp"
#include "common/rng.hpp"

namespace synran {

/// One send's fate as decided by a delay model.
struct LinkDelay {
  /// Absolute delivery instant; meaningful when !held.
  SimTime deliver_at = 0;
  /// Parked for the adversarial scheduler instead of timed delivery.
  bool held = false;
  /// When held: latest instant the fabric force-delivers it (kNever =
  /// the scheduler alone decides — full asynchrony).
  SimTime deadline = kNever;
};

class DelayModel {
 public:
  virtual ~DelayModel() = default;
  /// Called once per run before any classify().
  virtual void begin(std::uint32_t /*n*/) {}
  /// Decides the fate of `msg` sent at `now`. Timed deliveries must not
  /// land in the past (deliver_at >= now); the engine enforces this.
  /// Instants are `time_after(now, delay)`, which saturates at kNever - 1
  /// instead of wrapping on a huge delay.
  virtual LinkDelay classify(const AsyncMessage& msg, SimTime now) = 0;
  virtual const char* name() const = 0;
};

/// Every link takes exactly `latency` ticks: the lockstep-like baseline.
/// With the EventList's FIFO tiebreak this reproduces true send-order
/// delivery (unlike the step-scheduler's swap-remove "fifo").
class FixedDelay final : public DelayModel {
 public:
  explicit FixedDelay(SimTime latency) : latency_(latency) {}
  LinkDelay classify(const AsyncMessage& /*msg*/, SimTime now) override {
    return LinkDelay{time_after(now, latency_), false, kNever};
  }
  const char* name() const override { return "fixed"; }

 private:
  SimTime latency_;
};

/// Seeded random-bounded latency, i.i.d. uniform in [lo, hi] per message:
/// benign network jitter.
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(SimTime lo, SimTime hi, std::uint64_t seed);
  LinkDelay classify(const AsyncMessage& msg, SimTime now) override;
  const char* name() const override { return "uniform"; }

 private:
  SimTime lo_;
  SimTime hi_;
  // Network-side randomness (it shapes the schedule, not the protocol's
  // coins), outside the CoinSource enumeration contract like schedulers.
  Xoshiro256 rng_;  // synran-lint: allow(coin-source)
};

/// Every message is held for the scheduler with no deadline: the strong
/// asynchronous adversary. This is the engine default and reproduces the
/// old step-scheduler semantics bit for bit.
class AdversaryDelay final : public DelayModel {
 public:
  LinkDelay classify(const AsyncMessage& /*msg*/, SimTime /*now*/) override {
    return LinkDelay{0, true, kNever};
  }
  const char* name() const override { return "adversary"; }
};

/// Partial synchrony: wraps an inner model and clamps every delivery —
/// timed or held — to max(send_time, gst) + bound, saturating at
/// kNever - 1 (so a GST near the end of time is late, never "no deadline"
/// and never wrapped into the past). Before GST the inner
/// model (typically AdversaryDelay) rules; after GST every message is
/// delivered within `bound` ticks, which is what makes timeout-based
/// protocol logic sound.
class GstDelay final : public DelayModel {
 public:
  /// Borrowing form: `inner` must outlive the model.
  GstDelay(DelayModel& inner, SimTime gst, SimTime bound);
  /// Owning convenience: adversarial before GST, `bound`-synchronous after.
  GstDelay(SimTime gst, SimTime bound);

  void begin(std::uint32_t n) override { inner_->begin(n); }
  LinkDelay classify(const AsyncMessage& msg, SimTime now) override;
  const char* name() const override { return "gst"; }

  SimTime gst() const { return gst_; }
  SimTime bound() const { return bound_; }

 private:
  std::unique_ptr<DelayModel> owned_;
  DelayModel* inner_;
  SimTime gst_;
  SimTime bound_;
};

}  // namespace synran
