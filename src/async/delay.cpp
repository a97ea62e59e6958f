#include "async/delay.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace synran {

UniformDelay::UniformDelay(SimTime lo, SimTime hi, std::uint64_t seed)
    : lo_(lo), hi_(hi), rng_(seed) {
  SYNRAN_REQUIRE(lo <= hi, "uniform delay needs lo <= hi");
  SYNRAN_REQUIRE(hi < kNever, "uniform delay bound must be finite");
}

LinkDelay UniformDelay::classify(const AsyncMessage& /*msg*/, SimTime now) {
  const SimTime jitter = lo_ + rng_.below(hi_ - lo_ + 1);
  return LinkDelay{time_after(now, jitter), false, kNever};
}

GstDelay::GstDelay(DelayModel& inner, SimTime gst, SimTime bound)
    : inner_(&inner), gst_(gst), bound_(bound) {
  SYNRAN_REQUIRE(bound >= 1, "post-GST delivery bound must be >= 1");
  SYNRAN_REQUIRE(gst < kNever && bound < kNever, "GST parameters are finite");
}

GstDelay::GstDelay(SimTime gst, SimTime bound)
    : owned_(std::make_unique<AdversaryDelay>()),
      inner_(owned_.get()),
      gst_(gst),
      bound_(bound) {
  SYNRAN_REQUIRE(bound >= 1, "post-GST delivery bound must be >= 1");
  SYNRAN_REQUIRE(gst < kNever && bound < kNever, "GST parameters are finite");
}

LinkDelay GstDelay::classify(const AsyncMessage& msg, SimTime now) {
  LinkDelay d = inner_->classify(msg, now);
  const SimTime clamp = time_after(std::max(now, gst_), bound_);
  if (d.held) {
    d.deadline = std::min(d.deadline, clamp);
  } else {
    d.deliver_at = std::min(d.deliver_at, clamp);
  }
  return d;
}

}  // namespace synran
