#include "async/scheduler.hpp"

#include "common/check.hpp"

namespace synran {

AsyncAction FifoScheduler::step(const AsyncWorld& world) {
  SYNRAN_CHECK(!world.pending().empty());
  return {AsyncAction::Kind::Deliver, 0, 0, {}};
}

AsyncAction RandomScheduler::step(const AsyncWorld& world) {
  SYNRAN_CHECK(!world.pending().empty());
  return {AsyncAction::Kind::Deliver, rng_.below(world.pending().size()), 0,
          {}};
}

void LaggardScheduler::begin(std::uint32_t n, std::uint32_t t) {
  t_ = t;
  scan_from_ = 0;
  lagging_.assign(n, false);
  // Lag a fixed set of up to t processes (rotating would also work; a fixed
  // set maximizes the starvation effect on waiting thresholds).
  for (std::uint32_t i = 0; i < n && i < t; ++i) lagging_[i] = true;
}

AsyncAction LaggardScheduler::step(const AsyncWorld& world) {
  const auto pending = world.pending();
  SYNRAN_CHECK(!pending.empty());

  // Occasionally spend a crash on the process with the highest round — the
  // one pulling the system forward — dropping all its in-transit traffic.
  if (world.crash_budget() > 0 && rng_.uniform() < 0.02) {
    ProcessId victim = world.n();
    std::uint32_t best_round = 0;
    for (ProcessId i = 0; i < world.n(); ++i) {
      if (world.crashed(i)) continue;
      const auto v = world.view(i);
      if (!v.decided && v.round >= best_round) {
        best_round = v.round;
        victim = i;
      }
    }
    if (victim < world.n()) {
      AsyncAction act;
      act.kind = AsyncAction::Kind::Crash;
      act.victim = victim;
      for (std::size_t i = 0; i < pending.size(); ++i)
        if (pending[i].from == victim) act.drop.push_back(i);
      scan_from_ = 0;  // the compaction shifts slots down
      return act;
    }
  }

  // Deliver non-laggard traffic first; laggard messages only when nothing
  // else remains (asynchrony lets the adversary delay them arbitrarily).
  // Slots below scan_from_ are known laggard (see the class comment).
  SYNRAN_CHECK(scan_from_ <= pending.size());
  for (std::size_t i = scan_from_; i < pending.size(); ++i) {
    if (!lagging_[pending[i].from]) {
      scan_from_ = i;
      return {AsyncAction::Kind::Deliver, i, 0, {}};
    }
  }
  scan_from_ = pending.size() - 1;  // swap-removing slot 0 keeps all laggard
  return {AsyncAction::Kind::Deliver, 0, 0, {}};
}

AsyncAction StallScheduler::step(const AsyncWorld& /*world*/) {
  return {AsyncAction::Kind::Wait, 0, 0, {}};
}

}  // namespace synran
