#include "adversary/basic.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace synran {

FaultPlan StaticCrashAdversary::plan_round(const WorldView& world) {
  FaultPlan plan;
  std::uint32_t budget = world.round_budget();
  for (const auto& e : schedule_) {
    if (e.round != world.round()) continue;
    if (budget == 0) break;
    if (!world.sending(e.victim)) continue;  // dead or halted — nothing to cut
    DynBitset mask(world.n());
    for (ProcessId r : e.deliver_to) {
      SYNRAN_REQUIRE(r < world.n(), "deliver_to recipient out of range");
      mask.set(r);
    }
    plan.crashes.push_back({e.victim, std::move(mask)});
    --budget;
  }
  return plan;
}

void RandomCrashAdversary::begin(std::uint32_t /*n*/,
                                 std::uint32_t /*t_budget*/) {
  rng_ = Xoshiro256(opts_.seed);
}

FaultPlan RandomCrashAdversary::plan_round(const WorldView& world) {
  FaultPlan plan;
  if (world.round_budget() == 0) return plan;
  if (rng_.uniform() >= opts_.activity) return plan;

  std::vector<ProcessId> senders;
  for (ProcessId i = 0; i < world.n(); ++i)
    if (world.sending(i)) senders.push_back(i);
  if (senders.empty()) return plan;

  const std::uint32_t want = 1 + static_cast<std::uint32_t>(rng_.below(
                                     std::max<std::uint32_t>(
                                         1, opts_.max_per_round)));
  const std::uint32_t count = std::min<std::uint32_t>(
      {want, world.round_budget(),
       static_cast<std::uint32_t>(senders.size())});

  // Partial Fisher-Yates to pick `count` distinct victims.
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t j = k + rng_.below(senders.size() - k);
    std::swap(senders[k], senders[j]);
  }

  for (std::uint32_t k = 0; k < count; ++k) {
    DynBitset mask(world.n());
    for (ProcessId r = 0; r < world.n(); ++r)
      if (rng_.flip()) mask.set(r);
    plan.crashes.push_back({senders[k], std::move(mask)});
  }
  return plan;
}

void ChainHidingAdversary::begin(std::uint32_t n, std::uint32_t /*t_budget*/) {
  was_holder_.assign(n, false);
}

FaultPlan ChainHidingAdversary::plan_round(const WorldView& world) {
  FaultPlan plan;
  if (world.round_budget() == 0) return plan;

  // The current sole holder of value 0 (estimate Zero) that is still
  // sending; if several exist the hiding already failed — stop interfering.
  ProcessId holder = world.n();
  std::uint32_t zero_holders = 0;
  for (ProcessId i = 0; i < world.n(); ++i) {
    if (!world.sending(i)) continue;
    if (world.process(i).view().estimate == Bit::Zero) {
      ++zero_holders;
      holder = i;
    }
  }
  if (zero_holders != 1) return plan;

  // Successor: a fresh process that never held 0 yet.
  ProcessId successor = world.n();
  for (ProcessId i = 0; i < world.n(); ++i) {
    if (i == holder || !world.sending(i)) continue;
    if (!was_holder_[i]) {
      successor = i;
      break;
    }
  }
  if (successor == world.n()) return plan;  // nobody left to pass 0 to

  DynBitset mask(world.n());
  mask.set(successor);
  was_holder_[holder] = true;
  plan.crashes.push_back({holder, std::move(mask)});
  return plan;
}

}  // namespace synran
