#include "adversary/byzantine.hpp"

#include <vector>

#include "common/check.hpp"

namespace synran {

namespace {

/// Forged camp payloads. The low bit vouches for the value in the shared
/// low-two-bit convention; bit (8 + v) vouches for value v in the flooding
/// value-set convention of k-FloodMin, so one forgery poisons both protocol
/// families at once.
constexpr Payload kForgeValue0 = payload::kSupports0 | (Payload{1} << 8);
constexpr Payload kForgeValue1 = payload::kSupports1 | (Payload{2} << 8);

}  // namespace

void ByzantineAdversary::begin(std::uint32_t n, std::uint32_t t_budget) {
  SYNRAN_REQUIRE(opts_.corrupt_rate >= 0.0 && opts_.corrupt_rate <= 1.0,
                 "corrupt_rate must lie in [0, 1]");
  rng_ = Xoshiro256(opts_.seed);
  corruptions_spent_ = 0;
  if (inner_ != nullptr) inner_->begin(n, t_budget);
}

FaultPlan ByzantineAdversary::plan_round(const WorldView& world) {
  FaultPlan plan;
  if (inner_ != nullptr) plan = inner_->plan_round(world);
  std::uint32_t budget = world.corruption_round_budget();
  if (budget == 0 || opts_.corrupt_rate <= 0.0) return plan;

  const std::uint32_t n = world.n();
  // A sender may appear in at most one directive family per plan, so skip
  // everyone the inner adversary already touched.
  taken_.assign(n);
  for (const auto& c : plan.crashes) taken_.set(c.victim);
  for (const auto& o : plan.omissions) taken_.set(o.sender);
  for (const auto& cd : plan.corruptions) taken_.set(cd.sender);
  // A sender forges to every receiver that digests the round but itself.
  const std::size_t receivers =
      world.alive().count() - world.alive().count_and(world.halted());

  for (ProcessId s = 0; s < n && budget > 0; ++s) {
    if (!world.sending(s) || taken_.test(s)) continue;
    if (rng_.uniform() >= opts_.corrupt_rate) continue;
    CorruptionDirective cd;
    cd.sender = s;
    cd.forgeries.reserve(receivers);
    bool camp_one = false;
    for (ProcessId r = 0; r < n; ++r) {
      if (r == s) continue;  // a process always trusts its own memory
      if (!world.alive().test(r) || world.halted().test(r)) continue;
      cd.forgeries.push_back(
          {r, camp_one ? kForgeValue1 : kForgeValue0});
      camp_one = !camp_one;
    }
    if (cd.forgeries.empty()) continue;
    plan.corruptions.push_back(std::move(cd));
    ++corruptions_spent_;
    --budget;
  }
  return plan;
}

void AdaptiveCoinAttacker::begin(std::uint32_t n,
                                 std::uint32_t /*t_budget*/) {
  SYNRAN_REQUIRE(opts_.push_ratio > 0.5 && opts_.push_ratio <= 1.0,
                 "push_ratio must lie in (0.5, 1]");
  rng_ = Xoshiro256(opts_.seed);
  disfavored_.reserve(n);  // a fresh adversary's list grows only once
  corruptions_spent_ = 0;
}

FaultPlan AdaptiveCoinAttacker::plan_round(const WorldView& world) {
  FaultPlan plan;
  std::uint32_t budget = world.corruption_round_budget();
  if (budget == 0) return plan;

  const std::uint32_t n = world.n();
  const Bit target = opts_.target;
  const Bit other = target == Bit::One ? Bit::Zero : Bit::One;

  // Read this round's realized coins off the probabilistic-stage payloads:
  // a sender favors the target when its message supports it, and is a
  // corruption victim candidate when it supports only the other value.
  std::vector<ProcessId>& disfavored = disfavored_;
  disfavored.clear();
  std::uint64_t favored = 0;
  for (ProcessId i = 0; i < n; ++i) {
    const auto p = world.payload(i);
    if (!p.has_value()) continue;
    if (*p & payload::kDeterministicFlag) continue;  // no coin to bias
    if (payload::supports(*p, target)) {
      ++favored;
    } else if (payload::supports(*p, other)) {
      disfavored.push_back(i);
    }
  }
  if (disfavored.empty()) return plan;

  // Everyone who will digest this round sees the forged coins.
  active_ = world.alive();
  world.halted().for_each_set([&](std::size_t i) { active_.reset(i); });
  const std::size_t receivers = active_.count();

  const Payload forged = target == Bit::One ? kForgeValue1 : kForgeValue0;
  std::uint64_t visible = favored + disfavored.size();
  std::size_t flipped = 0;
  while (budget > 0 && flipped < disfavored.size()) {
    if (static_cast<double>(favored) >=
        opts_.push_ratio * static_cast<double>(visible)) {
      break;  // the collective coin already leans our way
    }
    const std::size_t j = flipped + rng_.below(disfavored.size() - flipped);
    std::swap(disfavored[flipped], disfavored[j]);
    const ProcessId victim = disfavored[flipped];
    CorruptionDirective cd;
    cd.sender = victim;
    cd.forgeries.reserve(receivers);
    for (ProcessId r = 0; r < n; ++r) {
      if (r == victim || !active_.test(r)) continue;
      cd.forgeries.push_back({r, forged});
    }
    if (cd.forgeries.empty()) break;  // nobody left to deceive
    plan.corruptions.push_back(std::move(cd));
    ++corruptions_spent_;
    ++favored;  // the victim's visible coin now favors the target
    ++flipped;
    --budget;
  }
  return plan;
}

}  // namespace synran
