#include "adversary/valency.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "sim/rollout.hpp"

namespace synran {

void ValencySamplingAdversary::begin(std::uint32_t /*n*/,
                                     std::uint32_t /*t_budget*/) {
  rng_ = Xoshiro256(opts_.seed);
}

double ValencySamplingAdversary::estimate_p1(const WorldView& world,
                                             const FaultPlan& plan) {
  NoAdversary neutral;
  std::uint32_t ones = 0, total = 0;
  for (std::uint32_t k = 0; k < opts_.rollouts; ++k) {
    const auto out =
        rollout(world, plan, neutral, rng_.next(), opts_.max_rollout_rounds);
    if (!out.terminated) continue;  // counted as "no information"
    ++total;
    if (out.decided_one) ++ones;
  }
  if (total == 0) return 0.5;
  return static_cast<double>(ones) / static_cast<double>(total);
}

FaultPlan ValencySamplingAdversary::plan_round(const WorldView& world) {
  const std::uint32_t n = world.n();
  const std::uint32_t budget = world.round_budget();

  std::vector<ProcessId> one_senders, zero_senders;
  for (ProcessId i = 0; i < n; ++i) {
    const auto p = world.payload(i);
    if (!p.has_value() || (*p & payload::kDeterministicFlag)) continue;
    if (payload::supports(*p, Bit::One))
      one_senders.push_back(i);
    else
      zero_senders.push_back(i);
  }
  if (budget == 0 || (one_senders.empty() && zero_senders.empty())) return {};

  // Shuffle once so "the first k" is a random k-subset.
  const auto shuffle = [&](std::vector<ProcessId>& v) {
    for (std::size_t k = 0; k + 1 < v.size(); ++k) {
      const std::size_t j = k + rng_.below(v.size() - k);
      std::swap(v[k], v[j]);
    }
  };
  shuffle(one_senders);
  shuffle(zero_senders);

  const double unit =
      std::sqrt(static_cast<double>(n) *
                std::max(0.6931, std::log(static_cast<double>(n))));

  // Build the candidate set.
  std::vector<FaultPlan> candidates;
  candidates.emplace_back();  // do nothing

  // Trimmed messages reach nobody; every trim candidate shares one mask.
  const SharedMask nobody = DynBitset(n);
  const auto trim_plan = [&](const std::vector<ProcessId>& pool,
                             std::uint32_t k) {
    FaultPlan plan;
    k = std::min<std::uint32_t>(
        {k, budget, static_cast<std::uint32_t>(pool.size())});
    plan.crashes.reserve(k);
    for (std::uint32_t i = 0; i < k; ++i)
      plan.crashes.push_back({pool[i], nobody});
    return plan;
  };

  for (double frac : opts_.crash_fractions) {
    const auto k = static_cast<std::uint32_t>(std::ceil(frac * unit));
    if (k == 0) continue;
    if (!one_senders.empty()) candidates.push_back(trim_plan(one_senders, k));
    if (!zero_senders.empty())
      candidates.push_back(trim_plan(zero_senders, k));
  }

  // The Z=0 half-split (hide every zero from alternating receivers).
  if (!zero_senders.empty() && zero_senders.size() <= budget) {
    DynBitset half(n);
    bool tick = false;
    for (ProcessId i = 0; i < n; ++i) {
      if (!world.alive().test(i) || world.halted().test(i)) continue;
      if (tick) half.set(i);
      tick = !tick;
    }
    const SharedMask shared_half = std::move(half);
    FaultPlan plan;
    plan.crashes.reserve(zero_senders.size());
    for (ProcessId v : zero_senders) plan.crashes.push_back({v, shared_half});
    candidates.push_back(std::move(plan));
  }

  // Pick the candidate whose outcome distribution stays closest to 1/2,
  // breaking ties toward fewer crashes (cheaper for the same bivalence).
  double best_score = 2.0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double p1 = estimate_p1(world, candidates[i]);
    const double score = std::abs(p1 - 0.5);
    const bool better =
        score < best_score - 1e-12 ||
        (std::abs(score - best_score) <= 1e-12 &&
         candidates[i].crash_count() < candidates[best].crash_count());
    if (better) {
      best_score = score;
      best = i;
    }
  }
  return std::move(candidates[best]);
}

}  // namespace synran
