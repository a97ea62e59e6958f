#include "adversary/coinbias.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.hpp"
#include "net/fabric.hpp"

namespace synran {

void CoinBiasAdversary::begin(std::uint32_t n, std::uint32_t /*t_budget*/) {
  rng_ = Xoshiro256(opts_.seed);
  last_count_.assign(n, n);  // the paper's N^0 = n convention
  one_senders_.reserve(n);    // a fresh adversary's lists grow only once
  zero_senders_.reserve(n);
  crashes_spent_ = 0;
  split_parity_ = false;
}

FaultPlan CoinBiasAdversary::plan_round(const WorldView& world) {
  SYNRAN_REQUIRE(opts_.target_ratio > 0.5 && opts_.target_ratio <= 0.6,
                 "target_ratio must lie in the coin-flip window (0.5, 0.6]");
  const std::uint32_t n = world.n();
  FaultPlan plan;

  // Classify this round's senders by the value their message supports.
  // Deterministic-stage senders are left alone: once the flooding stage is
  // reached, crashes can no longer extend the execution. Every sender is
  // alive, so each scan below walks the live set in increasing order.
  const DynBitset& alive = world.alive();
  one_senders_.clear();
  zero_senders_.clear();
  std::uint32_t det_senders = 0, senders = 0;
  alive.for_each_set([&](std::size_t i) {
    const auto p = world.payload(static_cast<ProcessId>(i));
    if (!p.has_value()) return;
    ++senders;
    if (*p & payload::kDeterministicFlag) {
      ++det_senders;
      return;
    }
    if (payload::supports(*p, Bit::One))
      one_senders_.push_back(static_cast<ProcessId>(i));
    else
      zero_senders_.push_back(static_cast<ProcessId>(i));
  });

  const std::uint32_t budget = world.round_budget();
  if (budget == 0 || senders == 0 || det_senders == senders) {
    note_deliveries(world, plan);
    return plan;
  }

  // Receiver-side N^{r-1} bounds among processes that will digest this round.
  std::uint32_t np_min = 0, np_max = 0;
  bool first = true;
  alive.for_each_set([&](std::size_t i) {
    if (world.halted().test(i)) return;
    const std::uint32_t c = last_count_[i];
    if (first) {
      np_min = np_max = c;
      first = false;
    } else {
      np_min = std::min(np_min, c);
      np_max = std::max(np_max, c);
    }
  });
  if (first) {
    note_deliveries(world, plan);
    return plan;
  }

  const std::uint64_t o = one_senders_.size();
  const std::uint64_t z = zero_senders_.size();

  // Every mask below is built once per round and shared by all of the
  // round's directives.
  const auto crash_all = [&](std::span<const ProcessId> victims,
                             const SharedMask& mask) {
    plan.crashes.reserve(victims.size());
    for (ProcessId v : victims) plan.crashes.push_back({v, mask});
  };

  if (o == 0 || z == 0) {
    // Unanimity among probabilistic senders: the threshold fight is lost
    // (Lemma 4.1). Optionally stall the STOP rule: it fires only when
    // N^{r-3} − N^r ≤ N^{r-2}/10, so keep the message count collapsing by
    // >10% per 3-round window — Lemma 4.1's "fail 1/10 of the remaining
    // processes every 4 rounds".
    if (opts_.stall_after_unanimity) {
      // The STOP rule compares N^{r-3} − N^r against N^{r-2}/10, and its
      // first firing window spans only two rounds of kills — so beating it
      // needs strictly more than N/20 kills per round.
      const std::uint32_t need = np_min / 20 + 1;
      const std::uint32_t kills = std::min<std::uint32_t>(
          {need, budget, static_cast<std::uint32_t>(o + z)});
      auto& pool = o != 0 ? one_senders_ : zero_senders_;
      for (std::uint32_t k = 0; k < kills; ++k) {
        const std::size_t j = k + rng_.below(pool.size() - k);
        std::swap(pool[k], pool[j]);
      }
      // The messages reach nobody.
      crash_all(std::span(pool).first(kills), DynBitset(n));
    }
  } else if (10 * o > 6 * static_cast<std::uint64_t>(np_min)) {
    // 1-surplus: trim the 1-count back into the coin-flip window for most
    // receivers. This is the recurring cost of Lemma 4.6 — the surplus
    // above the mean is Θ(√(p·log p)) with the probability the lemma needs.
    //
    // The trimmed messages are not wasted: they are still delivered to a
    // small receiver group B, which therefore keeps seeing O > 6N/10 and
    // proposes 1 next round. A standing 1-proposer reserve lifts the
    // expected coin count to mid-window, making the expensive 0-collapse
    // (the Z-split below) a large-deviation event instead of a fair-coin
    // one — the same crashes buy far more rounds.
    const auto target = static_cast<std::uint64_t>(
        opts_.target_ratio * static_cast<double>(np_min));
    const std::uint64_t surplus = o > target ? o - target : 0;
    const std::uint32_t kills = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({surplus, budget, o}));
    if (kills > 0) {
      DynBitset reserve(n);
      std::uint32_t tick = split_parity_ ? 0 : 2;  // rotate the group
      alive.for_each_set([&](std::size_t i) {
        if (world.halted().test(i)) return;
        if (tick % 5 == 0) reserve.set(i);  // ~20% of receivers
        ++tick;
      });
      split_parity_ = !split_parity_;
      for (std::uint32_t k = 0; k < kills; ++k) {
        const std::size_t j = k + rng_.below(one_senders_.size() - k);
        std::swap(one_senders_[k], one_senders_[j]);
      }
      crash_all(std::span(one_senders_).first(kills), std::move(reserve));
    }
  } else if (10 * o < 5 * static_cast<std::uint64_t>(np_max)) {
    // 0-surplus. Thresholds compare O^r against the *previous* count, so
    // crashing 0-senders cannot raise anyone's ratio — the only lever is the
    // one-side-bias rule itself: hide *all* zeros from half the receivers so
    // that half sees Z=0 and must propose 1. Feasible only when the zero
    // side fits in the budget (the paper's "fail p/2 with probability 1/2").
    if (z <= budget) {
      DynBitset half(n);
      bool tick = split_parity_;
      alive.for_each_set([&](std::size_t i) {
        if (world.halted().test(i)) return;
        if (tick) half.set(i);
        tick = !tick;
      });
      split_parity_ = !split_parity_;
      crash_all(zero_senders_, std::move(half));
    }
  }
  // Otherwise every receiver sits inside the coin-flip window already; let
  // the coins fall and pay again next round.

  crashes_spent_ += static_cast<std::uint32_t>(plan.crash_count());
  note_deliveries(world, plan);
  return plan;
}

void CoinBiasAdversary::note_deliveries(const WorldView& world,
                                        const FaultPlan& plan) {
  // Count the delivery we just allowed so next round's thresholds use the
  // receivers' true N^{r-1}.
  receivers_ = world.alive();
  for (const auto& c : plan.crashes) receivers_.reset(c.victim);
  world.halted().for_each_set([&](std::size_t i) { receivers_.reset(i); });

  count_into(world.n(), RoundTraffic{world.payloads(), &plan, &world.alive()},
             receivers_, last_count_, count_scratch_);
}

}  // namespace synran
