// Tests for the adversary implementations: schedule adherence, budget
// discipline, and the qualitative effects each strategy exists to produce.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/valency.hpp"
#include "analysis/theory.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

std::vector<Bit> half_inputs(std::uint32_t n) {
  std::vector<Bit> inputs(n, Bit::Zero);
  for (std::uint32_t i = n / 2; i < n; ++i) inputs[i] = Bit::One;
  return inputs;
}

// ------------------------------------------------------------------ static

TEST(StaticCrashTest, ExecutesScheduleExactly) {
  StaticCrashAdversary adv({{1, 0, {}}, {2, 1, {2}}});
  FloodMinFactory factory({2, false});
  EngineOptions opts;
  opts.t_budget = 2;
  const auto res = run_once(factory, half_inputs(4), adv, opts);
  EXPECT_EQ(res.faults.crashes, 2u);
  EXPECT_TRUE(res.crashed[0]);
  EXPECT_TRUE(res.crashed[1]);
  EXPECT_FALSE(res.crashed[2]);
  ASSERT_GE(res.crashes_per_round.size(), 2u);
  EXPECT_EQ(res.crashes_per_round[0], 1u);
  EXPECT_EQ(res.crashes_per_round[1], 1u);
}

TEST(StaticCrashTest, SkipsDeadAndRespectsBudget) {
  // Same victim scheduled twice, plus an entry beyond the budget.
  StaticCrashAdversary adv({{1, 0, {}}, {2, 0, {}}, {2, 1, {}}, {2, 2, {}}});
  FloodMinFactory factory({3, false});
  EngineOptions opts;
  opts.t_budget = 2;
  const auto res = run_once(factory, half_inputs(4), adv, opts);
  EXPECT_EQ(res.faults.crashes, 2u);  // dead victim skipped, budget capped
}

TEST(StaticCrashTest, RejectsOutOfRangeRecipients) {
  StaticCrashAdversary adv({{1, 0, {9}}});
  FloodMinFactory factory({1, false});
  EngineOptions opts;
  opts.t_budget = 1;
  EXPECT_THROW(run_once(factory, half_inputs(4), adv, opts), ArgumentError);
}

// ------------------------------------------------------------------ random

TEST(RandomCrashTest, NeverExceedsBudgetAndKeepsProtocolSafe) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCrashAdversary adv({3, 0.8, seed});
    SynRanFactory factory;
    EngineOptions opts;
    opts.t_budget = 10;
    opts.seed = seed;
    opts.max_rounds = 5000;
    const auto res = run_once(factory, half_inputs(24), adv, opts);
    EXPECT_LE(res.faults.crashes, 10u);
    EXPECT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
  }
}

TEST(RandomCrashTest, SeededReproducibility) {
  RandomCrashAdversary a1({2, 0.5, 77});
  RandomCrashAdversary a2({2, 0.5, 77});
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 8;
  opts.seed = 3;
  const auto r1 = run_once(factory, half_inputs(16), a1, opts);
  const auto r2 = run_once(factory, half_inputs(16), a2, opts);
  EXPECT_EQ(r1.faults.crashes, r2.faults.crashes);
  EXPECT_EQ(r1.rounds_to_halt, r2.rounds_to_halt);
  EXPECT_EQ(r1.decision, r2.decision);
}

// ------------------------------------------------------------------- chain

TEST(ChainHidingTest, ForcesFloodMinThroughFullSchedule) {
  // n = 8, t = 5, exactly one 0 input: the chain hides the 0 for t rounds.
  const std::uint32_t n = 8, t = 5;
  std::vector<Bit> inputs(n, Bit::One);
  inputs[2] = Bit::Zero;

  ChainHidingAdversary adv;
  FloodMinFactory factory({t, false});
  EngineOptions opts;
  opts.t_budget = t;
  const auto res = run_once(factory, inputs, adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.faults.crashes, t);
  // One crash per round, every round of the schedule.
  for (std::uint32_t r = 0; r < t; ++r)
    EXPECT_EQ(res.crashes_per_round[r], 1u) << "round " << r + 1;
  // The hidden 0 must still win: it reaches the last holder in round t and
  // is flooded in round t+1.
  EXPECT_EQ(res.decision, Bit::Zero);
}

TEST(ChainHidingTest, DelaysEarlyDecider) {
  const std::uint32_t n = 8, t = 5;
  std::vector<Bit> inputs(n, Bit::One);
  inputs[0] = Bit::Zero;

  // Without an adversary the early decider fixes its decision at round 2.
  FloodMinFactory factory({t, true});
  NoAdversary none;
  const auto fast = run_once(factory, inputs, none, {});
  EXPECT_EQ(fast.rounds_to_decision, 2u);

  // Under the chain, each round looks dirty, so the early rule cannot fire
  // before the chain runs out of budget.
  ChainHidingAdversary adv;
  EngineOptions opts;
  opts.t_budget = t;
  const auto slow = run_once(factory, inputs, adv, opts);
  EXPECT_TRUE(slow.agreement);
  EXPECT_GE(slow.rounds_to_decision, t);
}

TEST(ChainHidingTest, IdlesWithoutAUniqueHolder) {
  ChainHidingAdversary adv;
  FloodMinFactory factory({2, false});
  EngineOptions opts;
  opts.t_budget = 2;
  // Two zeros: no unique holder, the adversary must do nothing.
  std::vector<Bit> inputs{Bit::Zero, Bit::Zero, Bit::One, Bit::One};
  const auto res = run_once(factory, inputs, adv, opts);
  EXPECT_EQ(res.faults.crashes, 0u);
}

// ---------------------------------------------------------------- coinbias

TEST(CoinBiasTest, RespectsPerRoundCapAndBudget) {
  const std::uint32_t n = 64;
  CoinBiasAdversary adv;
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = n / 2;
  opts.per_round_cap = static_cast<std::uint32_t>(theory::per_round_budget(n));
  opts.max_rounds = 20000;
  const auto res = run_once(factory, half_inputs(n), adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_LE(res.faults.crashes, n / 2);
  for (auto c : res.crashes_per_round) EXPECT_LE(c, opts.per_round_cap);
}

TEST(CoinBiasTest, PreservesSafetyAcrossSeeds) {
  const std::uint32_t n = 48;
  SynRanFactory factory;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    CoinBiasAdversary adv({0.55, true, seed});
    EngineOptions opts;
    opts.t_budget = n - 1;
    opts.seed = seed * 31;
    opts.max_rounds = 50000;
    const auto res = run_once(factory, half_inputs(n), adv, opts);
    EXPECT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
  }
}

TEST(CoinBiasTest, DelaysSynRanBeyondAdversaryFreeBaseline) {
  const std::uint32_t n = 256;
  SynRanFactory factory;

  RepeatSpec spec;
  spec.n = n;
  spec.pattern = InputPattern::Half;
  spec.reps = 30;
  spec.seed = 5;
  spec.engine.max_rounds = 100000;

  const auto baseline =
      run_repeated(factory, no_adversary_factory(), spec);

  RepeatSpec adv_spec = spec;
  adv_spec.engine.t_budget = n - 1;
  const auto attacked = run_repeated(
      factory,
      [](std::uint64_t seed) {
        return std::make_unique<CoinBiasAdversary>(
            CoinBiasOptions{0.55, true, seed});
      },
      adv_spec);

  ASSERT_TRUE(baseline.all_safe());
  ASSERT_TRUE(attacked.all_safe());
  EXPECT_GT(attacked.rounds_to_decision().mean(),
            baseline.rounds_to_decision().mean() + 2.0);
}

TEST(CoinBiasTest, RejectsBadTargetRatio) {
  CoinBiasAdversary adv({0.7, true, 1});
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 4;
  EXPECT_THROW(run_once(factory, half_inputs(8), adv, opts), ArgumentError);
}

// ---------------------------------------------------------- valency (MC)

TEST(ValencySamplingTest, SafeAndBudgetDisciplined) {
  const std::uint32_t n = 16;
  ValencySamplingOptions vopts;
  vopts.rollouts = 6;
  ValencySamplingAdversary adv(vopts);
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 8;
  opts.per_round_cap = 4;
  opts.max_rounds = 5000;
  const auto res = run_once(factory, half_inputs(n), adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_LE(res.faults.crashes, 8u);
  for (auto c : res.crashes_per_round) EXPECT_LE(c, 4u);
}

}  // namespace
}  // namespace synran
