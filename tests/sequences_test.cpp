// Multi-round execution-sequence tests: decide/rescind/re-decide chains,
// deterministic-stage entry paths, engine boundary behaviour, and valency
// engine determinism — the scenarios that span several of the paper's rules
// at once.
#include <gtest/gtest.h>

#include "adversary/basic.hpp"
#include "common/check.hpp"
#include "lowerbound/valency.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

Receipt bit_receipt(std::uint32_t ones, std::uint32_t zeros) {
  Receipt r;
  r.count = ones + zeros;
  r.ones = ones;
  r.zeros = zeros;
  r.or_mask = (ones ? payload::kSupports1 : 0) |
              (zeros ? payload::kSupports0 : 0);
  return r;
}

std::optional<Payload> step(SynRanProcess& p, const Receipt& r,
                            std::vector<bool> tape = {}) {
  TapeCoinSource coins(std::move(tape));
  return p.on_round(&r, coins);
}

// ----------------------------------------------- decide/rescind sequences

TEST(SynRanSequences, FullRescindCycleEndsInStop) {
  SynRanProcess p(0, 100, Bit::Zero, {});
  TapeCoinSource init;
  (void)p.on_round(nullptr, init);

  (void)step(p, bit_receipt(80, 20));        // decide 1 (N^1=100)
  ASSERT_TRUE(p.decided());
  (void)step(p, bit_receipt(70, 10), {});    // N^2=80: diff=20>10 rescind;
                                             // 700 > 6·100 ⇒ propose 1
  ASSERT_FALSE(p.decided());
  EXPECT_EQ(p.estimate(), Bit::One);
  (void)step(p, bit_receipt(70, 10));        // N^3=80: 700 > 7·80 ⇒ decide
  ASSERT_TRUE(p.decided());
  (void)step(p, bit_receipt(70, 10));        // N^4=80: diff=N^1−N^4=20,
                                             // 10·20 > N^2=80 ⇒ rescind;
                                             // 700 > 7·80=560 ⇒ decide again
  ASSERT_TRUE(p.decided());
  // N^5=80: diff = N^2−N^5 = 0 ≤ N^3/10 ⇒ STOP.
  const auto out = step(p, bit_receipt(70, 10));
  EXPECT_FALSE(out.has_value());
  EXPECT_TRUE(p.halted());
  EXPECT_EQ(p.decision(), Bit::One);
}

TEST(SynRanSequences, CoinRunsUntilThresholdBreaks) {
  // A long streak of coin-window receipts: exactly one flip per round, b
  // follows the tape, and nothing decides until the counts leave the
  // window.
  SynRanProcess p(0, 100, Bit::Zero, {});
  TapeCoinSource init;
  (void)p.on_round(nullptr, init);

  const bool tape[] = {true, false, true, true, false};
  std::uint32_t count = 100;
  for (bool coin : tape) {
    const auto out = step(p, bit_receipt(count * 55 / 100,
                                         count - count * 55 / 100),
                          {coin});
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, payload::of_bit(coin ? Bit::One : Bit::Zero));
    EXPECT_FALSE(p.decided());
    EXPECT_TRUE(p.view().flipped_coin);
  }
  // Leave the window: a decisive receipt.
  (void)step(p, bit_receipt(90, 10));
  EXPECT_TRUE(p.decided());
}

TEST(SynRanSequences, SymmetricModeRescindsToo) {
  SynRanOptions o;
  o.coin_rule = CoinRule::Symmetric;
  SynRanProcess p(0, 100, Bit::Zero, o);
  TapeCoinSource init;
  (void)p.on_round(nullptr, init);
  (void)step(p, bit_receipt(80, 20));  // 800 > 7·100 ⇒ decide 1
  ASSERT_TRUE(p.decided());
  (void)step(p, bit_receipt(50, 10));  // N^2=60: diff=40 > N^0/10 ⇒ rescind;
                                       // 500 > 7·60=420 ⇒ decide again
  EXPECT_TRUE(p.decided());
}

// ------------------------------------------------- det-stage entry paths

TEST(SynRanSequences, DetStageEntryWhileDecided) {
  // A process that decided earlier still honours the hand-off check first
  // (pseudocode order), entering the deterministic stage without stopping.
  SynRanProcess p(0, 100, Bit::Zero, {});
  TapeCoinSource init;
  (void)p.on_round(nullptr, init);
  (void)step(p, bit_receipt(80, 20));  // decide 1
  ASSERT_TRUE(p.decided());
  // Count below √(100/ln 100) ≈ 4.66 ⇒ hand-off beats the stop check.
  const auto out = step(p, bit_receipt(3, 1));
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(*out & payload::kDeterministicFlag);
  EXPECT_TRUE(p.in_deterministic_stage());
  EXPECT_FALSE(p.halted());
}

TEST(SynRanSequences, DetStageAllOnesDecidesOne) {
  SynRanProcess p(0, 100, Bit::One, {});
  TapeCoinSource init;
  (void)p.on_round(nullptr, init);
  (void)step(p, bit_receipt(4, 0));  // hand-off
  auto out = step(p, bit_receipt(4, 0));  // sync round: only 1s
  for (int i = 0; i < 12 && out.has_value(); ++i)
    out = step(p, bit_receipt(4, 0));
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(p.decision(), Bit::One);
}

TEST(SynRanSequences, DetMarginExtendsFloodLength) {
  SynRanOptions longer;
  longer.det_margin = 5;
  SynRanProcess a(0, 100, Bit::One, {});
  SynRanProcess b(0, 100, Bit::One, longer);
  TapeCoinSource c1, c2;
  (void)a.on_round(nullptr, c1);
  (void)b.on_round(nullptr, c2);
  (void)step(a, bit_receipt(4, 0));
  (void)step(b, bit_receipt(4, 0));
  int rounds_a = 0, rounds_b = 0;
  for (int i = 0; i < 30; ++i) {
    if (step(a, bit_receipt(4, 0)).has_value()) ++rounds_a; else break;
  }
  for (int i = 0; i < 30; ++i) {
    if (step(b, bit_receipt(4, 0)).has_value()) ++rounds_b; else break;
  }
  EXPECT_EQ(rounds_b - rounds_a, 3);  // margin 5 vs default 2
}

// ------------------------------------------------------- engine boundary

TEST(EngineBoundary, HaltedProcessesReceiveNothing) {
  // After a FloodMin run completes, re-running with a larger max_rounds
  // changes nothing: halted processes take no further steps.
  FloodMinFactory factory({1, false});
  NoAdversary none;
  EngineOptions opts;
  opts.max_rounds = 10;
  const auto a = run_once(factory, {Bit::One, Bit::Zero, Bit::One}, none,
                          opts);
  opts.max_rounds = 10000;
  const auto b = run_once(factory, {Bit::One, Bit::Zero, Bit::One}, none,
                          opts);
  EXPECT_EQ(a.rounds_to_halt, b.rounds_to_halt);
  EXPECT_EQ(a.faults.delivered, b.faults.delivered);
}

TEST(EngineBoundary, MaxRoundsExactlyAtCompletionStillTerminates) {
  FloodMinFactory factory({2, false});  // halts during phase A of round 4
  NoAdversary none;
  EngineOptions opts;
  opts.max_rounds = 4;
  const auto res =
      run_once(factory, {Bit::One, Bit::Zero, Bit::One, Bit::One}, none,
               opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_EQ(res.rounds_to_halt, 3u);
}

TEST(EngineBoundary, CrashesPerRoundVectorMatchesTotal) {
  SynRanFactory factory;
  RandomCrashAdversary adv({3, 0.9, 77});
  EngineOptions opts;
  opts.t_budget = 12;
  opts.seed = 5;
  const auto res = run_once(
      factory, std::vector<Bit>(24, Bit::One), adv, opts);
  std::uint32_t acc = 0;
  for (auto c : res.crashes_per_round) acc += c;
  EXPECT_EQ(acc, res.faults.crashes);
}

TEST(EngineBoundary, MessageCountMatchesHandComputation) {
  // FloodMin n=4, t=1, no faults: rounds 1 and 2 deliver 4×4 each.
  FloodMinFactory factory({1, false});
  NoAdversary none;
  const auto res = run_once(
      factory, std::vector<Bit>(4, Bit::One), none, {});
  EXPECT_EQ(res.faults.delivered, 32u);
}

// --------------------------------------------------- valency determinism

TEST(ValencyDeterminism, RepeatedEvaluationIsIdentical) {
  SynRanFactory factory;
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 10;
  const std::vector<Bit> inputs{Bit::Zero, Bit::One, Bit::One};
  const auto a = evaluate_initial_state(factory, inputs, opts);
  const auto b = evaluate_initial_state(factory, inputs, opts);
  EXPECT_EQ(a.min_r.lo, b.min_r.lo);
  EXPECT_EQ(a.min_r.hi, b.min_r.hi);
  EXPECT_EQ(a.max_r.lo, b.max_r.lo);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.states_visited, b.states_visited);
}

TEST(ValencyDeterminism, DeeperHorizonOnlyTightens) {
  SynRanFactory factory;
  const std::vector<Bit> inputs{Bit::Zero, Bit::One, Bit::One};
  ValencyOptions shallow, deep;
  shallow.t_budget = deep.t_budget = 1;
  shallow.max_depth = 4;
  deep.max_depth = 12;
  const auto s = evaluate_initial_state(factory, inputs, shallow);
  const auto d = evaluate_initial_state(factory, inputs, deep);
  EXPECT_LE(s.min_r.lo, d.min_r.lo + 1e-12);
  EXPECT_GE(s.min_r.hi, d.min_r.hi - 1e-12);
  EXPECT_LE(s.max_r.lo, d.max_r.lo + 1e-12);
  EXPECT_GE(s.max_r.hi, d.max_r.hi - 1e-12);
}

TEST(ValencyDeterminism, FloodMinNEquals4IsExact) {
  FloodMinFactory factory({1, false});
  ValencyOptions opts;
  opts.t_budget = 1;
  opts.max_depth = 7;
  const auto v = evaluate_initial_state(
      factory, {Bit::Zero, Bit::One, Bit::One, Bit::One}, opts);
  EXPECT_TRUE(v.min_r.exact());
  EXPECT_TRUE(v.max_r.exact());
  EXPECT_DOUBLE_EQ(v.min_r.lo, 0.0);
  EXPECT_DOUBLE_EQ(v.max_r.lo, 1.0);  // hide the 0 entirely ⇒ decide 1
  EXPECT_FALSE(v.saw_disagreement);
}

}  // namespace
}  // namespace synran
