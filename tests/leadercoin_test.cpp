// Tests for the LeaderCoin protocol and the adaptive/non-adaptive adversary
// pair — the executable form of §1.2's [CMS89] contrast.
#include <gtest/gtest.h>

#include <set>

#include "adversary/nonadaptive.hpp"
#include "common/check.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

Receipt make_receipt(std::uint32_t ones, std::uint32_t zeros,
                     Payload extra = 0) {
  Receipt r;
  r.count = ones + zeros;
  r.ones = ones;
  r.zeros = zeros;
  r.or_mask = (ones ? payload::kSupports1 : 0) |
              (zeros ? payload::kSupports0 : 0) | extra;
  return r;
}

// ---------------------------------------------------------------- protocol

TEST(LeaderCoinTest, LeaderRotatesDeterministically) {
  EXPECT_EQ(LeaderCoinProcess::leader_of(1, 5), 0u);
  EXPECT_EQ(LeaderCoinProcess::leader_of(2, 5), 1u);
  EXPECT_EQ(LeaderCoinProcess::leader_of(6, 5), 0u);
}

TEST(LeaderCoinTest, LeaderEmbedsItsCoin) {
  LeaderCoinProcess p(0, 4, Bit::One);  // process 0 leads round 1
  TapeCoinSource coins({true});
  const auto out = p.on_round(nullptr, coins);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(*out & LeaderCoinProcess::kLeaderCoinOne);
  EXPECT_FALSE(*out & LeaderCoinProcess::kLeaderCoinZero);
  EXPECT_EQ(coins.consumed(), 1u);
}

TEST(LeaderCoinTest, NonLeaderDoesNotFlipOnSend) {
  LeaderCoinProcess p(2, 4, Bit::One);  // round 1 leader is 0
  TapeCoinSource coins;
  const auto out = p.on_round(nullptr, coins);
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(*out & (LeaderCoinProcess::kLeaderCoinOne |
                       LeaderCoinProcess::kLeaderCoinZero));
  EXPECT_EQ(coins.consumed(), 0u);
}

TEST(LeaderCoinTest, MiddleZoneAdoptsLeaderCoin) {
  LeaderCoinProcess p(3, 100, Bit::Zero);
  TapeCoinSource coins;
  (void)p.on_round(nullptr, coins);
  // 50/50 split with the leader's coin = 1 visible.
  Receipt r = make_receipt(50, 50, LeaderCoinProcess::kLeaderCoinOne);
  const auto out = p.on_round(&r, coins);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(payload::supports(*out, Bit::One));
  EXPECT_EQ(coins.consumed(), 0u);  // no local flip needed
}

TEST(LeaderCoinTest, MiddleZoneWithoutLeaderFallsBackToLocalCoin) {
  LeaderCoinProcess p(3, 100, Bit::Zero);
  TapeCoinSource coins({false});
  (void)p.on_round(nullptr, coins);
  Receipt r = make_receipt(50, 50);  // leader silent
  const auto out = p.on_round(&r, coins);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(payload::supports(*out, Bit::Zero));
  EXPECT_TRUE(p.view().flipped_coin);
}

TEST(LeaderCoinTest, ThresholdsDecideAndPropose) {
  {
    LeaderCoinProcess p(50, 100, Bit::Zero);
    TapeCoinSource coins;
    (void)p.on_round(nullptr, coins);
    Receipt r = make_receipt(71, 29);
    (void)p.on_round(&r, coins);
    EXPECT_TRUE(p.decided());
    EXPECT_EQ(p.decision(), Bit::One);
  }
  {
    LeaderCoinProcess p(50, 100, Bit::One);
    TapeCoinSource coins;
    (void)p.on_round(nullptr, coins);
    Receipt r = make_receipt(29, 71);
    (void)p.on_round(&r, coins);
    EXPECT_TRUE(p.decided());
    EXPECT_EQ(p.decision(), Bit::Zero);
  }
}

TEST(LeaderCoinTest, HaltsTwoRoundsAfterDeciding) {
  LeaderCoinProcess p(50, 100, Bit::Zero);
  TapeCoinSource coins;
  (void)p.on_round(nullptr, coins);
  Receipt decide = make_receipt(90, 10);
  ASSERT_TRUE(p.on_round(&decide, coins).has_value());  // decide + send
  ASSERT_TRUE(p.decided());
  Receipt quiet = make_receipt(90, 10);
  ASSERT_TRUE(p.on_round(&quiet, coins).has_value());   // help 1
  ASSERT_TRUE(p.on_round(&quiet, coins).has_value());   // help 2
  EXPECT_FALSE(p.on_round(&quiet, coins).has_value());  // halt
  EXPECT_TRUE(p.halted());
}

TEST(LeaderCoinTest, EngineRunsSafeWithoutAdversary) {
  LeaderCoinFactory factory;
  RepeatSpec spec;
  spec.n = 32;
  spec.pattern = InputPattern::Random;
  spec.reps = 25;
  spec.seed = 5;
  const auto stats = run_repeated(factory, no_adversary_factory(), spec);
  EXPECT_TRUE(stats.all_safe());
  EXPECT_LT(stats.rounds_to_decision().mean(), 6.0);
}

// ------------------------------------------------------- oblivious / killer

TEST(ObliviousTest, ScheduleIsCommittedAndSeedStable) {
  ObliviousAdversary a({16, 7}), b({16, 7}), c({16, 8});
  a.begin(10, 4);
  b.begin(10, 4);
  c.begin(10, 4);
  EXPECT_EQ(a.schedule(), b.schedule());
  EXPECT_NE(a.schedule(), c.schedule());
  EXPECT_EQ(a.schedule().size(), 4u);
  // Victims are distinct.
  std::set<ProcessId> victims;
  for (const auto& [r, v] : a.schedule()) {
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 16u);
    victims.insert(v);
  }
  EXPECT_EQ(victims.size(), 4u);
}

TEST(ObliviousTest, ProtocolsSurviveIt) {
  SynRanFactory synran;
  LeaderCoinFactory leader;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const ProcessFactory* f :
         {static_cast<const ProcessFactory*>(&synran),
          static_cast<const ProcessFactory*>(&leader)}) {
      ObliviousAdversary adv({20, seed});
      EngineOptions opts;
      opts.t_budget = 10;
      opts.seed = seed;
      opts.max_rounds = 50000;
      Xoshiro256 rng(seed);
      auto inputs = make_inputs(24, InputPattern::Random, rng);
      const auto res = run_once(*f, inputs, adv, opts);
      ASSERT_TRUE(res.terminated) << f->name() << " seed " << seed;
      EXPECT_TRUE(res.agreement) << f->name() << " seed " << seed;
      EXPECT_TRUE(validity_holds(inputs, res));
    }
  }
}

TEST(LeaderKillerTest, StallsLeaderCoinForAboutTRounds) {
  // n must be large enough that the local-coin mixture cannot accidentally
  // cross the 0.4/0.6 thresholds while leaders keep dying (the escape
  // probability shrinks exponentially in n).
  LeaderCoinFactory factory;
  LeaderKillerAdversary adv;
  EngineOptions opts;
  opts.t_budget = 20;
  opts.seed = 3;
  opts.max_rounds = 50000;
  std::vector<Bit> inputs(256, Bit::Zero);
  for (int i = 0; i < 128; ++i) inputs[i] = Bit::One;
  const auto res = run_once(factory, inputs, adv, opts);
  ASSERT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  // The killer burns one crash per round; the protocol cannot settle while
  // leaders keep dying, so it stalls for ≈ t rounds and spends the budget.
  EXPECT_GE(res.rounds_to_decision, 18u);
  EXPECT_EQ(res.faults.crashes, 20u);
}

TEST(LeaderKillerTest, HarmlessAgainstSynRan) {
  SynRanFactory factory;
  LeaderKillerAdversary adv;
  EngineOptions opts;
  opts.t_budget = 20;
  opts.seed = 3;
  opts.max_rounds = 50000;
  std::vector<Bit> inputs(64, Bit::Zero);
  for (int i = 0; i < 32; ++i) inputs[i] = Bit::One;
  const auto res = run_once(factory, inputs, adv, opts);
  ASSERT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_LT(res.rounds_to_decision, 12u);
}

}  // namespace
}  // namespace synran
