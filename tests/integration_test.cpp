// Cross-module property tests: every (protocol × adversary × input-pattern ×
// size) combination must preserve Agreement, Validity, and Termination, the
// three conditions of the consensus problem (§3.1), plus the engine-level
// budget discipline — across many seeds.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/nonadaptive.hpp"
#include "analysis/theory.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

enum class ProtoKind {
  SynRan,
  SynRanNoDet,
  BenOrSym,
  FloodMin,
  FloodMinEarly,
  LeaderCoin
};
enum class AdvKind {
  None,
  Random,
  Chain,
  CoinBias,
  CoinBiasCapped,
  Oblivious,
  LeaderKiller
};

std::unique_ptr<ProcessFactory> make_factory(ProtoKind kind, std::uint32_t t) {
  switch (kind) {
    case ProtoKind::SynRan:
      return std::make_unique<SynRanFactory>();
    case ProtoKind::SynRanNoDet: {
      SynRanOptions o;
      o.det_handoff = false;
      return std::make_unique<SynRanFactory>(o);
    }
    case ProtoKind::BenOrSym: {
      SynRanOptions o;
      o.coin_rule = CoinRule::Symmetric;
      return std::make_unique<SynRanFactory>(o);
    }
    case ProtoKind::FloodMin:
      return std::make_unique<FloodMinFactory>(FloodMinOptions{t, false});
    case ProtoKind::FloodMinEarly:
      return std::make_unique<FloodMinFactory>(FloodMinOptions{t, true});
    case ProtoKind::LeaderCoin:
      return std::make_unique<LeaderCoinFactory>();
  }
  return nullptr;
}

AdversaryFactory make_adversaries(AdvKind kind, std::uint32_t n) {
  switch (kind) {
    case AdvKind::None:
      return no_adversary_factory();
    case AdvKind::Random:
      return [](std::uint64_t seed) {
        return std::make_unique<RandomCrashAdversary>(
            RandomCrashAdversary::Options{2, 0.6, seed});
      };
    case AdvKind::Chain:
      return [](std::uint64_t) {
        return std::make_unique<ChainHidingAdversary>();
      };
    case AdvKind::CoinBias:
      return [](std::uint64_t seed) {
        return std::make_unique<CoinBiasAdversary>(
            CoinBiasOptions{0.55, true, seed});
      };
    case AdvKind::CoinBiasCapped:
      return [n](std::uint64_t seed) {
        (void)n;
        return std::make_unique<CoinBiasAdversary>(
            CoinBiasOptions{0.55, false, seed});
      };
    case AdvKind::Oblivious:
      return [](std::uint64_t seed) {
        return std::make_unique<ObliviousAdversary>(
            ObliviousOptions{40, seed});
      };
    case AdvKind::LeaderKiller:
      return [](std::uint64_t) {
        return std::make_unique<LeaderKillerAdversary>();
      };
  }
  return no_adversary_factory();
}

const char* proto_name(ProtoKind k) {
  switch (k) {
    case ProtoKind::SynRan:
      return "synran";
    case ProtoKind::SynRanNoDet:
      return "synran-nodet";
    case ProtoKind::BenOrSym:
      return "benor-sym";
    case ProtoKind::FloodMin:
      return "floodmin";
    case ProtoKind::FloodMinEarly:
      return "floodmin-early";
    case ProtoKind::LeaderCoin:
      return "leadercoin";
  }
  return "?";
}

const char* adv_name(AdvKind k) {
  switch (k) {
    case AdvKind::None:
      return "none";
    case AdvKind::Random:
      return "random";
    case AdvKind::Chain:
      return "chain";
    case AdvKind::CoinBias:
      return "coinbias";
    case AdvKind::CoinBiasCapped:
      return "coinbias-capped";
    case AdvKind::Oblivious:
      return "oblivious";
    case AdvKind::LeaderKiller:
      return "leader-killer";
  }
  return "?";
}

using GridParam = std::tuple<ProtoKind, AdvKind, InputPattern, std::uint32_t>;

class ConsensusGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ConsensusGrid, SafetyLivenessAndBudget) {
  const auto [proto, adv, pattern, n] = GetParam();
  const std::uint32_t t = n / 2;

  const auto factory = make_factory(proto, t);
  RepeatSpec spec;
  spec.n = n;
  spec.pattern = pattern;
  spec.reps = 12;
  spec.seed = 0x5eed0000ULL + n * 131 + static_cast<int>(pattern) * 17 +
              static_cast<int>(proto) * 3 + static_cast<int>(adv);
  spec.engine.t_budget = t;
  spec.engine.max_rounds = 60000;
  if (adv == AdvKind::CoinBiasCapped)
    spec.engine.per_round_cap = static_cast<std::uint32_t>(
        theory::per_round_budget(static_cast<double>(n)));

  const auto stats =
      run_repeated(*factory, make_adversaries(adv, n), spec);

  EXPECT_EQ(stats.non_terminated(), 0u)
      << proto_name(proto) << " vs " << adv_name(adv);
  // The symmetric ablation exists to show what the one-side-bias machinery
  // buys: its agreement guarantee does not survive the adaptive split
  // attack, so only the paper-faithful protocols carry safety assertions
  // against it.
  const bool adaptive_attack =
      adv == AdvKind::CoinBias || adv == AdvKind::CoinBiasCapped;
  // LeaderCoin documents that its agreement only covers view-preserving
  // adversaries (empty-delivery crashes); random/chain crash mid-round with
  // partial masks.
  const bool partial_views = adaptive_attack || adv == AdvKind::Random ||
                             adv == AdvKind::Chain;
  const bool safety_expected =
      !(proto == ProtoKind::BenOrSym && adaptive_attack) &&
      !(proto == ProtoKind::LeaderCoin && partial_views);
  if (safety_expected) {
    EXPECT_EQ(stats.agreement_failures(), 0u)
        << proto_name(proto) << " vs " << adv_name(adv);
    EXPECT_EQ(stats.validity_failures(), 0u)
        << proto_name(proto) << " vs " << adv_name(adv);
  }
  EXPECT_LE(stats.crashes_used().max(), static_cast<double>(t));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllAdversaries, ConsensusGrid,
    ::testing::Combine(
        ::testing::Values(ProtoKind::SynRan, ProtoKind::SynRanNoDet,
                          ProtoKind::BenOrSym, ProtoKind::FloodMin,
                          ProtoKind::FloodMinEarly, ProtoKind::LeaderCoin),
        ::testing::Values(AdvKind::None, AdvKind::Random, AdvKind::Chain,
                          AdvKind::CoinBias, AdvKind::CoinBiasCapped,
                          AdvKind::Oblivious, AdvKind::LeaderKiller),
        ::testing::Values(InputPattern::AllZero, InputPattern::AllOne,
                          InputPattern::Half, InputPattern::Random),
        ::testing::Values(5u, 16u, 33u)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name =
          std::string(proto_name(std::get<0>(info.param))) + "_" +
          adv_name(std::get<1>(info.param)) + "_" +
          to_string(std::get<2>(info.param)) + "_n" +
          std::to_string(std::get<3>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ----------------------------------------------------- determinism property

TEST(DeterminismTest, IdenticalSeedsReproduceEntireRuns) {
  SynRanFactory factory;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CoinBiasAdversary a1({0.55, true, seed});
    CoinBiasAdversary a2({0.55, true, seed});
    std::vector<Bit> inputs(40, Bit::Zero);
    for (int i = 0; i < 20; ++i) inputs[i] = Bit::One;
    EngineOptions opts;
    opts.t_budget = 20;
    opts.seed = seed;
    const auto r1 = run_once(factory, inputs, a1, opts);
    const auto r2 = run_once(factory, inputs, a2, opts);
    EXPECT_EQ(r1.rounds_to_decision, r2.rounds_to_decision);
    EXPECT_EQ(r1.rounds_to_halt, r2.rounds_to_halt);
    EXPECT_EQ(r1.faults.crashes, r2.faults.crashes);
    EXPECT_EQ(r1.crashes_per_round, r2.crashes_per_round);
    EXPECT_EQ(r1.decision, r2.decision);
  }
}

// ------------------------------------------------ validity under adversity

TEST(ValidityProperty, UnanimousInputsSurviveHeavyCrashes) {
  // All-1 inputs with the adversary crashing 60% of processes must still
  // decide 1 (the Z=0 rule is what makes this work for SynRan).
  SynRanFactory factory;
  const std::uint32_t n = 50;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCrashAdversary adv({5, 0.9, seed});
    EngineOptions opts;
    opts.t_budget = 30;
    opts.seed = seed;
    opts.max_rounds = 20000;
    const auto res =
        run_once(factory, std::vector<Bit>(n, Bit::One), adv, opts);
    ASSERT_TRUE(res.terminated);
    EXPECT_TRUE(res.agreement);
    EXPECT_EQ(res.decision, Bit::One) << "seed " << seed;
  }
}

TEST(ValidityProperty, AllZeroSurvivesHeavyCrashes) {
  SynRanFactory factory;
  const std::uint32_t n = 50;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCrashAdversary adv({5, 0.9, seed});
    EngineOptions opts;
    opts.t_budget = 30;
    opts.seed = seed;
    opts.max_rounds = 20000;
    const auto res =
        run_once(factory, std::vector<Bit>(n, Bit::Zero), adv, opts);
    ASSERT_TRUE(res.terminated);
    EXPECT_TRUE(res.agreement);
    EXPECT_EQ(res.decision, Bit::Zero) << "seed " << seed;
  }
}

// ----------------------------------------------- deterministic-stage entry

TEST(DeterministicStageProperty, MassCrashForcesHandoffAndStillAgrees) {
  // Crash all but ~√(n/ln n) processes in the first rounds: survivors must
  // enter the deterministic stage and still reach consensus.
  SynRanFactory factory;
  const std::uint32_t n = 64;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomCrashAdversary adv({20, 1.0, seed});
    EngineOptions opts;
    opts.t_budget = n - 3;
    opts.seed = seed;
    opts.max_rounds = 20000;
    std::vector<Bit> inputs(n, Bit::Zero);
    for (std::uint32_t i = 0; i < n; i += 2) inputs[i] = Bit::One;
    const auto res = run_once(factory, inputs, adv, opts);
    ASSERT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
  }
}

// -------------------------------------------------------------- comparison

TEST(ComparisonProperty, SynRanBeatsDeterministicForLargeT) {
  // t = n/2 with n = 256: FloodMin needs t+1 = 129 rounds; SynRan should
  // finish well under 40 even against the coin-bias adversary.
  const std::uint32_t n = 256, t = n / 2;

  RepeatSpec spec;
  spec.n = n;
  spec.pattern = InputPattern::Random;
  spec.reps = 10;
  spec.seed = 99;
  spec.engine.t_budget = t;
  spec.engine.max_rounds = 100000;

  SynRanFactory synran;
  const auto attacked = run_repeated(
      synran,
      [](std::uint64_t seed) {
        return std::make_unique<CoinBiasAdversary>(
            CoinBiasOptions{0.55, true, seed});
      },
      spec);
  ASSERT_TRUE(attacked.all_safe());
  EXPECT_LT(attacked.rounds_to_decision().mean(), 40.0);

  FloodMinFactory flood({t, false});
  NoAdversary none;
  const auto det = run_once(flood, std::vector<Bit>(n, Bit::One), none,
                            spec.engine);
  EXPECT_EQ(det.rounds_to_decision, t + 1);
}

TEST(PaperClaimE1b, ForcedRoundsTrackTheTightBoundAtMaximalResilience) {
  // E1b, t = n − 1: the coin-bias adversary forces SynRan past Theorem 1's
  // lower-bound curve, and the forced rounds stay within a constant factor
  // of Theorem 3's tight bound f(n, t) that does not grow with n. At seed 7
  // the means are 11.19, 17.19 and 24.31 rounds against tight bounds of
  // 5.20, 9.38 and 17.03 (ratios 2.15, 1.83, 1.43); the same cells print
  // from `synran run --n=N --t=N-1 --adversary=coinbias --pattern=half
  // --reps=32 --seed=7` with N-1 written out (e.g. --n=64 --t=63).
  double previous_ratio = 0.0;
  for (const std::uint32_t n : {64u, 256u, 1024u}) {
    const std::uint32_t t = n - 1;
    RepeatSpec spec;
    spec.n = n;
    spec.pattern = InputPattern::Half;
    spec.reps = 32;
    spec.seed = 7;
    spec.engine.t_budget = t;
    spec.engine.max_rounds = 100000;
    SynRanFactory synran;
    const auto stats = run_repeated(
        synran,
        [](std::uint64_t seed) {
          return std::make_unique<CoinBiasAdversary>(
              CoinBiasOptions{0.55, true, seed});
        },
        spec);
    ASSERT_TRUE(stats.all_safe()) << "n=" << n;
    const double measured = stats.rounds_to_decision().mean();
    EXPECT_GE(measured, theory::lower_bound_rounds(n, t)) << "n=" << n;
    const double ratio = measured / theory::tight_round_bound(n, t);
    EXPECT_GE(ratio, 1.0) << "n=" << n;
    EXPECT_LE(ratio, 3.0) << "n=" << n;
    if (previous_ratio > 0.0) {
      EXPECT_LE(ratio, previous_ratio) << "ratio rose with n at n=" << n;
    }
    previous_ratio = ratio;
  }
}

}  // namespace
}  // namespace synran
