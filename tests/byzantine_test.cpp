// Tests for the corrupted-value fault layer: auditor rejection of every
// malformed corruption plan, engine-side byzantine budget accounting, the
// ByzantineAdversary / AdaptiveCoinAttacker injectors, the additive
// (conditional) trace fields, and the validity-hardened flooding defense.
// Suite names start with Byz/Corrupt so CI's sanitizer job can pick them up
// with `ctest -R "^Byz|^Corrupt"`.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "common/check.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/kfloodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

std::vector<Bit> half_inputs(std::uint32_t n) {
  std::vector<Bit> inputs(n, Bit::Zero);
  for (std::uint32_t i = n / 2; i < n; ++i) inputs[i] = Bit::One;
  return inputs;
}

/// Adversary built from a lambda (mirrors the omission_test helper).
class LambdaAdversary final : public Adversary {
 public:
  explicit LambdaAdversary(std::function<FaultPlan(const WorldView&)> fn)
      : fn_(std::move(fn)) {}
  FaultPlan plan_round(const WorldView& w) override { return fn_(w); }
  const char* name() const override { return "lambda"; }

 private:
  std::function<FaultPlan(const WorldView&)> fn_;
};

std::string run_expecting_audit_error(Adversary& adv, EngineOptions opts,
                                      std::uint32_t n = 8) {
  SynRanFactory factory;
  try {
    run_once(factory, half_inputs(n), adv, opts);
  } catch (const InvariantError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an InvariantError";
  return {};
}

/// One directive forging the lowest-id sender's message as a 0-vouching
/// value for every other process, every round, whatever the budget says.
FaultPlan corrupt_first_sender(const WorldView& w) {
  FaultPlan plan;
  for (ProcessId p = 0; p < w.n(); ++p) {
    if (!w.sending(p)) continue;
    CorruptionDirective cd;
    cd.sender = p;
    for (ProcessId r = 0; r < w.n(); ++r) {
      if (r != p) cd.forgeries.push_back({r, payload::kSupports0});
    }
    plan.corruptions.push_back(std::move(cd));
    break;
  }
  return plan;
}

// ------------------------------------------------ auditor rejection classes

TEST(CorruptAudit, ForbiddenUnderFailStopDefault) {
  LambdaAdversary adv(corrupt_first_sender);
  EngineOptions opts;  // byzantine_budget stays 0
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("exceeding the byzantine budget 0"), std::string::npos)
      << what;
  EXPECT_NE(
      what.find("corrupted values are forbidden under the fail-stop model"),
      std::string::npos)
      << what;
}

TEST(CorruptAudit, GlobalBudgetIsEnforced) {
  // One directive per round against a budget of 2: round 3's plan must die.
  LambdaAdversary adv(corrupt_first_sender);
  EngineOptions opts;
  opts.byzantine_budget = 2;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("round 3"), std::string::npos) << what;
  EXPECT_NE(what.find("exceeding the byzantine budget 2"), std::string::npos)
      << what;
}

TEST(CorruptAudit, PerRoundCapIsEnforced) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    for (ProcessId s : {ProcessId{0}, ProcessId{1}}) {
      CorruptionDirective cd;
      cd.sender = s;
      cd.forgeries.push_back({static_cast<ProcessId>(w.n() - 1),
                              payload::kSupports0});
      plan.corruptions.push_back(std::move(cd));
    }
    return plan;
  });
  EngineOptions opts;
  opts.byzantine_budget = 10;
  opts.byzantine_round_cap = 1;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("per-round corruption cap is 1"), std::string::npos)
      << what;
}

TEST(CorruptAudit, CrashCorruptOverlapIsRejected) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n())});
    CorruptionDirective cd;
    cd.sender = 0;
    cd.forgeries.push_back({1, payload::kSupports0});
    plan.corruptions.push_back(std::move(cd));
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  opts.byzantine_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("both crashed and corrupted"), std::string::npos)
      << what;
}

TEST(CorruptAudit, OmitCorruptOverlapIsRejected) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.omissions.push_back({0, DynBitset(w.n())});
    CorruptionDirective cd;
    cd.sender = 0;
    cd.forgeries.push_back({1, payload::kSupports0});
    plan.corruptions.push_back(std::move(cd));
    return plan;
  });
  EngineOptions opts;
  opts.omission_budget = 10;
  opts.byzantine_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("both omitted and corrupted"), std::string::npos)
      << what;
}

TEST(CorruptAudit, DeadSenderCorruptionIsRejected) {
  // Crash 0 in round 1, then try to forge its (nonexistent) round-2 message.
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    if (w.round() == 1) plan.crashes.push_back({0, DynBitset(w.n())});
    if (w.round() == 2) {
      CorruptionDirective cd;
      cd.sender = 0;
      cd.forgeries.push_back({1, payload::kSupports0});
      plan.corruptions.push_back(std::move(cd));
    }
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  opts.byzantine_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("round 2"), std::string::npos) << what;
  EXPECT_NE(what.find("not sending this round"), std::string::npos) << what;
}

TEST(CorruptAudit, DuplicateCorruptionSenderIsRejected) {
  LambdaAdversary adv([](const WorldView&) {
    FaultPlan plan;
    for (int twice = 0; twice < 2; ++twice) {
      CorruptionDirective cd;
      cd.sender = 2;
      cd.forgeries.push_back({3, payload::kSupports1});
      plan.corruptions.push_back(std::move(cd));
    }
    return plan;
  });
  EngineOptions opts;
  opts.byzantine_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("appears twice in one fault plan"), std::string::npos)
      << what;
}

TEST(CorruptAudit, DuplicateForgeryTargetIsRejected) {
  LambdaAdversary adv([](const WorldView&) {
    FaultPlan plan;
    CorruptionDirective cd;
    cd.sender = 0;
    cd.forgeries.push_back({1, payload::kSupports0});
    cd.forgeries.push_back({1, payload::kSupports1});
    plan.corruptions.push_back(std::move(cd));
    return plan;
  });
  EngineOptions opts;
  opts.byzantine_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("appears twice in one directive"), std::string::npos)
      << what;
}

TEST(CorruptAudit, OutOfRangeForgeryTargetIsRejected) {
  LambdaAdversary adv([](const WorldView&) {
    FaultPlan plan;
    CorruptionDirective cd;
    cd.sender = 0;
    cd.forgeries.push_back({200, payload::kSupports0});
    plan.corruptions.push_back(std::move(cd));
    return plan;
  });
  EngineOptions opts;
  opts.byzantine_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("forgery target 200"), std::string::npos) << what;
  EXPECT_NE(what.find("is not a process"), std::string::npos) << what;
}

TEST(CorruptAudit, AuditedAdversaryTracksCorruptionSpend) {
  // The wrapper adopts the byzantine budget from the first WorldView and
  // must agree with the engine's arithmetic for the whole run.
  ByzantineAdversary byz({0.4, 0xc0ffee});
  AuditedAdversary audited(byz);
  SynRanFactory factory;
  EngineOptions opts;
  opts.byzantine_budget = 40;
  opts.seed = 5;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(16), audited, opts));
  EXPECT_EQ(audited.auditor().corruptions_so_far(), res.faults.corruptions);
  EXPECT_LE(res.faults.corruptions, 40u);
}

// ---------------------------------------------- equivocator injector behavior

TEST(ByzInjector, RespectsBudgetAndReportsSpend) {
  SynRanFactory factory;
  ByzantineAdversary byz({0.5, 42});
  EngineOptions opts;
  opts.byzantine_budget = 3;
  opts.seed = 9;
  const auto res = run_once(factory, half_inputs(16), byz, opts);
  EXPECT_LE(res.faults.corruptions, 3u);
  EXPECT_EQ(byz.corruptions_spent(), res.faults.corruptions);
}

TEST(ByzInjector, ForgesLinksUnderGenerousBudget) {
  SynRanFactory factory;
  ByzantineAdversary byz({0.5, 42});
  EngineOptions opts;
  opts.byzantine_budget = 1000000;
  opts.seed = 9;
  const auto res = run_once(factory, half_inputs(16), byz, opts);
  EXPECT_GT(res.faults.corruptions, 0u);
  EXPECT_GT(res.faults.corrupted, 0u);
  // A directive forges one live sender's links to every other active
  // receiver, so the link count strictly dominates the directive count.
  EXPECT_GT(res.faults.corrupted, res.faults.corruptions);
  EXPECT_EQ(byz.corruptions_spent(), res.faults.corruptions);
}

TEST(ByzInjector, ZeroRateMatchesNoAdversary) {
  SynRanFactory factory;
  EngineOptions opts;
  opts.byzantine_budget = 1000;
  opts.seed = 11;
  NoAdversary none;
  const auto baseline = run_once(factory, half_inputs(12), none, opts);
  ByzantineAdversary calm({0.0, 42});
  const auto corrupted = run_once(factory, half_inputs(12), calm, opts);
  EXPECT_EQ(corrupted.faults.corruptions, 0u);
  EXPECT_EQ(corrupted.faults.corrupted, 0u);
  EXPECT_EQ(corrupted.rounds_to_decision, baseline.rounds_to_decision);
  EXPECT_EQ(corrupted.rounds_to_halt, baseline.rounds_to_halt);
  EXPECT_EQ(corrupted.faults.delivered, baseline.faults.delivered);
}

TEST(ByzInjector, StandsDownWithoutBudget) {
  SynRanFactory factory;
  ByzantineAdversary byz({1.0, 42});
  EngineOptions opts;  // byzantine_budget 0: the injector must emit nothing
  opts.seed = 9;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(16), byz, opts));
  EXPECT_EQ(res.faults.corruptions, 0u);
  EXPECT_EQ(byz.corruptions_spent(), 0u);
}

TEST(ByzInjector, RejectsCorruptRateOutsideUnitInterval) {
  ByzantineAdversary high({1.5, 42});
  EXPECT_THROW(high.begin(8, 0), ArgumentError);
  ByzantineAdversary negative({-0.1, 42});
  EXPECT_THROW(negative.begin(8, 0), ArgumentError);
}

TEST(ByzInjector, ComposesWithInnerCrashAdversary) {
  // The equivocator keeps the inner plan's directives and never overlaps
  // them, so the combined plan must pass the engine's auditor.
  SynRanFactory factory;
  ByzantineAdversary byz(
      {0.3, 7}, std::make_unique<RandomCrashAdversary>(
                    RandomCrashAdversary::Options{1, 0.6, 123}));
  EngineOptions opts;
  opts.t_budget = 2;
  opts.byzantine_budget = 500;
  opts.seed = 3;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(16), byz, opts));
  EXPECT_LE(res.faults.crashes, 2u);
  EXPECT_LE(res.faults.corruptions, 500u);
}

TEST(ByzDeterminism, BitIdenticalAtAnyThreadCount) {
  RepeatSpec spec;
  spec.n = 24;
  spec.pattern = InputPattern::Half;
  spec.reps = 10;
  spec.seed = 0x0b17;
  spec.engine.byzantine_budget = 100000;
  SynRanFactory factory;
  const AdversaryFactory byz = [](std::uint64_t s) {
    return std::make_unique<ByzantineAdversary>(ByzantineOptions{0.2, s});
  };
  spec.threads = 1;
  const std::string serial =
      run_repeated(factory, byz, spec).metrics().to_json().dump();
  const std::string serial_again =
      run_repeated(factory, byz, spec).metrics().to_json().dump();
  EXPECT_EQ(serial, serial_again);
  for (unsigned threads : {2u, 4u}) {
    spec.threads = threads;
    const std::string parallel =
        run_repeated(factory, byz, spec).metrics().to_json().dump();
    EXPECT_EQ(serial, parallel) << threads << " threads";
  }
}

// --------------------------------------------------- adaptive coin attacker

TEST(ByzCoinAttack, SpendMatchesEngineCounters) {
  SynRanFactory factory;
  AdaptiveCoinAttacker attack(CoinAttackOptions{Bit::One, 0.65, 21});
  EngineOptions opts;
  opts.byzantine_budget = 200;
  opts.seed = 17;
  opts.max_rounds = 50000;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(20), attack, opts));
  EXPECT_EQ(attack.corruptions_spent(), res.faults.corruptions);
  EXPECT_LE(res.faults.corruptions, 200u);
  EXPECT_GT(res.faults.corruptions, 0u);
}

TEST(ByzCoinAttack, StandsDownWithoutBudget) {
  SynRanFactory factory;
  AdaptiveCoinAttacker attack(CoinAttackOptions{Bit::One, 0.65, 21});
  EngineOptions opts;  // byzantine_budget 0: the attacker must emit nothing
  opts.seed = 17;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(20), attack, opts));
  EXPECT_EQ(res.faults.corruptions, 0u);
  EXPECT_EQ(attack.corruptions_spent(), 0u);
}

TEST(ByzCoinAttack, RejectsPushRatioOutsideHalfOneInterval) {
  AdaptiveCoinAttacker coin_toss(CoinAttackOptions{Bit::One, 0.5, 21});
  EXPECT_THROW(coin_toss.begin(8, 0), ArgumentError);
  AdaptiveCoinAttacker beyond(CoinAttackOptions{Bit::One, 1.1, 21});
  EXPECT_THROW(beyond.begin(8, 0), ArgumentError);
}

TEST(ByzCoinAttack, PushesTheDecidedShareTowardItsTarget) {
  // Balanced inputs, identical per-rep seeds: the attacked batch must decide
  // the attacker's target at least as often as the undisturbed baseline, and
  // strictly more often across these 40 repetitions.
  SynRanFactory factory;
  RepeatSpec spec;
  spec.n = 20;
  spec.pattern = InputPattern::Half;
  spec.reps = 40;
  spec.seed = 0xc0115eed;
  const AdversaryFactory none = [](std::uint64_t) {
    return std::make_unique<NoAdversary>();
  };
  const auto baseline = run_repeated(factory, none, spec);
  spec.engine.byzantine_budget = 1000000;
  const AdversaryFactory attack = [](std::uint64_t s) {
    return std::make_unique<AdaptiveCoinAttacker>(
        CoinAttackOptions{Bit::One, 0.8, s});
  };
  const auto attacked = run_repeated(factory, attack, spec);
  EXPECT_GT(attacked.decided_one(), baseline.decided_one());
  EXPECT_GT(attacked.corruptions_used().mean(), 0.0);
}

// -------------------------------------------------- conditional trace fields

TEST(CorruptTrace, FieldsEmittedOnlyUnderAByzantineBudget) {
  SynRanFactory factory;
  EngineOptions opts;
  opts.seed = 23;

  std::ostringstream plain;
  {
    obs::JsonlTraceWriter writer(plain);
    opts.observer = &writer;
    NoAdversary none;
    run_once(factory, half_inputs(10), none, opts);
  }
  // Fail-stop default: no corruption vocabulary anywhere in the stream.
  EXPECT_EQ(plain.str().find("byzantine"), std::string::npos);
  EXPECT_EQ(plain.str().find("corrupt"), std::string::npos);

  std::ostringstream corrupted;
  {
    obs::JsonlTraceWriter writer(corrupted);
    opts.observer = &writer;
    opts.byzantine_budget = 50;
    ByzantineAdversary byz({0.4, 31});
    run_once(factory, half_inputs(10), byz, opts);
  }
  EXPECT_NE(corrupted.str().find("\"byzantine_budget\":50"),
            std::string::npos);
  EXPECT_NE(corrupted.str().find("\"corruptions\":"), std::string::npos);
  EXPECT_NE(corrupted.str().find("\"corrupted\":"), std::string::npos);
}

// --------------------------------------------- validity-hardened flooding

TEST(ByzHardening, ToleranceFiltersEquivocatedZerosOnUnanimousOne) {
  // Unanimous-1 inputs under a full-rate equivocator capped at 2 directives
  // per round. Plain FloodMin adopts any forged 0 it sees, so validity
  // collapses; the hardened variant admits a value only when more than
  // `corrupt_tolerance` senders vouch for it in one round, which the round
  // cap denies the adversary.
  const std::uint32_t n = 16;
  const std::uint32_t proto_t = 2;
  const std::vector<Bit> inputs(n, Bit::One);
  EngineOptions opts;
  opts.byzantine_budget = 1000000;
  opts.byzantine_round_cap = 2;
  opts.seed = 41;

  FloodMinFactory plain{FloodMinOptions{proto_t, false}};
  ByzantineAdversary byz_a({1.0, 77});
  const auto broken = run_once(plain, inputs, byz_a, opts);
  ASSERT_TRUE(broken.terminated);
  EXPECT_FALSE(validity_holds(inputs, broken));

  KFloodMinFactory hardened{KFloodMinOptions{proto_t, 2, 2}};
  ByzantineAdversary byz_b({1.0, 77});
  const auto defended = run_once(hardened, inputs, byz_b, opts);
  ASSERT_TRUE(defended.terminated);
  EXPECT_TRUE(validity_holds(inputs, defended));
  EXPECT_TRUE(defended.agreement);
  EXPECT_EQ(defended.decision, Bit::One);
  EXPECT_GT(defended.faults.corruptions, 0u);
}

TEST(ByzHardening, ZeroToleranceIsPlainFloodingBitForBit) {
  // corrupt_tolerance 0 must not change a fault-free execution at all.
  const std::uint32_t n = 12;
  const std::uint32_t proto_t = 2;
  EngineOptions opts;
  opts.seed = 13;
  NoAdversary none_a;
  KFloodMinFactory plain_k{KFloodMinOptions{proto_t, 2, 0}};
  const auto base = run_once(plain_k, half_inputs(n), none_a, opts);
  NoAdversary none_b;
  KFloodMinFactory hard_k{KFloodMinOptions{proto_t, 2, 2}};
  const auto hard = run_once(hard_k, half_inputs(n), none_b, opts);
  // Hardening costs extra exchange rounds but must land on the same value.
  EXPECT_TRUE(base.agreement);
  EXPECT_TRUE(hard.agreement);
  EXPECT_EQ(base.decision, hard.decision);
  EXPECT_GT(hard.rounds_to_decision, base.rounds_to_decision);
}

}  // namespace
}  // namespace synran
