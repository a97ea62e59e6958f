// Tests for the omission-fault layer: auditor rejection of every malformed
// omission plan, engine-side budget accounting, the ChaosAdversary /
// OmissionAdversary injectors, and the additive (conditional) trace fields.
// Suite names start with Omission/Chaos/Faults so CI's sanitizer job can pick
// them up with `ctest -R "^Faults|^Omission|^Chaos"`.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/omission.hpp"
#include "common/check.hpp"
#include "obs/trace_writer.hpp"
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

/// Adversary built from a lambda (mirrors the audit_test helper).
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

/// Omits the lowest-id sender for everyone else, every round, regardless of
/// the budget the world grants.
FaultPlan omit_first_sender(const WorldView& w) {
  FaultPlan plan;
  for (ProcessId p = 0; p < w.n(); ++p) {
    if (w.sending(p)) {
      DynBitset drop(w.n(), true);
      drop.reset(p);
      plan.omissions.push_back({p, drop});
      break;
    }
  }
  return plan;
}

// ------------------------------------------------ auditor rejection classes

TEST(OmissionAudit, ForbiddenUnderFailStopDefault) {
  LambdaAdversary adv(omit_first_sender);
  EngineOptions opts;  // omission_budget stays 0
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("exceeding the omission budget 0"), std::string::npos)
      << what;
  EXPECT_NE(what.find("omissions are forbidden under the fail-stop model"),
            std::string::npos)
      << what;
}

TEST(OmissionAudit, GlobalBudgetIsEnforced) {
  // One directive per round against a budget of 2: round 3's plan must die.
  LambdaAdversary adv(omit_first_sender);
  EngineOptions opts;
  opts.omission_budget = 2;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("round 3"), std::string::npos) << what;
  EXPECT_NE(what.find("exceeding the omission budget 2"), std::string::npos)
      << what;
}

TEST(OmissionAudit, PerRoundCapIsEnforced) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.omissions.push_back({0, DynBitset(w.n())});
    plan.omissions.push_back({1, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.omission_budget = 10;
  opts.omission_round_cap = 1;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("per-round omission cap is 1"), std::string::npos)
      << what;
}

TEST(OmissionAudit, CrashOmitOverlapIsRejected) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n())});
    plan.omissions.push_back({0, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  opts.omission_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("both crashed and omitted"), std::string::npos) << what;
}

TEST(OmissionAudit, NonSenderOmissionIsRejected) {
  // Crash 0 in round 1, then try to omit its (nonexistent) round-2 message.
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    if (w.round() == 1) plan.crashes.push_back({0, DynBitset(w.n())});
    if (w.round() == 2) plan.omissions.push_back({0, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  opts.omission_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("round 2"), std::string::npos) << what;
  EXPECT_NE(what.find("not sending this round"), std::string::npos) << what;
}

TEST(OmissionAudit, DuplicateOmissionSenderIsRejected) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.omissions.push_back({2, DynBitset(w.n())});
    plan.omissions.push_back({2, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.omission_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("appears twice"), std::string::npos) << what;
}

TEST(OmissionAudit, WrongDropForSizeIsRejected) {
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.omissions.push_back({0, DynBitset(w.n() + 1)});
    return plan;
  });
  EngineOptions opts;
  opts.omission_budget = 10;
  const std::string what = run_expecting_audit_error(adv, opts);
  EXPECT_NE(what.find("drop_for"), std::string::npos) << what;
}

TEST(OmissionAudit, AuditedAdversaryTracksOmissionSpend) {
  // The wrapper adopts the omission budget from the first WorldView and must
  // agree with the engine's arithmetic for the whole run.
  ChaosAdversary chaos({0.4, 0xc0ffee});
  AuditedAdversary audited(chaos);
  SynRanFactory factory;
  EngineOptions opts;
  opts.omission_budget = 40;
  opts.seed = 5;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(16), audited, opts));
  EXPECT_EQ(audited.auditor().omissions_so_far(), res.faults.omissions);
  EXPECT_LE(res.faults.omissions, 40u);
}

// -------------------------------------------------- chaos injector behavior

TEST(ChaosInjector, RespectsBudgetAndReportsSpend) {
  SynRanFactory factory;
  ChaosAdversary chaos({0.5, 42});
  EngineOptions opts;
  opts.omission_budget = 3;
  opts.seed = 9;
  const auto res = run_once(factory, half_inputs(16), chaos, opts);
  EXPECT_LE(res.faults.omissions, 3u);
  EXPECT_EQ(chaos.omissions_spent(), res.faults.omissions);
}

TEST(ChaosInjector, DropsLinksUnderGenerousBudget) {
  SynRanFactory factory;
  ChaosAdversary chaos({0.5, 42});
  EngineOptions opts;
  opts.omission_budget = 1000000;
  opts.seed = 9;
  const auto res = run_once(factory, half_inputs(16), chaos, opts);
  EXPECT_GT(res.faults.omissions, 0u);
  EXPECT_GT(res.faults.omitted, 0u);
  EXPECT_EQ(chaos.omissions_spent(), res.faults.omissions);
}

TEST(ChaosInjector, ZeroRateMatchesNoAdversary) {
  SynRanFactory factory;
  EngineOptions opts;
  opts.omission_budget = 1000;
  opts.seed = 11;
  NoAdversary none;
  const auto baseline = run_once(factory, half_inputs(12), none, opts);
  ChaosAdversary calm({0.0, 42});
  const auto chaotic = run_once(factory, half_inputs(12), calm, opts);
  EXPECT_EQ(chaotic.faults.omissions, 0u);
  EXPECT_EQ(chaotic.faults.omitted, 0u);
  EXPECT_EQ(chaotic.rounds_to_decision, baseline.rounds_to_decision);
  EXPECT_EQ(chaotic.rounds_to_halt, baseline.rounds_to_halt);
  EXPECT_EQ(chaotic.faults.delivered, baseline.faults.delivered);
}

TEST(ChaosInjector, RejectsDropRateOutsideUnitInterval) {
  ChaosAdversary chaos({1.5, 42});
  EXPECT_THROW(chaos.begin(8, 0), ArgumentError);
  ChaosAdversary negative({-0.1, 42});
  EXPECT_THROW(negative.begin(8, 0), ArgumentError);
}

TEST(ChaosInjector, ComposesWithInnerCrashAdversary) {
  // Chaos keeps the inner plan's crashes and never overlaps them with
  // omissions, so the combined plan must pass the engine's auditor.
  SynRanFactory factory;
  ChaosAdversary chaos(
      {0.3, 7}, std::make_unique<RandomCrashAdversary>(
                    RandomCrashAdversary::Options{1, 0.6, 123}));
  EngineOptions opts;
  opts.t_budget = 2;
  opts.omission_budget = 500;
  opts.seed = 3;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(16), chaos, opts));
  EXPECT_LE(res.faults.crashes, 2u);
  EXPECT_LE(res.faults.omissions, 500u);
}

TEST(ChaosDeterminism, BitIdenticalAtAnyThreadCount) {
  RepeatSpec spec;
  spec.n = 24;
  spec.pattern = InputPattern::Half;
  spec.reps = 10;
  spec.seed = 0x0515;
  spec.engine.omission_budget = 100000;
  SynRanFactory factory;
  const AdversaryFactory chaos = [](std::uint64_t s) {
    return std::make_unique<ChaosAdversary>(ChaosOptions{0.2, s});
  };
  spec.threads = 1;
  const std::string serial =
      run_repeated(factory, chaos, spec).metrics().to_json().dump();
  const std::string serial_again =
      run_repeated(factory, chaos, spec).metrics().to_json().dump();
  EXPECT_EQ(serial, serial_again);
  for (unsigned threads : {2u, 4u}) {
    spec.threads = threads;
    const std::string parallel =
        run_repeated(factory, chaos, spec).metrics().to_json().dump();
    EXPECT_EQ(serial, parallel) << threads << " threads";
  }
}

// ------------------------------------------------ targeted omission attack

TEST(OmissionAttack, SpendMatchesEngineCounters) {
  SynRanFactory factory;
  OmissionAdversary attack(OmissionAttackOptions{0.55, 21});
  EngineOptions opts;
  opts.omission_budget = 200;
  opts.seed = 17;
  opts.max_rounds = 50000;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(20), attack, opts));
  EXPECT_EQ(attack.omissions_spent(), res.faults.omissions);
  EXPECT_LE(res.faults.omissions, 200u);
}

TEST(OmissionAttack, StandsDownWithoutBudget) {
  SynRanFactory factory;
  OmissionAdversary attack(OmissionAttackOptions{0.55, 21});
  EngineOptions opts;  // omission_budget 0: the attacker must emit nothing
  opts.seed = 17;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, half_inputs(20), attack, opts));
  EXPECT_EQ(res.faults.omissions, 0u);
  EXPECT_EQ(attack.omissions_spent(), 0u);
}

// -------------------------------------------------- conditional trace fields

TEST(OmissionTrace, FieldsEmittedOnlyUnderAnOmissionBudget) {
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
  // Fail-stop default: no omission vocabulary anywhere in the stream.
  EXPECT_EQ(plain.str().find("omission"), std::string::npos);
  EXPECT_EQ(plain.str().find("omitted"), std::string::npos);

  std::ostringstream chaotic;
  {
    obs::JsonlTraceWriter writer(chaotic);
    opts.observer = &writer;
    opts.omission_budget = 50;
    ChaosAdversary chaos({0.4, 31});
    run_once(factory, half_inputs(10), chaos, opts);
  }
  EXPECT_NE(chaotic.str().find("\"omission_budget\":50"), std::string::npos);
  EXPECT_NE(chaotic.str().find("\"omissions\":"), std::string::npos);
  EXPECT_NE(chaotic.str().find("\"omitted\":"), std::string::npos);
}

}  // namespace
}  // namespace synran
