// Tests for mid-execution valency evaluation and the §3.3–3.5 strategy
// played literally by ExactValencyAdversary on tiny systems.
#include <gtest/gtest.h>

#include <functional>

#include "adversary/exact_valency.hpp"
#include "common/check.hpp"
#include "lowerbound/valency.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

/// Runs a probe at round 1 with full world access.
class ProbeAdversary final : public Adversary {
 public:
  using Probe = std::function<void(const WorldView&)>;
  explicit ProbeAdversary(Probe probe) : probe_(std::move(probe)) {}
  FaultPlan plan_round(const WorldView& world) override {
    if (world.round() == 1 && probe_) probe_(world);
    return {};
  }
  const char* name() const override { return "probe"; }

 private:
  Probe probe_;
};

// ---------------------------------------------------- evaluate_after_plan

TEST(EvaluateAfterPlanTest, MatchesDirectOutcomeForFloodMin) {
  // FloodMin {0,1,1}, t=1: delivering everything pins the outcome to 0;
  // hiding the 0-holder entirely pins it to 1. Query both mid-execution.
  FloodMinFactory factory({1, false});
  bool probed = false;
  ProbeAdversary probe([&](const WorldView& w) {
    ValencyOptions vopts;
    vopts.max_depth = 6;

    const auto keep = evaluate_after_plan(w, FaultPlan{}, vopts, 2.0);
    EXPECT_TRUE(keep.min_r.exact());
    EXPECT_DOUBLE_EQ(keep.min_r.lo, 0.0);
    EXPECT_DOUBLE_EQ(keep.max_r.hi, 0.0);

    FaultPlan hide;
    hide.crashes.push_back({0, DynBitset(w.n())});  // silence the 0-holder
    const auto hidden = evaluate_after_plan(w, hide, vopts, 2.0);
    EXPECT_DOUBLE_EQ(hidden.min_r.lo, 1.0);
    EXPECT_DOUBLE_EQ(hidden.max_r.hi, 1.0);
    probed = true;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  run_once(factory, {Bit::Zero, Bit::One, Bit::One}, probe, opts);
  EXPECT_TRUE(probed);
}

TEST(EvaluateAfterPlanTest, BudgetThreadsThroughTheFork) {
  // With the single budgeted crash spent by the queried plan, the child
  // evaluation must not allow further crashes: FloodMin {0,1,1} after
  // crashing a 1-sender still decides 0 under every continuation.
  FloodMinFactory factory({1, false});
  bool probed = false;
  ProbeAdversary probe([&](const WorldView& w) {
    ValencyOptions vopts;
    vopts.max_depth = 6;
    FaultPlan hide_one;
    hide_one.crashes.push_back({1, DynBitset(w.n())});
    const auto v = evaluate_after_plan(w, hide_one, vopts, 2.0);
    EXPECT_DOUBLE_EQ(v.min_r.hi, 0.0);
    EXPECT_DOUBLE_EQ(v.max_r.hi, 0.0) << "no budget left to hide the 0";
    probed = true;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  run_once(factory, {Bit::Zero, Bit::One, Bit::One}, probe, opts);
  EXPECT_TRUE(probed);
}

TEST(EvaluateAfterPlanTest, RejectsOverBudgetPlans) {
  FloodMinFactory factory({1, false});
  ProbeAdversary probe([&](const WorldView& w) {
    ValencyOptions vopts;
    FaultPlan two;
    two.crashes.push_back({0, DynBitset(w.n())});
    two.crashes.push_back({1, DynBitset(w.n())});
    EXPECT_THROW(evaluate_after_plan(w, two, vopts, 2.0), ArgumentError);
  });
  EngineOptions opts;
  opts.t_budget = 1;
  run_once(factory, {Bit::Zero, Bit::One, Bit::One}, probe, opts);
}

// ------------------------------------------------- the played §3 strategy

TEST(ExactValencyAdversaryTest, ForcesControlWithASingleCrash) {
  // With t = 1 every action at the round-1 decision point commits the
  // outcome; the §3.5 min-r fallback spends its crash to force 0 — the
  // value the baseline never decides on this input. Control, not delay,
  // is what a single crash buys at this scale.
  SynRanFactory factory;
  ExactValencyAdversary adv({12});
  EngineOptions opts;
  opts.t_budget = 1;
  opts.per_round_cap = 1;
  opts.seed = 5;
  opts.max_rounds = 200;
  const auto res =
      run_once(factory, {Bit::Zero, Bit::One, Bit::One}, adv, opts);
  ASSERT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.decision, Bit::Zero);
  EXPECT_EQ(res.faults.crashes, 1u);

  NoAdversary none;
  const auto base =
      run_once(factory, {Bit::Zero, Bit::One, Bit::One}, none, opts);
  EXPECT_EQ(base.decision, Bit::One);  // the baseline heads to 1
  EXPECT_FALSE(adv.chosen_classes().empty());
}

TEST(ExactValencyAdversaryTest, WithTwoCrashesStretchesOrControls) {
  // With budget 2 the strategy keeps a live option open longer: across
  // seeds it must stay safe, spend budget, and in aggregate either extend
  // the run beyond the 2-round baseline or force the minority value.
  SynRanFactory factory;
  std::size_t stretched = 0, flipped = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ExactValencyAdversary adv({10});
    EngineOptions opts;
    opts.t_budget = 2;
    opts.per_round_cap = 1;
    opts.seed = seed;
    opts.max_rounds = 200;
    const auto res =
        run_once(factory, {Bit::Zero, Bit::One, Bit::One}, adv, opts);
    ASSERT_TRUE(res.terminated) << "seed " << seed;
    ASSERT_TRUE(res.agreement) << "seed " << seed;
    EXPECT_GE(res.faults.crashes, 1u) << "seed " << seed;
    if (res.rounds_to_decision > 2) ++stretched;
    if (res.decision == Bit::Zero) ++flipped;
  }
  EXPECT_GT(stretched, 3u);  // most seeds run past the baseline's 2 rounds
  EXPECT_GT(flipped, 0u);    // and some are forced to the minority value
}

TEST(ExactValencyAdversaryTest, RefusesLargeSystems) {
  SynRanFactory factory;
  ExactValencyAdversary adv;
  EngineOptions opts;
  opts.t_budget = 2;
  EXPECT_THROW(run_once(factory, std::vector<Bit>(8, Bit::One), adv, opts),
               ArgumentError);
}

}  // namespace
}  // namespace synran
