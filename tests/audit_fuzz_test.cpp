// Fuzz target for the invariant auditor: drive random adversaries — valid
// ones, chaotic ones, and deliberately corrupted ones — through audited
// executions. Valid adversaries must never trip the auditor (no false
// positives); invalid plans must never survive to completion (no false
// negatives on the §3.1 budget rules).
#include <gtest/gtest.h>

#include <memory>

#include "adversary/basic.hpp"
#include "adversary/nonadaptive.hpp"
#include "common/rng.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

/// Emits plans drawn from raw randomness with no regard for the model:
/// crash victims may be dead, halted, silent, duplicated, or over budget;
/// omission senders may be silent, duplicated, crash-overlapping, or past
/// the omission budget; masks are random (occasionally even mis-sized);
/// and corruption directives may name dead or out-of-range senders,
/// duplicate receiver entries, overlap the other families, or bust the
/// byzantine budget. (Not the seeded injectors in adversary/ — this one
/// exists to be *wrong*.)
class MalformedPlanAdversary final : public Adversary {
 public:
  explicit MalformedPlanAdversary(std::uint64_t seed) : rng_(seed) {}

  FaultPlan plan_round(const WorldView& w) override {
    FaultPlan plan;
    if (rng_.flip()) return plan;
    const std::uint64_t k = 1 + rng_.below(3);
    for (std::uint64_t i = 0; i < k; ++i) {
      CrashDirective c;
      c.victim = static_cast<ProcessId>(rng_.below(w.n()));
      const std::uint32_t mask_size =
          rng_.below(20) == 0 ? w.n() + 1 : w.n();
      DynBitset mask(mask_size);
      for (std::uint32_t b = 0; b < mask_size; ++b) {
        if (rng_.flip()) mask.set(b);
      }
      c.deliver_to = std::move(mask);
      plan.crashes.push_back(std::move(c));
    }
    const std::uint64_t m = rng_.below(3);
    for (std::uint64_t i = 0; i < m; ++i) {
      OmissionDirective o;
      o.sender = static_cast<ProcessId>(rng_.below(w.n()));
      const std::uint32_t mask_size =
          rng_.below(20) == 0 ? w.n() + 1 : w.n();
      o.drop_for = DynBitset(mask_size);
      for (std::uint32_t b = 0; b < mask_size; ++b) {
        if (rng_.flip()) o.drop_for.set(b);
      }
      plan.omissions.push_back(std::move(o));
    }
    if (rng_.flip()) {
      CorruptionDirective cd;
      // Mostly in-range senders (dead or silent ones included), with an
      // occasional out-of-range id.
      cd.sender = static_cast<ProcessId>(
          rng_.below(w.n() + (rng_.below(20) == 0 ? 1 : 0)));
      const std::uint64_t f = 1 + rng_.below(3);
      for (std::uint64_t j = 0; j < f; ++j) {
        CorruptionDirective::Forgery fg;
        fg.target = static_cast<ProcessId>(rng_.below(w.n()));
        fg.forged = rng_.next();
        cd.forgeries.push_back(fg);
        // Occasionally forge the same receiver twice in one directive.
        if (rng_.below(4) == 0) cd.forgeries.push_back(fg);
      }
      plan.corruptions.push_back(std::move(cd));
    }
    return plan;
  }
  const char* name() const override { return "malformed-plan"; }

 private:
  Xoshiro256 rng_;
};

/// Wraps a well-behaved adversary but additionally crashes the lowest-id
/// sender not already in the plan every round, ignoring the budget — the
/// auditor must stop every such run before it completes.
class BudgetBuster final : public Adversary {
 public:
  explicit BudgetBuster(Adversary& inner) : inner_(&inner) {}
  void begin(std::uint32_t n, std::uint32_t t) override {
    inner_->begin(n, t);
  }
  FaultPlan plan_round(const WorldView& w) override {
    FaultPlan plan = inner_->plan_round(w);
    DynBitset planned(w.n());
    for (const auto& c : plan.crashes) planned.set(c.victim);
    for (ProcessId p = 0; p < w.n(); ++p) {
      if (w.sending(p) && !planned.test(p)) {
        plan.crashes.push_back({p, DynBitset(w.n())});
        break;
      }
    }
    return plan;
  }
  const char* name() const override { return "budget-buster"; }

 private:
  Adversary* inner_;
};

std::unique_ptr<ProcessFactory> draw_factory(Xoshiro256& rng,
                                             std::uint32_t t) {
  switch (rng.below(3)) {
    case 0:
      return std::make_unique<SynRanFactory>();
    case 1:
      return std::make_unique<FloodMinFactory>(FloodMinOptions{t, false});
    default:
      return std::make_unique<FloodMinFactory>(FloodMinOptions{t, true});
  }
}

std::vector<Bit> draw_inputs(Xoshiro256& rng, std::uint32_t n) {
  std::vector<Bit> inputs;
  inputs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) inputs.push_back(bit_of(rng.flip()));
  return inputs;
}

TEST(AuditFuzz, ValidAdversariesNeverTripTheAuditor) {
  Xoshiro256 rng(0xa0d17);
  for (int iter = 0; iter < 120; ++iter) {
    const auto n = 4 + static_cast<std::uint32_t>(rng.below(24));
    const auto t = static_cast<std::uint32_t>(rng.below(n / 2 + 1));
    std::unique_ptr<Adversary> inner;
    switch (rng.below(3)) {
      case 0:
        inner = std::make_unique<RandomCrashAdversary>(
            RandomCrashAdversary::Options{
                1 + static_cast<std::uint32_t>(rng.below(3)), 0.7,
                rng.next()});
        break;
      case 1:
        inner = std::make_unique<ObliviousAdversary>(ObliviousOptions{
            1 + static_cast<std::uint32_t>(rng.below(20)), rng.next()});
        break;
      default:
        inner = std::make_unique<ChainHidingAdversary>();
        break;
    }
    AuditedAdversary audited(*inner);
    const auto factory = draw_factory(rng, t);
    EngineOptions opts;
    opts.t_budget = t;
    opts.seed = rng.next();
    opts.max_rounds = 30000;
    RunResult res;
    ASSERT_NO_THROW(res = run_once(*factory, draw_inputs(rng, n), audited,
                                   opts))
        << "iter " << iter << " adversary " << inner->name();
    EXPECT_LE(res.faults.crashes, t);
    EXPECT_EQ(audited.auditor().crashes_so_far(), res.faults.crashes);
  }
}

TEST(AuditFuzz, ChaoticPlansNeverSurviveOverBudget) {
  Xoshiro256 rng(0xc4405);
  int violations_caught = 0;
  int clean_runs = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const auto n = 4 + static_cast<std::uint32_t>(rng.below(16));
    const auto t = static_cast<std::uint32_t>(rng.below(n));
    MalformedPlanAdversary chaos(rng.next());
    const auto factory = draw_factory(rng, t);
    EngineOptions opts;
    opts.t_budget = t;
    opts.per_round_cap = rng.flip() ? 2 : 0;
    // A third of the runs forbid omissions outright (the fail-stop default),
    // the rest grant a small budget the malformed plans routinely bust; the
    // byzantine budget is drawn the same way.
    opts.omission_budget =
        rng.below(3) == 0 ? 0 : static_cast<std::uint32_t>(rng.below(12));
    opts.omission_round_cap = rng.flip() ? 1 : 0;
    opts.byzantine_budget =
        rng.below(3) == 0 ? 0 : static_cast<std::uint32_t>(rng.below(12));
    opts.byzantine_round_cap = rng.flip() ? 1 : 0;
    opts.seed = rng.next();
    opts.max_rounds = 30000;
    try {
      const auto res = run_once(*factory, draw_inputs(rng, n), chaos, opts);
      // A chaotic run that completed must nonetheless be model-clean.
      EXPECT_LE(res.faults.crashes, t) << "iter " << iter;
      EXPECT_LE(res.faults.omissions, opts.omission_budget) << "iter " << iter;
      EXPECT_LE(res.faults.corruptions, opts.byzantine_budget)
          << "iter " << iter;
      if (opts.per_round_cap != 0) {
        for (auto c : res.crashes_per_round)
          EXPECT_LE(c, opts.per_round_cap) << "iter " << iter;
      }
      ++clean_runs;
    } catch (const InvariantError&) {
      ++violations_caught;  // the auditor did its job
    }
  }
  // The chaos generator must actually produce both outcomes, otherwise this
  // fuzz proves nothing.
  EXPECT_GT(violations_caught, 30);
  EXPECT_GT(clean_runs, 5);
}

TEST(AuditFuzz, BudgetBusterIsAlwaysStopped) {
  Xoshiro256 rng(0xb0057);
  for (int iter = 0; iter < 50; ++iter) {
    const auto n = 6 + static_cast<std::uint32_t>(rng.below(10));
    const auto t = 1 + static_cast<std::uint32_t>(rng.below(3));
    RandomCrashAdversary inner({1, 0.5, rng.next()});
    BudgetBuster buster(inner);
    const auto factory = draw_factory(rng, t);
    EngineOptions opts;
    opts.t_budget = t;
    opts.seed = rng.next();
    EXPECT_THROW(run_once(*factory, draw_inputs(rng, n), buster, opts),
                 InvariantError)
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace synran
