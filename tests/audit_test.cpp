// Tests for the runtime invariant auditor (src/sim/audit.hpp): every §3.1
// model violation class must be caught with a round-stamped narrative, and
// legitimate adversaries must pass untouched.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "adversary/basic.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace synran {
namespace {

std::vector<Bit> ones(std::uint32_t n) {
  return std::vector<Bit>(n, Bit::One);
}

/// Broadcasts its input for `rounds` exchanges, then decides it and halts.
class ChattyProcess final : public Process {
 public:
  ChattyProcess(ProcessId id, Bit input, std::uint32_t rounds)
      : id_(id), b_(input), rounds_(rounds) {}

  std::optional<Payload> on_round(const Receipt*, CoinSource&) override {
    if (sent_ >= rounds_) {
      decided_ = true;
      halted_ = true;
      return std::nullopt;
    }
    ++sent_;
    return payload::of_bit(b_);
  }
  bool decided() const override { return decided_; }
  Bit decision() const override { return b_; }
  bool halted() const override { return halted_; }
  ProcessView view() const override {
    return {b_, decided_, halted_, false, false};
  }
  std::uint64_t state_digest() const override {
    return (static_cast<std::uint64_t>(id_) << 32) ^ sent_;
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<ChattyProcess>(*this);
  }

 private:
  ProcessId id_;
  Bit b_;
  std::uint32_t rounds_;
  std::uint32_t sent_ = 0;
  bool decided_ = false;
  bool halted_ = false;
};

class ChattyFactory final : public ProcessFactory {
 public:
  /// `early_halt_id` (if any) halts after a single exchange; everyone else
  /// chats for `rounds`.
  explicit ChattyFactory(std::uint32_t rounds,
                         std::optional<ProcessId> early_halt_id = {})
      : rounds_(rounds), early_halt_id_(early_halt_id) {}
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t,
                                Bit input) const override {
    const std::uint32_t r =
        early_halt_id_ && *early_halt_id_ == id ? 1 : rounds_;
    return std::make_unique<ChattyProcess>(id, input, r);
  }
  const char* name() const override { return "chatty"; }

 private:
  std::uint32_t rounds_;
  std::optional<ProcessId> early_halt_id_;
};

/// Adversary built from a lambda.
class LambdaAdversary final : public Adversary {
 public:
  explicit LambdaAdversary(std::function<FaultPlan(const WorldView&)> fn)
      : fn_(std::move(fn)) {}
  FaultPlan plan_round(const WorldView& w) override { return fn_(w); }
  const char* name() const override { return "lambda"; }

 private:
  std::function<FaultPlan(const WorldView&)> fn_;
};

std::string run_expecting_audit_error(const ProcessFactory& factory,
                                      std::vector<Bit> inputs,
                                      Adversary& adv, EngineOptions opts) {
  try {
    run_once(factory, std::move(inputs), adv, opts);
  } catch (const InvariantError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an InvariantError";
  return {};
}

// --------------------------------------------------- budget-class violations

TEST(AuditTest, OverBudgetAdversaryIsCaught) {
  // Crashes one sender every round regardless of the budget: the third
  // crash exceeds t=2 and must be rejected the moment it is planned.
  ChattyFactory factory(100);
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    for (ProcessId p = 0; p < w.n(); ++p) {
      if (w.alive().test(p) && w.sending(p)) {
        plan.crashes.push_back({p, DynBitset(w.n())});
        break;
      }
    }
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 2;
  const std::string what =
      run_expecting_audit_error(factory, ones(6), adv, opts);
  EXPECT_NE(what.find("round 3"), std::string::npos) << what;
  EXPECT_NE(what.find("exceeding the fault budget t=2"), std::string::npos)
      << what;
}

TEST(AuditTest, PerRoundCapViolationIsCaught) {
  ChattyFactory factory(100);
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n())});
    plan.crashes.push_back({1, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 4;
  opts.per_round_cap = 1;
  const std::string what =
      run_expecting_audit_error(factory, ones(6), adv, opts);
  EXPECT_NE(what.find("per-round cap is 1"), std::string::npos) << what;
}

TEST(AuditTest, RecrashIsCaught) {
  // Crash process 0 in rounds 1 and 2: the dead must stay dead.
  ChattyFactory factory(100);
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    if (w.round() <= 2) plan.crashes.push_back({0, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 3;
  const std::string what =
      run_expecting_audit_error(factory, ones(6), adv, opts);
  EXPECT_NE(what.find("round 2"), std::string::npos) << what;
  EXPECT_NE(what.find("re-crashed"), std::string::npos) << what;
  EXPECT_NE(what.find("round 1"), std::string::npos) << what;
}

TEST(AuditTest, CrashingASilentProcessIsCaught) {
  // Process 0 halts after round 1; crashing it in round 3 is outside the
  // model (only senders can be crashed mid-broadcast).
  ChattyFactory factory(100, ProcessId{0});
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    if (w.round() == 3) plan.crashes.push_back({0, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 3;
  const std::string what =
      run_expecting_audit_error(factory, ones(6), adv, opts);
  EXPECT_NE(what.find("not sending"), std::string::npos) << what;
}

TEST(AuditTest, DuplicateVictimIsCaught) {
  ChattyFactory factory(100);
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.crashes.push_back({2, DynBitset(w.n())});
    plan.crashes.push_back({2, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 3;
  const std::string what =
      run_expecting_audit_error(factory, ones(6), adv, opts);
  EXPECT_NE(what.find("appears twice"), std::string::npos) << what;
}

TEST(AuditTest, WrongDeliverToSizeIsCaught) {
  ChattyFactory factory(100);
  LambdaAdversary adv([](const WorldView& w) {
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n() + 1)});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 3;
  const std::string what =
      run_expecting_audit_error(factory, ones(6), adv, opts);
  EXPECT_NE(what.find("deliver_to"), std::string::npos) << what;
}

// ----------------------------------------------------- decision discipline

/// Decides 0 in round 2, silently swaps the decision to 1 in round 4.
class FlippingProcess final : public Process {
 public:
  std::optional<Payload> on_round(const Receipt*, CoinSource&) override {
    ++round_;
    if (round_ >= 2) decided_ = true;
    if (round_ >= 8) {
      halted_ = true;
      return std::nullopt;
    }
    return payload::of_bit(decision());
  }
  bool decided() const override { return decided_; }
  Bit decision() const override {
    return round_ >= 4 ? Bit::One : Bit::Zero;
  }
  bool halted() const override { return halted_; }
  ProcessView view() const override {
    return {decision(), decided_, halted_, false, false};
  }
  std::uint64_t state_digest() const override { return round_; }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<FlippingProcess>(*this);
  }

 private:
  std::uint32_t round_ = 0;
  bool decided_ = false;
  bool halted_ = false;
};

class FlippingFactory final : public ProcessFactory {
 public:
  std::unique_ptr<Process> make(ProcessId, std::uint32_t,
                                Bit) const override {
    return std::make_unique<FlippingProcess>();
  }
  const char* name() const override { return "flipper"; }
};

TEST(AuditTest, StrictModeCatchesDecisionFlips) {
  FlippingFactory factory;
  NoAdversary none;
  EngineOptions opts;
  opts.strict_decision_audit = true;
  try {
    run_once(factory, ones(3), none, opts);
    FAIL() << "expected an InvariantError";
  } catch (const InvariantError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("flipped its decision from 0 to 1"),
              std::string::npos)
        << what;
  }
}

TEST(AuditTest, DefaultModeToleratesRescindStyleProtocols) {
  // The paper's SynRan rescinds decisions until STOP, so flips are legal at
  // round granularity unless the caller opts into the latching policy.
  FlippingFactory factory;
  NoAdversary none;
  EXPECT_NO_THROW(run_once(factory, ones(3), none, {}));
}

// ----------------------------------------------------------- clean passes

TEST(AuditTest, AuditedAdversaryPassesThroughAndCounts) {
  ChattyFactory factory(6);
  RandomCrashAdversary inner({2, 0.8, 99});
  AuditedAdversary audited(inner);
  EngineOptions opts;
  opts.t_budget = 3;
  opts.seed = 7;
  RunResult res;
  ASSERT_NO_THROW(res = run_once(factory, ones(8), audited, opts));
  EXPECT_EQ(audited.auditor().crashes_so_far(), res.faults.crashes);
  EXPECT_LE(res.faults.crashes, 3u);
  EXPECT_STREQ(audited.name(), "audited");
}

TEST(AuditTest, RunAuditorDeliveryAccounting) {
  RunAuditor auditor;
  auditor.begin(3, 1, 0);
  std::vector<std::optional<Payload>> payloads(
      3, std::optional<Payload>(payload::kSupports1));
  FaultPlan none;
  DynBitset active(3, true);
  // 3 full broadcasts × 3 active receivers.
  EXPECT_NO_THROW(auditor.on_deliveries(1, none, payloads, active, 9));
  try {
    auditor.on_deliveries(2, none, payloads, active, 8);
    FAIL() << "expected an InvariantError";
  } catch (const InvariantError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("round 2"), std::string::npos) << what;
    EXPECT_NE(what.find("broadcast count is 9"), std::string::npos) << what;
  }
}

TEST(AuditTest, RunAuditorPartialDeliveryAccounting) {
  RunAuditor auditor;
  auditor.begin(4, 2, 0);
  std::vector<std::optional<Payload>> payloads(
      4, std::optional<Payload>(payload::kSupports0));
  FaultPlan plan;
  DynBitset half(4);
  half.set(0);
  half.set(1);
  plan.crashes.push_back({3, half});
  DynBitset active(4, true);
  active.reset(3);
  auditor.on_plan(1, plan, payloads);
  // 3 full broadcasts × 3 active receivers + |{0,1} ∩ active| = 9 + 2.
  EXPECT_NO_THROW(auditor.on_deliveries(1, plan, payloads, active, 11));
  EXPECT_EQ(auditor.crashes_so_far(), 1u);
  EXPECT_EQ(auditor.budget_left(), 1u);
  // The message's terms add up: the partial-link total and the number of
  // crashed senders are separate figures.
  try {
    auditor.on_deliveries(1, plan, payloads, active, 10);
    FAIL() << "expected an InvariantError";
  } catch (const InvariantError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("broadcast count is 11"), std::string::npos) << what;
    EXPECT_NE(what.find("3 full broadcasts to 3 active receivers"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("plus 2 partial deliveries"), std::string::npos)
        << what;
    EXPECT_NE(what.find("from 1 crashed senders"), std::string::npos) << what;
  }
}

TEST(AuditTest, GroupedPartialDeliveriesMatchPerDirectiveSum) {
  // The auditor counts deliver_to ∩ active once per run of equal masks.
  // Random plans mix runs, non-adjacent repeats (A, B, A), empty and
  // all-ones masks, and active sets that drop some mask members; the
  // reference sums count_and one directive at a time.
  Xoshiro256 rng(2024);
  std::uint32_t long_runs = 0;  // runs of length ≥ 2 reaching someone
  std::uint32_t repeats = 0;    // a mask recurring after a different one
  std::uint32_t empties = 0, fulls = 0;
  for (const std::uint32_t n : {3u, 63u, 64u, 65u, 130u, 200u}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::optional<Payload>> payloads(n);
      std::vector<ProcessId> senders;
      for (ProcessId i = 0; i < n; ++i) {
        if (rng.below(8) == 0) continue;
        payloads[i] = rng.below(2) == 0 ? payload::kSupports0
                                        : payload::kSupports1;
        senders.push_back(i);
      }
      for (std::size_t k = senders.size(); k > 1; --k)
        std::swap(senders[k - 1], senders[rng.below(k)]);
      const std::size_t victims = rng.below(senders.size() + 1);

      // Palette: empty, all-ones and three random masks.
      std::vector<DynBitset> palette{DynBitset(n), DynBitset(n, true)};
      for (int m = 0; m < 3; ++m) {
        DynBitset mask(n);
        for (ProcessId i = 0; i < n; ++i)
          if (rng.below(2) == 0) mask.set(i);
        palette.push_back(mask);
      }
      FaultPlan plan;
      std::vector<std::size_t> used;  // palette index per directive
      while (plan.crashes.size() < victims) {
        const std::size_t pick = rng.below(palette.size());
        const std::size_t len = 1 + rng.below(4);
        for (std::size_t k = 0; k < len && plan.crashes.size() < victims;
             ++k) {
          plan.crashes.push_back(
              {senders[plan.crashes.size()], palette[pick]});
          used.push_back(pick);
        }
      }

      DynBitset active(n, true);
      for (const auto& c : plan.crashes) active.reset(c.victim);
      for (ProcessId i = 0; i < n; ++i)
        if (rng.below(5) == 0) active.reset(i);

      const std::uint64_t full_senders = senders.size() - victims;
      std::uint64_t reference = full_senders * active.count();
      for (const auto& c : plan.crashes)
        reference += c.deliver_to.count_and(active);

      for (std::size_t g = 0; g < used.size();) {
        std::size_t h = g;
        while (h < used.size() && palette[used[h]] == palette[used[g]]) ++h;
        if (h - g >= 2 && palette[used[g]].count_and(active) > 0)
          ++long_runs;
        for (std::size_t e = 0; e < g; ++e) {
          if (palette[used[e]] == palette[used[g]]) {
            ++repeats;
            break;
          }
        }
        if (palette[used[g]].none()) ++empties;
        if (palette[used[g]].count() == n) ++fulls;
        g = h;
      }

      RunAuditor auditor;
      auditor.begin(n, n, 0);
      auditor.on_plan(1, plan, payloads);
      EXPECT_NO_THROW(
          auditor.on_deliveries(1, plan, payloads, active, reference))
          << "n=" << n << " trial " << trial;
      EXPECT_THROW(
          auditor.on_deliveries(1, plan, payloads, active, reference + 1),
          InvariantError)
          << "n=" << n << " trial " << trial;
      EXPECT_THROW(
          auditor.on_deliveries(1, plan, payloads, active, reference - 1),
          InvariantError)
          << "n=" << n << " trial " << trial;
    }
  }
  EXPECT_GT(long_runs, 0u);
  EXPECT_GT(repeats, 0u);
  EXPECT_GT(empties, 0u);
  EXPECT_GT(fulls, 0u);
}

}  // namespace
}  // namespace synran
