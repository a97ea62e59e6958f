// Tests for the synchronous engine and the rollout/fork machinery, using
// small purpose-built protocols so engine mechanics are observable in
// isolation from the real consensus logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "adversary/coinbias.hpp"
#include "common/check.hpp"
#include "obs/observer.hpp"
#include "protocols/synran.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/rollout.hpp"

namespace synran {
namespace {

// A process that broadcasts its input for `rounds` exchanges, then decides
// its input and halts. No coins, no interaction — pure engine probe.
class EchoProcess final : public Process {
 public:
  EchoProcess(ProcessId id, std::uint32_t n, Bit input, std::uint32_t rounds)
      : id_(id), n_(n), b_(input), rounds_(rounds) {}

  std::optional<Payload> on_round(const Receipt* prev,
                                  CoinSource&) override {
    if (prev != nullptr) last_receipt_ = *prev;
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
    return (static_cast<std::uint64_t>(id_) << 32) ^ sent_ ^
           (static_cast<std::uint64_t>(b_ == Bit::One) << 20);
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<EchoProcess>(*this);
  }

  const Receipt& last_receipt() const { return last_receipt_; }

 private:
  ProcessId id_;
  std::uint32_t n_;
  Bit b_;
  std::uint32_t rounds_;
  std::uint32_t sent_ = 0;
  bool decided_ = false;
  bool halted_ = false;
  Receipt last_receipt_{};
};

class EchoFactory final : public ProcessFactory {
 public:
  explicit EchoFactory(std::uint32_t rounds) : rounds_(rounds) {}
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                Bit input) const override {
    return std::make_unique<EchoProcess>(id, n, input, rounds_);
  }
  const char* name() const override { return "echo"; }

 private:
  std::uint32_t rounds_;
};

// A process that decides the majority bit of round 1 and halts; ties -> 0.
// Used to observe partial-delivery effects end to end.
class MajorityOnceProcess final : public Process {
 public:
  MajorityOnceProcess(ProcessId id, Bit input) : id_(id), b_(input) {}
  std::optional<Payload> on_round(const Receipt* prev,
                                  CoinSource&) override {
    if (prev == nullptr) return payload::of_bit(b_);
    b_ = 2 * prev->ones > prev->count ? Bit::One : Bit::Zero;
    decided_ = true;
    halted_ = true;
    return std::nullopt;
  }
  bool decided() const override { return decided_; }
  Bit decision() const override { return b_; }
  bool halted() const override { return halted_; }
  ProcessView view() const override {
    return {b_, decided_, halted_, false, false};
  }
  std::uint64_t state_digest() const override {
    return id_ ^ (static_cast<std::uint64_t>(b_ == Bit::One) << 8) ^
           (static_cast<std::uint64_t>(decided_) << 9);
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<MajorityOnceProcess>(*this);
  }

 private:
  ProcessId id_;
  Bit b_;
  bool decided_ = false;
  bool halted_ = false;
};

class MajorityOnceFactory final : public ProcessFactory {
 public:
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t,
                                Bit input) const override {
    return std::make_unique<MajorityOnceProcess>(id, input);
  }
  const char* name() const override { return "majority-once"; }
};

// Runs a callback on a chosen round with full world access, then delegates
// to an inner adversary (or does nothing).
class ProbeAdversary final : public Adversary {
 public:
  using Probe = std::function<FaultPlan(const WorldView&)>;
  ProbeAdversary(Round round, Probe probe)
      : round_(round), probe_(std::move(probe)) {}
  FaultPlan plan_round(const WorldView& world) override {
    if (world.round() == round_) return probe_(world);
    return {};
  }
  const char* name() const override { return "probe"; }

 private:
  Round round_;
  Probe probe_;
};

std::vector<Bit> bits(std::initializer_list<int> xs) {
  std::vector<Bit> out;
  for (int x : xs) out.push_back(x ? Bit::One : Bit::Zero);
  return out;
}

// ------------------------------------------------------------------ engine

TEST(EngineTest, CountsRoundsWithPaperConvention) {
  EchoFactory factory(3);  // 3 exchanges, decide while digesting round 3
  NoAdversary adv;
  EngineOptions opts;
  const auto res = run_once(factory, bits({1, 1, 1}), adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_EQ(res.rounds_to_decision, 3u);
  EXPECT_EQ(res.rounds_to_halt, 3u);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.decision, Bit::One);
  EXPECT_EQ(res.faults.crashes, 0u);
}

TEST(EngineTest, DisagreementIsReported) {
  EchoFactory factory(1);  // everyone decides its own input
  NoAdversary adv;
  const auto res = run_once(factory, bits({0, 1}), adv, {});
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.has_decision);
  EXPECT_FALSE(res.agreement);
}

TEST(EngineTest, MaxRoundsCapMarksNonTermination) {
  EchoFactory factory(1000);
  NoAdversary adv;
  EngineOptions opts;
  opts.max_rounds = 5;
  const auto res = run_once(factory, bits({1}), adv, opts);
  EXPECT_FALSE(res.terminated);
}

TEST(EngineTest, BudgetOverrunIsAnInvariantViolation) {
  EchoFactory factory(5);
  ProbeAdversary adv(1, [](const WorldView& w) {
    FaultPlan plan;  // crash everyone with zero budget
    for (ProcessId i = 0; i < w.n(); ++i)
      plan.crashes.push_back({i, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 0;
  EXPECT_THROW(run_once(factory, bits({1, 1, 1}), adv, opts),
               InvariantError);
}

TEST(EngineTest, PerRoundCapIsEnforced) {
  EchoFactory factory(5);
  ProbeAdversary adv(1, [](const WorldView& w) {
    EXPECT_EQ(w.round_cap(), 1u);
    EXPECT_EQ(w.round_budget(), 1u);
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n())});
    plan.crashes.push_back({1, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 3;
  opts.per_round_cap = 1;
  EXPECT_THROW(run_once(factory, bits({1, 1, 1}), adv, opts),
               InvariantError);
}

TEST(EngineTest, CrashingDeadProcessIsRejected) {
  EchoFactory factory(5);
  int calls = 0;
  auto probe = [&calls](const WorldView& w) {
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n())});
    ++calls;
    return plan;
  };
  // Crash 0 in round 1 and again in round 2: round 2 must throw inside the
  // fabric because a dead process is not a sender.
  class TwiceAdversary final : public Adversary {
   public:
    explicit TwiceAdversary(std::function<FaultPlan(const WorldView&)> f)
        : f_(std::move(f)) {}
    FaultPlan plan_round(const WorldView& w) override {
      return w.round() <= 2 ? f_(w) : FaultPlan{};
    }
    const char* name() const override { return "twice"; }

   private:
    std::function<FaultPlan(const WorldView&)> f_;
  } adv(probe);
  EngineOptions opts;
  opts.t_budget = 2;
  EXPECT_THROW(run_once(factory, bits({1, 1, 1}), adv, opts),
               InvariantError);
  EXPECT_EQ(calls, 2);
}

TEST(EngineTest, CrashedProcessIsSilencedForever) {
  MajorityOnceFactory factory;
  // 5 processes: 1,1,1,0,0. Crash a 1-sender in round 1 delivering to
  // nobody: every receiver sees 2 ones / 4 messages -> tie -> 0.
  ProbeAdversary adv(1, [](const WorldView& w) {
    FaultPlan plan;
    ProcessId one_sender = w.n();
    for (ProcessId i = 0; i < w.n(); ++i) {
      if (w.sending(i) &&
          payload::supports(*w.payload(i), Bit::One)) {
        one_sender = i;
        break;
      }
    }
    EXPECT_LT(one_sender, w.n());
    plan.crashes.push_back({one_sender, DynBitset(w.n())});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  const auto res = run_once(factory, bits({1, 1, 1, 0, 0}), adv, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.decision, Bit::Zero);
  EXPECT_EQ(res.faults.crashes, 1u);
}

TEST(EngineTest, PartialDeliveryCreatesSplitViews) {
  MajorityOnceFactory factory;
  // 4 processes: 1,1,0,0. Crash sender 0 (a 1) delivering only to process 1:
  // process 1 sees 2/4 ones -> 0 (tie), processes 2,3 see 1/3 -> 0.
  ProbeAdversary adv(1, [](const WorldView& w) {
    FaultPlan plan;
    DynBitset mask(w.n());
    mask.set(1);
    plan.crashes.push_back({0, mask});
    return plan;
  });
  EngineOptions opts;
  opts.t_budget = 1;
  const auto res = run_once(factory, bits({1, 1, 0, 0}), adv, opts);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.decision, Bit::Zero);
  EXPECT_FALSE(res.decided[0]);  // crashed before deciding
  EXPECT_TRUE(res.crashed[0]);
}

TEST(EngineTest, DeterministicForSeed) {
  MajorityOnceFactory factory;
  NoAdversary adv;
  EngineOptions opts;
  opts.seed = 123;
  const auto a = run_once(factory, bits({1, 0, 1}), adv, opts);
  const auto b = run_once(factory, bits({1, 0, 1}), adv, opts);
  EXPECT_EQ(a.rounds_to_halt, b.rounds_to_halt);
  EXPECT_EQ(a.decision, b.decision);
}

TEST(EngineTest, RejectsOversizedBudget) {
  EchoFactory factory(1);
  NoAdversary adv;
  EngineOptions opts;
  opts.t_budget = 4;
  EXPECT_THROW(run_once(factory, bits({1, 1}), adv, opts), ArgumentError);
}

TEST(EngineTest, EmptyInputsRejected) {
  EchoFactory factory(1);
  NoAdversary adv;
  EXPECT_THROW(run_once(factory, {}, adv, {}), ArgumentError);
}

// Keeps the observation the engine reported at the start of each round.
class RoundBeginRecorder final : public obs::EngineObserver {
 public:
  void on_round_begin(const obs::RoundObservation& round) override {
    last = round;
  }
  obs::RoundObservation last;
};

// Before delegating to `inner`, checks every round that exactly the alive,
// non-halted processes hold a payload, and that the observer's round-start
// counts match a recount over every slot.
class SlotCheckAdversary final : public Adversary {
 public:
  SlotCheckAdversary(Adversary& inner, const RoundBeginRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void begin(std::uint32_t n, std::uint32_t t_budget) override {
    inner_.begin(n, t_budget);
  }

  FaultPlan plan_round(const WorldView& world) override {
    obs::RoundObservation want;
    std::uint32_t bad_slots = 0, crashed = 0, halted = 0;
    for (ProcessId i = 0; i < world.n(); ++i) {
      const bool dead = !world.alive().test(i);
      const bool stopped = world.halted().test(i);
      const auto& p = world.payloads()[i];
      if (p.has_value() == (dead || stopped)) ++bad_slots;
      crashed += dead ? 1 : 0;
      halted += stopped ? 1 : 0;
      if (!dead && world.processes()[i]->decided()) ++want.decided;
      if (!p.has_value()) continue;
      ++want.senders;
      if (payload::supports(*p, Bit::One)) ++want.ones;
      if (payload::supports(*p, Bit::Zero)) ++want.zeros;
      if (*p & payload::kDeterministicFlag) ++want.deterministic;
    }
    const obs::RoundObservation& got = recorder_.last;
    EXPECT_EQ(bad_slots, 0u) << "round " << world.round();
    EXPECT_EQ(got.round, world.round());
    EXPECT_EQ(got.senders, want.senders) << "round " << world.round();
    EXPECT_EQ(got.decided, want.decided) << "round " << world.round();
    EXPECT_EQ(got.ones, want.ones) << "round " << world.round();
    EXPECT_EQ(got.zeros, want.zeros) << "round " << world.round();
    EXPECT_EQ(got.deterministic, want.deterministic)
        << "round " << world.round();
    if (crashed > 0) ++rounds_with_crashed;
    if (halted > 0) ++rounds_with_halted;

    FaultPlan plan = inner_.plan_round(world);
    max_crashes = std::max<std::size_t>(max_crashes, plan.crash_count());
    return plan;
  }
  const char* name() const override { return "slot-check"; }

  std::uint32_t rounds_with_crashed = 0;
  std::uint32_t rounds_with_halted = 0;
  std::size_t max_crashes = 0;

 private:
  Adversary& inner_;
  const RoundBeginRecorder& recorder_;
};

// Process i echoes for 1 + i % 7 exchanges, so halted and sending
// processes share rounds.
class StaggeredEchoFactory final : public ProcessFactory {
 public:
  std::unique_ptr<Process> make(ProcessId id, std::uint32_t n,
                                Bit input) const override {
    return std::make_unique<EchoProcess>(id, n, input, 1 + id % 7);
  }
  const char* name() const override { return "staggered-echo"; }
};

TEST(EngineTest, PayloadSlotsFollowTheLiveSet) {
  // Phase A visits only live processes and a crashed slot is cleared once,
  // when its crash commits. Sizes around the word boundary leave `alive`
  // ending in a partial word; one workspace serves every run, so slots
  // left by a bigger or crash-heavy run must not leak into the next.
  EngineWorkspace ws;
  Engine engine(ws);
  SynRanFactory synran;
  StaggeredEchoFactory staggered;
  for (const std::uint32_t n : {63u, 64u, 65u, 130u}) {
    std::vector<Bit> inputs(n);
    for (std::uint32_t i = 0; i < n; ++i)
      inputs[i] = i % 2 == 0 ? Bit::Zero : Bit::One;
    for (const ProcessFactory* factory :
         {static_cast<const ProcessFactory*>(&synran),
          static_cast<const ProcessFactory*>(&staggered)}) {
      const std::string where =
          std::string(factory->name()) + " n=" + std::to_string(n);
      for (const bool attack : {true, false}) {
        std::uint32_t crashed_rounds = 0, halted_rounds = 0;
        std::size_t max_crashes = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          CoinBiasAdversary coinbias({0.55, true, seed});
          NoAdversary none;
          RoundBeginRecorder recorder;
          SlotCheckAdversary check(
              attack ? static_cast<Adversary&>(coinbias)
                     : static_cast<Adversary&>(none),
              recorder);
          EngineOptions opts;
          opts.t_budget = attack ? n - 1 : 0;
          opts.seed = seed * 17 + n;
          opts.max_rounds = 50000;
          opts.observer = &recorder;
          const RunSummary sum = engine.run(*factory, inputs, check, opts);
          EXPECT_TRUE(sum.terminated) << where << " seed " << seed;
          crashed_rounds += check.rounds_with_crashed;
          halted_rounds += check.rounds_with_halted;
          max_crashes = std::max(max_crashes, check.max_crashes);
        }
        if (attack && factory == &synran) {
          // CoinBias crashes many victims behind one shared mask.
          EXPECT_GE(max_crashes, n / 4) << where;
        }
        if (attack) {
          EXPECT_GT(crashed_rounds, 0u) << where;
        }
        if (factory == &staggered) {
          EXPECT_GT(halted_rounds, 0u) << where;
        }
      }
    }
  }
}

// ---------------------------------------------------------- validity_holds

TEST(ValidityTest, VacuousWithoutDecision) {
  RunResult res;
  EXPECT_TRUE(validity_holds(bits({0, 0}), res));
}

TEST(ValidityTest, DetectsViolation) {
  RunResult res;
  res.has_decision = true;
  res.decided = {true, true};
  res.crashed = {false, false};
  res.decisions = {Bit::One, Bit::One};
  EXPECT_FALSE(validity_holds(bits({0, 0}), res));
  EXPECT_TRUE(validity_holds(bits({1, 1}), res));
  EXPECT_TRUE(validity_holds(bits({0, 1}), res));
}

TEST(ValidityTest, IgnoresCrashedProcesses) {
  RunResult res;
  res.has_decision = true;
  res.decided = {true, true};
  res.crashed = {true, false};
  res.decisions = {Bit::One, Bit::Zero};
  EXPECT_TRUE(validity_holds(bits({0, 0}), res));
}

TEST(ValidityTest, VacuousWhenNoSurvivorDecided) {
  // has_decision can be set while every survivor is still undecided (and the
  // only decided process crashed): with nobody's verdict in scope the
  // unanimity requirement is vacuously met, stale decision values included.
  RunResult res;
  res.has_decision = true;
  res.decided = {true, false, false};
  res.crashed = {true, false, false};
  res.decisions = {Bit::One, Bit::One, Bit::One};
  EXPECT_TRUE(validity_holds(bits({0, 0, 0}), res));
}

TEST(ValidityTest, MixedInputsPermitEitherDecision) {
  // With non-unanimous inputs §2's validity clause imposes nothing: even
  // survivors split across both values are fine.
  RunResult res;
  res.has_decision = true;
  res.decided = {true, true, true};
  res.crashed = {false, false, false};
  res.decisions = {Bit::One, Bit::Zero, Bit::One};
  EXPECT_TRUE(validity_holds(bits({0, 1, 0}), res));
  EXPECT_TRUE(validity_holds(bits({1, 0, 1}), res));
}

TEST(ValidityTest, UnanimousInputsButNoDecisionIsVacuous) {
  // A run cut off before any decision (has_decision == false) cannot violate
  // validity regardless of what stale per-process state it carries.
  RunResult res;
  res.has_decision = false;
  res.decided = {true, true};
  res.crashed = {false, false};
  res.decisions = {Bit::One, Bit::One};
  EXPECT_TRUE(validity_holds(bits({0, 0}), res));
  EXPECT_TRUE(validity_holds(bits({1, 1}), res));
}

// ----------------------------------------------------------------- rollout

TEST(RolloutTest, ForkReproducesDeterministicOutcome) {
  MajorityOnceFactory factory;
  bool probed = false;
  ProbeAdversary adv(1, [&probed](const WorldView& w) {
    NoAdversary none;
    const auto out = rollout(w, FaultPlan{}, none, 7);
    EXPECT_TRUE(out.terminated);
    EXPECT_TRUE(out.agreement);
    EXPECT_TRUE(out.decided_one);  // majority of 1,1,0 is 1
    probed = true;
    return FaultPlan{};
  });
  const auto res = run_once(factory, bits({1, 1, 0}), adv, {});
  EXPECT_TRUE(probed);
  EXPECT_EQ(res.decision, Bit::One);
}

TEST(RolloutTest, FirstPlanChangesOutcome) {
  MajorityOnceFactory factory;
  bool probed = false;
  ProbeAdversary adv(1, [&probed](const WorldView& w) {
    // Hypothetical: crash the only 0-sender silently -> everyone sees 2/2
    // ones -> decide 1... while actually we do nothing.
    FaultPlan hide;
    for (ProcessId i = 0; i < w.n(); ++i)
      if (w.sending(i) && !payload::supports(*w.payload(i), Bit::One))
        hide.crashes.push_back({i, DynBitset(w.n())});
    NoAdversary none;
    const auto out = rollout(w, hide, none, 7);
    EXPECT_TRUE(out.decided_one);
    probed = true;
    return FaultPlan{};
  });
  EngineOptions opts;
  opts.t_budget = 1;
  const auto res = run_once(factory, bits({1, 0, 1}), adv, opts);
  EXPECT_TRUE(probed);
  // The real run delivered everything: majority 1.
  EXPECT_EQ(res.decision, Bit::One);
  EXPECT_EQ(res.faults.crashes, 0u);
}

TEST(RolloutTest, BudgetIsThreadedThroughFork) {
  EchoFactory factory(4);
  bool probed = false;
  ProbeAdversary adv(2, [&probed](const WorldView& w) {
    ForkState fork = ForkState::from_world(w);
    EXPECT_EQ(fork.budget_left(), w.budget_left());
    EXPECT_EQ(fork.round(), w.round());
    // Over-budget plan must throw inside the fork as well.
    FaultPlan plan;
    for (ProcessId i = 0; i < w.n() && plan.crashes.size() <= w.budget_left();
         ++i)
      if (w.sending(i)) plan.crashes.push_back({i, DynBitset(w.n())});
    if (plan.crash_count() > w.budget_left()) {
      EXPECT_THROW(fork.deliver_with(plan), InvariantError);
    }
    probed = true;
    return FaultPlan{};
  });
  EngineOptions opts;
  opts.t_budget = 1;
  run_once(factory, bits({1, 1, 1}), adv, opts);
  EXPECT_TRUE(probed);
}

TEST(ForkStateTest, CopyIsIndependent) {
  MajorityOnceFactory factory;
  ProbeAdversary adv(1, [](const WorldView& w) {
    ForkState a = ForkState::from_world(w);
    ForkState b(a);
    FaultPlan plan;
    plan.crashes.push_back({0, DynBitset(w.n())});
    a.deliver_with(plan);
    EXPECT_FALSE(a.alive().test(0));
    EXPECT_TRUE(b.alive().test(0));  // the copy is untouched
    return FaultPlan{};
  });
  EngineOptions opts;
  opts.t_budget = 1;
  run_once(factory, bits({1, 1, 0}), adv, opts);
}

}  // namespace
}  // namespace synran
