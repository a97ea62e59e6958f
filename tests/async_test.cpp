// Tests for the asynchronous substrate: codec, engine mechanics, schedulers,
// and the Ben-Or protocol's consensus properties.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "async/benor.hpp"
#include "async/core.hpp"
#include "async/scheduler.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace synran {
namespace {

std::vector<Bit> bits(std::initializer_list<int> xs) {
  std::vector<Bit> out;
  for (int x : xs) out.push_back(x ? Bit::One : Bit::Zero);
  return out;
}

// ------------------------------------------------------------------- codec

TEST(BenOrWireTest, RoundTripsAllFields) {
  using W = BenOrAsyncProcess::Wire;
  for (bool proposal : {false, true}) {
    for (std::uint32_t round : {1u, 2u, 77u, 1u << 20}) {
      for (int value : {-1, 0, 1}) {
        if (value < 0 && !proposal) continue;  // reports carry real values
        const W w{proposal, round, value};
        const W back = BenOrAsyncProcess::decode(BenOrAsyncProcess::encode(w));
        EXPECT_EQ(back.proposal, proposal);
        EXPECT_EQ(back.round, round);
        EXPECT_EQ(back.value, value);
      }
    }
  }
}

TEST(BenOrWireTest, RejectsBotReport) {
  EXPECT_THROW(BenOrAsyncProcess::encode({false, 1, -1}), ArgumentError);
}

// ----------------------------------------------------------------- engine

TEST(AsyncEngineTest, SingleProcessDecidesImmediately) {
  BenOrAsyncFactory factory;
  FifoScheduler fifo;
  const auto res = run_async(factory, bits({1}), fifo, {});
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.decision, Bit::One);
  EXPECT_EQ(res.faults.crashes, 0u);
}

TEST(AsyncEngineTest, ValidityUnderEveryScheduler) {
  BenOrAsyncFactory factory;
  for (Bit v : {Bit::Zero, Bit::One}) {
    const std::vector<Bit> inputs(9, v);
    AsyncEngineOptions opts;
    opts.t_budget = 4;

    FifoScheduler fifo;
    auto res = run_async(factory, inputs, fifo, opts);
    EXPECT_TRUE(res.terminated);
    EXPECT_EQ(res.decision, v);

    RandomScheduler rnd(3);
    res = run_async(factory, inputs, rnd, opts);
    EXPECT_TRUE(res.terminated);
    EXPECT_EQ(res.decision, v);

    LaggardScheduler lag(5);
    res = run_async(factory, inputs, lag, opts);
    EXPECT_TRUE(res.terminated);
    EXPECT_EQ(res.decision, v);
    EXPECT_TRUE(res.agreement);
  }
}

TEST(AsyncEngineTest, AgreementOnMixedInputsAcrossSeeds) {
  BenOrAsyncFactory factory;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AsyncEngineOptions opts;
    opts.t_budget = 3;
    opts.seed = seed;
    RandomScheduler sched(seed * 7);
    const auto res =
        run_async(factory, bits({0, 1, 0, 1, 0, 1, 1}), sched, opts);
    ASSERT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
    EXPECT_GE(res.max_round, 1u);
  }
}

TEST(AsyncEngineTest, LaggardSchedulerStillTerminatesAndAgrees) {
  BenOrAsyncFactory factory;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    AsyncEngineOptions opts;
    opts.t_budget = 4;
    opts.seed = seed;
    LaggardScheduler sched(seed);
    const auto res =
        run_async(factory, bits({0, 1, 0, 1, 0, 1, 0, 1, 0}), sched, opts);
    ASSERT_TRUE(res.terminated) << "seed " << seed;
    EXPECT_TRUE(res.agreement) << "seed " << seed;
    EXPECT_LE(res.faults.crashes, 4u);
  }
}

TEST(AsyncEngineTest, CoinFlipsAreCounted) {
  // Mixed inputs with an adversarial scheduler: at least some executions
  // must reach the coin-flip branch.
  BenOrAsyncFactory factory;
  std::uint64_t total_flips = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AsyncEngineOptions opts;
    opts.t_budget = 2;
    opts.seed = seed;
    LaggardScheduler sched(seed);
    const auto res = run_async(factory, bits({0, 0, 1, 1, 0, 1}), sched,
                               opts);
    total_flips += res.coin_flips;
  }
  EXPECT_GT(total_flips, 0u);
}

TEST(AsyncEngineTest, RejectsTAtLeastHalf) {
  BenOrAsyncFactory factory;
  FifoScheduler fifo;
  AsyncEngineOptions opts;
  opts.t_budget = 3;  // n = 6: 2t !< n
  EXPECT_THROW(run_async(factory, bits({0, 1, 0, 1, 0, 1}), fifo, opts),
               ArgumentError);
}

TEST(AsyncEngineTest, DeterministicForSeed) {
  BenOrAsyncFactory factory;
  AsyncEngineOptions opts;
  opts.t_budget = 2;
  opts.seed = 99;
  RandomScheduler s1(5), s2(5);
  const auto a = run_async(factory, bits({0, 1, 1, 0, 1}), s1, opts);
  const auto b = run_async(factory, bits({0, 1, 1, 0, 1}), s2, opts);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.coin_flips, b.coin_flips);
}

// A scheduler that tries to exceed its crash budget — the engine must throw.
class GreedyCrasher final : public AsyncScheduler {
 public:
  AsyncAction step(const AsyncWorld& world) override {
    for (ProcessId i = 0; i < world.n(); ++i) {
      if (!world.crashed(i)) {
        AsyncAction a;
        a.kind = AsyncAction::Kind::Crash;
        a.victim = i;
        return a;
      }
    }
    return {AsyncAction::Kind::Deliver, 0, 0, {}};
  }
  const char* name() const override { return "greedy-crasher"; }
};

TEST(AsyncEngineTest, CrashBudgetIsEnforced) {
  BenOrAsyncFactory factory;
  GreedyCrasher sched;
  AsyncEngineOptions opts;
  opts.t_budget = 1;  // the second crash must throw
  EXPECT_THROW(run_async(factory, bits({0, 1, 0}), sched, opts),
               InvariantError);
}

TEST(AsyncEngineTest, CrashDropsInTransitTraffic) {
  // Crash process 0 immediately, dropping everything it sent: the rest
  // must still decide among themselves.
  class CrashZeroFirst final : public AsyncScheduler {
   public:
    AsyncAction step(const AsyncWorld& world) override {
      if (!done_ && !world.crashed(0)) {
        done_ = true;
        AsyncAction a;
        a.kind = AsyncAction::Kind::Crash;
        a.victim = 0;
        for (std::size_t i = 0; i < world.pending().size(); ++i)
          if (world.pending()[i].from == 0) a.drop.push_back(i);
        return a;
      }
      return {AsyncAction::Kind::Deliver, 0, 0, {}};
    }
    const char* name() const override { return "crash-zero"; }

   private:
    bool done_ = false;
  } sched;

  BenOrAsyncFactory factory;
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  // Process 0 holds the only 0: with it gone before anyone heard it, the
  // system must decide 1.
  const auto res = run_async(factory, bits({0, 1, 1, 1, 1}), sched, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.decision, Bit::One);
  EXPECT_EQ(res.faults.crashes, 1u);
}

// --------------------------------------------- the O(1)-for-small-t story

TEST(AsyncBenOrProperty, FastForUnanimousAndSmallT) {
  // [BO83]: constant expected rounds when t = O(√n); with benign random
  // scheduling and few crashes the round count stays small.
  BenOrAsyncFactory factory;
  std::uint32_t worst_round = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    AsyncEngineOptions opts;
    opts.t_budget = 2;  // ≈ √n for n = 9
    opts.seed = seed;
    RandomScheduler sched(seed);
    const auto res =
        run_async(factory, bits({1, 1, 0, 1, 1, 0, 1, 1, 1}), sched, opts);
    ASSERT_TRUE(res.terminated);
    worst_round = std::max(worst_round, res.max_round);
  }
  EXPECT_LE(worst_round, 12u);
}

}  // namespace
}  // namespace synran

namespace synran {
namespace {

// ------------------------------------------------------ scheduler details

TEST(SchedulerTest, FifoDeliversAValidIndex) {
  BenOrAsyncFactory factory;
  FifoScheduler fifo;
  AsyncEngineOptions opts;
  const auto res = run_async(factory, bits({1, 0, 1}), fifo, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_GT(res.steps, 0u);
}

TEST(SchedulerTest, RandomSchedulerIsSeedDeterministic) {
  BenOrAsyncFactory factory;
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.seed = 4;
  RandomScheduler s1(9), s2(9), s3(10);
  const auto a = run_async(factory, bits({1, 0, 1, 0, 1}), s1, opts);
  const auto b = run_async(factory, bits({1, 0, 1, 0, 1}), s2, opts);
  const auto c = run_async(factory, bits({1, 0, 1, 0, 1}), s3, opts);
  EXPECT_EQ(a.steps, b.steps);
  // A different scheduler seed almost surely changes the trajectory; allow
  // outcome equality but require SOME observable difference.
  EXPECT_TRUE(a.steps != c.steps || a.coin_flips != c.coin_flips ||
              a.max_round != c.max_round);
}

TEST(SchedulerTest, LaggardPrefersNonLaggardTraffic) {
  // With 2 laggards out of 6, the first deliveries all come from the
  // non-lagging majority; verify via a one-step inspection harness.
  std::vector<AsyncMessage> pending;
  for (ProcessId from = 0; from < 6; ++from)
    pending.push_back({from, 5, 0});
  std::vector<AsyncProcessView> views(6);
  std::vector<bool> crashed(6, false);
  AsyncWorld world(pending, views, crashed, 0, 0);

  LaggardScheduler sched(1);
  sched.begin(6, 2);  // processes 0 and 1 lag
  const auto action = sched.step(world);
  ASSERT_EQ(action.kind, AsyncAction::Kind::Deliver);
  EXPECT_GE(pending[action.index].from, 2u);
}

/// LaggardScheduler's original step, which rescans pending() from index 0
/// every call: the reference the resumable scan must match decision for
/// decision, consuming the RNG identically.
class FullScanLaggard final : public AsyncScheduler {
 public:
  explicit FullScanLaggard(std::uint64_t seed) : rng_(seed) {}
  void begin(std::uint32_t n, std::uint32_t t) override {
    lagging_.assign(n, false);
    for (std::uint32_t i = 0; i < n && i < t; ++i) lagging_[i] = true;
  }
  AsyncAction step(const AsyncWorld& world) override {
    const auto pending = world.pending();
    if (world.crash_budget() > 0 && rng_.uniform() < 0.02) {
      ProcessId victim = world.n();
      std::uint32_t best_round = 0;
      for (ProcessId i = 0; i < world.n(); ++i) {
        if (world.crashed(i)) continue;
        const auto v = world.view(i);
        if (!v.decided && v.round >= best_round) {
          best_round = v.round;
          victim = i;
        }
      }
      if (victim < world.n()) {
        AsyncAction act;
        act.kind = AsyncAction::Kind::Crash;
        act.victim = victim;
        for (std::size_t i = 0; i < pending.size(); ++i)
          if (pending[i].from == victim) act.drop.push_back(i);
        return act;
      }
    }
    for (std::size_t i = 0; i < pending.size(); ++i)
      if (!lagging_[pending[i].from])
        return {AsyncAction::Kind::Deliver, i, 0, {}};
    return {AsyncAction::Kind::Deliver, 0, 0, {}};
  }
  const char* name() const override { return "laggard-full-scan"; }

 private:
  Xoshiro256 rng_;
  std::vector<bool> lagging_;
};

/// A run's outcome: every AsyncRunResult field, or the error it threw.
std::string outcome(const AsyncProcessFactory& factory,
                    const std::vector<Bit>& inputs, AsyncScheduler& sched,
                    const AsyncEngineOptions& opts) {
  std::ostringstream os;
  try {
    const AsyncRunResult r = run_async(factory, inputs, sched, opts);
    os << r.terminated << ' ' << r.decided_live << ' ' << r.agreement << ' '
       << r.validity << ' ' << to_int(r.decision) << ' ' << r.steps << ' '
       << r.faults.delivered << ' ' << r.max_round << ' ' << r.coin_flips
       << ' ' << r.faults.crashes << ' ' << r.faults.omissions << ' '
       << r.faults.omitted << ' ' << r.timers_fired << ' ' << r.end_time << ' '
       << r.decision_time;
  } catch (const std::exception& e) {
    os << "threw: " << e.what();
  }
  return os.str();
}

/// Holds even senders' messages for the scheduler (deadline 4 ticks out)
/// and times odd senders' at 2 ticks: the held pool drains and refills as
/// time advances, so events and faults interleave with scheduler steps.
class AlternatingDelay final : public DelayModel {
 public:
  LinkDelay classify(const AsyncMessage& msg, SimTime now) override {
    if (msg.from % 2 == 0) return LinkDelay{0, true, now + 4};
    return LinkDelay{now + 2, false, kNever};
  }
  const char* name() const override { return "alternating"; }
};

TEST(AsyncSchedulerTest, LaggardMatchesFullScanReference) {
  // The resumable scan must pick exactly the index the full scan picks, in
  // every regime that touches the held pool: swap-remove deliveries,
  // scheduler-crash compaction, held traffic with GST deadlines inside and
  // beyond the event list's bucket window, timed traffic, and timetable
  // crashes and omissions (with retransmission) that run while the pool is
  // empty. 7 configs x 20 seeds x 2 runs; each scheduler is reused for its
  // second run, so begin() must reset the scan.
  using MakeDelay = std::function<std::unique_ptr<DelayModel>()>;
  const MakeDelay held = [] { return std::unique_ptr<DelayModel>(); };
  const auto gst = [](SimTime g, SimTime b) -> MakeDelay {
    return [g, b] { return std::make_unique<GstDelay>(g, b); };
  };
  const MakeDelay fixed = [] { return std::make_unique<FixedDelay>(3); };
  const MakeDelay alternating = [] {
    return std::make_unique<AlternatingDelay>();
  };
  struct Case {
    const char* name;
    std::uint32_t n;
    std::uint32_t t;
    MakeDelay delay;
    std::uint64_t retransmit;
    bool timetable;
  };
  const Case cases[] = {
      {"held", 9, 2, held, 0, false},
      {"held-crashes", 16, 7, held, 0, false},
      {"gst-inside", 9, 4, gst(7, 3), 0, false},
      {"gst-beyond", 8, 3, gst(100, 70), 0, false},
      {"fixed", 7, 3, fixed, 0, false},
      {"alternating", 9, 4, alternating, 0, false},
      {"timetable", 11, 5, alternating, 5, true},
  };
  for (const Case& c : cases) {
    AsyncFaultTimetable faults;
    faults.crashes.push_back({6, c.n - 1});
    faults.omissions.push_back({9, 3, 5});
    const BenOrAsyncFactory factory(BenOrOptions{c.retransmit});
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      std::vector<Bit> inputs(c.n);
      Xoshiro256 rng(seed * 7919);
      for (auto& b : inputs) b = rng.flip() ? Bit::One : Bit::Zero;
      LaggardScheduler fast(seed);
      FullScanLaggard slow(seed);
      for (int again = 0; again < 2; ++again) {
        const std::unique_ptr<DelayModel> delay = c.delay();
        AsyncEngineOptions opts;
        opts.t_budget = c.t;
        opts.seed = seed + 1000 * again;
        opts.delay = delay.get();
        if (c.timetable) {
          opts.faults = &faults;
          opts.omission_budget = 1;
        }
        const std::string want = outcome(factory, inputs, slow, opts);
        EXPECT_EQ(outcome(factory, inputs, fast, opts), want);
      }
    }
  }
}

TEST(BenOrAsyncTest, StaleMessagesAreIgnoredSafely) {
  // Feed a process an ancient round's report after it advanced: state must
  // not regress (exercised by delivering out of order via LIFO).
  class LifoScheduler final : public AsyncScheduler {
   public:
    AsyncAction step(const AsyncWorld& world) override {
      return {AsyncAction::Kind::Deliver, world.pending().size() - 1, 0, {}};
    }
    const char* name() const override { return "lifo"; }
  } lifo;

  BenOrAsyncFactory factory;
  AsyncEngineOptions opts;
  opts.t_budget = 2;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    opts.seed = seed;
    const auto res =
        run_async(factory, bits({0, 1, 1, 0, 1, 0, 1}), lifo, opts);
    ASSERT_TRUE(res.terminated) << seed;
    EXPECT_TRUE(res.agreement) << seed;
  }
}

TEST(BenOrAsyncTest, MinimalSystemsAcrossT) {
  BenOrAsyncFactory factory;
  for (std::uint32_t n : {1u, 2u, 3u, 5u}) {
    const std::uint32_t t = n >= 3 ? (n - 1) / 2 : 0;
    std::vector<Bit> inputs;
    for (std::uint32_t i = 0; i < n; ++i)
      inputs.push_back(i % 2 ? Bit::One : Bit::Zero);
    RandomScheduler sched(n);
    AsyncEngineOptions opts;
    opts.t_budget = t;
    opts.seed = n;
    const auto res = run_async(factory, inputs, sched, opts);
    ASSERT_TRUE(res.terminated) << "n=" << n;
    EXPECT_TRUE(res.agreement) << "n=" << n;
  }
}

}  // namespace
}  // namespace synran
