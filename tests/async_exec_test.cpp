// Tests for the async batch executor and the event-driven engine's fault
// machinery: serial/parallel metrics equivalence (the async mirror of the
// ExecEquivalence suite), byte-identical observer streams at any thread
// count, retries, stop handling and argument checks through the executor,
// structured scheduler-violation errors, fault-timetable injection,
// partial synchrony, retransmission recovery, workspace reuse (runs on one
// AsyncWorkspace, also after a run that threw, equal runs on fresh ones, and
// the workspace a thread keeps across its batches),
// and golden-pinned decision stats for the fixed-delay, adversary-held,
// laggard-with-crashes and beyond-window GST configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "async/benor.hpp"
#include "async/core.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/async_executor.hpp"
#include "exec/stopper.hpp"
#include "obs/trace_binary.hpp"
#include "obs/trace_writer.hpp"
#include "runner/experiment.hpp"

namespace synran {
namespace {

std::vector<Bit> bits(std::initializer_list<int> xs) {
  std::vector<Bit> out;
  for (int x : xs) out.push_back(x ? Bit::One : Bit::Zero);
  return out;
}

struct DelayCase {
  const char* name;
  AsyncDelayFactory make;
};

struct SchedulerCase {
  const char* name;
  AsyncSchedulerFactory make;
};

AsyncRepeatSpec base_spec(std::uint64_t seed, unsigned threads) {
  AsyncRepeatSpec spec;
  spec.n = 8;
  spec.pattern = InputPattern::Random;
  spec.reps = 12;
  spec.seed = seed;
  spec.threads = threads;
  spec.engine.t_budget = 2;
  spec.engine.max_steps = 200000;
  return spec;
}

// ------------------------------------------------- serial <-> parallel

TEST(AsyncExecEquivalence, MetricsIdenticalAcrossThreadCounts) {
  // The full matrix: every (scheduler, delay) family must produce
  // bit-identical aggregate JSON at 1, 2, and 8 workers.
  const std::vector<SchedulerCase> schedulers = {
      {"random", random_scheduler_factory()},
      {"laggard", laggard_scheduler_factory()},
      {"stall", stall_scheduler_factory()},
  };
  const std::vector<DelayCase> delays = {
      {"held", held_delay_factory()},
      {"fixed", fixed_delay_factory(3)},
      {"uniform", uniform_delay_factory(1, 5)},
      {"gst", gst_delay_factory(20, 4)},
  };
  const BenOrAsyncFactory factory;
  for (const auto& sched : schedulers) {
    for (const auto& delay : delays) {
      // Pure asynchrony starves under stall — skip the one config whose
      // runs would just burn the step cap without deciding.
      if (std::string(sched.name) == "stall" &&
          std::string(delay.name) == "held") {
        continue;
      }
      std::string serial;
      for (unsigned threads : {1u, 2u, 8u}) {
        AsyncRepeatSpec spec = base_spec(99, threads);
        const AsyncRunStats stats =
            run_repeated_async(factory, sched.make, delay.make, spec);
        const std::string dump = stats.metrics().to_json().dump();
        if (threads == 1) {
          serial = dump;
          EXPECT_EQ(stats.reps(), spec.reps);
        } else {
          EXPECT_EQ(dump, serial)
              << sched.name << "/" << delay.name << " diverged at threads="
              << threads;
        }
      }
    }
  }
}

TEST(AsyncExecEquivalence, ObserverStreamByteIdenticalAcrossThreads) {
  // Traces written through the observer must match the serial run byte for
  // byte at any thread count (buffered + rep-order replay).
  const BenOrAsyncFactory factory;
  std::string serial;
  for (unsigned threads : {1u, 2u, 8u}) {
    std::ostringstream out;
    obs::JsonlTraceWriter writer(out);
    AsyncRepeatSpec spec = base_spec(7, threads);
    spec.engine.observer = &writer;
    run_repeated_async(factory, random_scheduler_factory(),
                       gst_delay_factory(30, 5), spec);
    if (threads == 1) {
      serial = out.str();
      EXPECT_FALSE(serial.empty());
      EXPECT_NE(serial.find("run_begin"), std::string::npos);
      EXPECT_NE(serial.find("run_end"), std::string::npos);
    } else {
      EXPECT_EQ(out.str(), serial) << "trace diverged at threads=" << threads;
    }
  }
}

TEST(AsyncExecEquivalence, DelayStreamDecoupledFromCoinStream) {
  // Same master seed, different delay models: the coin/scheduler streams
  // are untouched, so switching the delay family must not perturb how
  // inputs are drawn — reps count and safety hold either way.
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(1234, 1);
  const AsyncRunStats a = run_repeated_async(
      factory, random_scheduler_factory(), fixed_delay_factory(1), spec);
  const AsyncRunStats b = run_repeated_async(
      factory, random_scheduler_factory(), uniform_delay_factory(1, 9), spec);
  EXPECT_TRUE(a.all_safe());
  EXPECT_TRUE(b.all_safe());
  EXPECT_EQ(a.reps(), b.reps());
}

// ------------------------------------------------- failure domains

/// Always returns an out-of-range deliver index: every rep fails.
class BrokenScheduler final : public AsyncScheduler {
 public:
  AsyncAction step(const AsyncWorld& world) override {
    return {AsyncAction::Kind::Deliver, world.pending().size() + 7, 0, {}};
  }
  const char* name() const override { return "broken"; }
};

TEST(AsyncExecFailures, FailFastThrowsEarliestRep) {
  const BenOrAsyncFactory factory;
  const AsyncSchedulerFactory broken = [](std::uint64_t) {
    return std::make_unique<BrokenScheduler>();
  };
  for (unsigned threads : {1u, 4u}) {
    AsyncRepeatSpec spec = base_spec(5, threads);
    try {
      run_repeated_async(factory, broken, held_delay_factory(), spec);
      FAIL() << "expected RepError";
    } catch (const RepError& e) {
      EXPECT_EQ(e.rep(), 0u) << "earliest failing rep not selected";
      EXPECT_EQ(e.seed(), engine_seed_for_rep(spec.seed, 0));
    }
  }
}

/// Deterministic busy work that keeps one worker occupied for a while;
/// tests may read no clock and start no thread, so they cannot sleep.
std::uint64_t busy_work(std::uint64_t steps) {
  Xoshiro256 rng(steps);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < steps; ++i) acc ^= rng.next();
  return acc;
}

TEST(AsyncExecFailures, LaterFailureNeverSkipsAnEarlierRep) {
  // Two workers: worker 0 runs reps 0, 2, 4, worker 1 runs 1, 3, 5. Rep 0
  // is slow and rep 3 fails at once, so worker 1's failure usually lands
  // while rep 2 still waits behind rep 0. Fail-fast may skip only reps
  // after the earliest failure, so rep 2 still runs and is reported.
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(77, 2);
  spec.reps = 6;
  const std::uint64_t slow = adversary_seed_for_rep(spec.seed, 0);
  const std::uint64_t bad2 = adversary_seed_for_rep(spec.seed, 2);
  const std::uint64_t bad3 = adversary_seed_for_rep(spec.seed, 3);
  const AsyncSchedulerFactory random = random_scheduler_factory();
  const AsyncSchedulerFactory faulty =
      [&](std::uint64_t seed) -> std::unique_ptr<AsyncScheduler> {
    if (seed == slow && busy_work(std::uint64_t{1} << 25) == 0)
      throw std::runtime_error("busy work degenerated");
    if (seed == bad2 || seed == bad3)
      return std::make_unique<BrokenScheduler>();
    return random(seed);
  };
  try {
    run_repeated_async(factory, faulty, held_delay_factory(), spec);
    FAIL() << "expected the rep-2 failure";
  } catch (const RepError& e) {
    EXPECT_EQ(e.rep(), 2u) << e.what();
    EXPECT_EQ(e.seed(), engine_seed_for_rep(spec.seed, 2));
  }
}

TEST(AsyncExecFailures, QuarantineKeepsGoing) {
  const BenOrAsyncFactory factory;
  const AsyncSchedulerFactory broken = [](std::uint64_t) {
    return std::make_unique<BrokenScheduler>();
  };
  AsyncRepeatSpec spec = base_spec(5, 2);
  spec.policy = FailurePolicy::Quarantine;
  const AsyncRunStats stats =
      run_repeated_async(factory, broken, held_delay_factory(), spec);
  EXPECT_EQ(stats.reps_quarantined(), spec.reps);
  EXPECT_EQ(stats.reps(), 0u);
  ASSERT_EQ(stats.failures().size(), spec.reps);
  for (std::size_t i = 0; i < stats.failures().size(); ++i) {
    EXPECT_EQ(stats.failures()[i].rep, i);  // rep-order fold
  }
}

// --------------------------------------- retries, stop and arguments

TEST(AsyncExecQuarantine, RetryReRunsTheIdenticalSeedAndCanSucceed) {
  // Rep 2's scheduler factory throws once, then succeeds: with one retry
  // allowed the batch converges to the clean result bit for bit, because
  // the retry re-derives the same per-rep streams from (master seed, rep).
  const BenOrAsyncFactory factory;
  const AsyncSchedulerFactory random = random_scheduler_factory();
  for (unsigned threads : {1u, 4u}) {
    AsyncRepeatSpec spec = base_spec(808, threads);
    spec.max_rep_retries = 1;
    const std::string clean =
        run_repeated_async(factory, random, fixed_delay_factory(2), spec)
            .metrics()
            .to_json()
            .dump();
    // Only the worker running rep 2 ever touches `throws_left`.
    const std::uint64_t bad = adversary_seed_for_rep(spec.seed, 2);
    int throws_left = 1;
    const AsyncSchedulerFactory flaky =
        [&](std::uint64_t seed) -> std::unique_ptr<AsyncScheduler> {
      if (seed == bad && throws_left > 0) {
        --throws_left;
        throw std::runtime_error("injected fault");
      }
      return random(seed);
    };
    const AsyncRunStats stats =
        run_repeated_async(factory, flaky, fixed_delay_factory(2), spec);
    EXPECT_EQ(throws_left, 0) << threads << " threads";
    EXPECT_EQ(stats.reps_quarantined(), 0u) << threads << " threads";
    EXPECT_EQ(stats.metrics().to_json().dump(), clean)
        << threads << " threads";
  }
}

/// Clears the process-wide stop flag on entry and exit so a failing test
/// cannot leak a pending stop into later tests.
struct StopFlagGuard {
  StopFlagGuard() { exec::clear_stop(); }
  ~StopFlagGuard() { exec::clear_stop(); }
};

TEST(AsyncExecStop, PendingStopInterruptsBatch) {
  StopFlagGuard guard;
  const BenOrAsyncFactory factory;
  for (unsigned threads : {1u, 4u}) {
    exec::request_stop();
    const AsyncRepeatSpec spec = base_spec(78, threads);
    try {
      run_repeated_async(factory, random_scheduler_factory(),
                         held_delay_factory(), spec);
      ADD_FAILURE() << "expected exec::Interrupted at " << threads
                    << " threads";
    } catch (const exec::Interrupted& e) {
      // Every worker checks the flag before its first rep.
      EXPECT_NE(std::string(e.what()).find("after 0 of 12"),
                std::string::npos)
          << e.what();
    }
  }
  exec::clear_stop();
  EXPECT_EQ(run_repeated_async(factory, random_scheduler_factory(),
                               held_delay_factory(), base_spec(78, 4))
                .reps(),
            12u);
}

TEST(AsyncExecErrors, RejectsZeroReps) {
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(1, 1);
  spec.reps = 0;
  EXPECT_THROW(exec::AsyncBatchExecutor().run(factory,
                                              random_scheduler_factory(),
                                              held_delay_factory(), spec),
               ArgumentError);
}

TEST(AsyncExecErrors, RejectsARetryBudgetWhoseAttemptsOverflow) {
  // max_rep_retries + 1 attempts must fit in 32 bits; at 2^32 - 1 retries
  // the count would wrap to 0 and quarantine every rep unrun.
  const BenOrAsyncFactory factory;
  int built = 0;
  const AsyncSchedulerFactory counting = [&built](std::uint64_t) {
    ++built;
    return std::make_unique<FifoScheduler>();
  };
  for (unsigned threads : {1u, 4u}) {
    AsyncRepeatSpec spec = base_spec(3, threads);
    spec.policy = FailurePolicy::Quarantine;
    spec.max_rep_retries = std::numeric_limits<std::uint32_t>::max();
    EXPECT_THROW(exec::AsyncBatchExecutor().run(factory, counting,
                                                held_delay_factory(), spec),
                 ArgumentError);
  }
  EXPECT_EQ(built, 0);  // rejected before any rep ran
}

// --------------------------------------------- scheduler drop validation

/// Crashes process 0 with a caller-chosen drop list, then delivers head.
class CrashWithDrops final : public AsyncScheduler {
 public:
  explicit CrashWithDrops(std::vector<std::size_t> drop)
      : drop_(std::move(drop)) {}
  AsyncAction step(const AsyncWorld& world) override {
    if (!world.crashed(0)) {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Crash;
      a.victim = 0;
      a.drop = drop_;
      return a;
    }
    return {AsyncAction::Kind::Deliver, 0, 0, {}};
  }
  const char* name() const override { return "crash-with-drops"; }

 private:
  std::vector<std::size_t> drop_;
};

TEST(AsyncSchedulerViolation, DuplicateDropIndexIsRejected) {
  const BenOrAsyncFactory factory;
  CrashWithDrops sched({0, 0});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  try {
    run_async(factory, bits({0, 1, 0}), sched, opts);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate drop index"),
              std::string::npos)
        << e.what();
  }
}

TEST(AsyncSchedulerViolation, OutOfRangeDropIndexIsRejected) {
  const BenOrAsyncFactory factory;
  CrashWithDrops sched({999});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  try {
    run_async(factory, bits({0, 1, 0}), sched, opts);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

TEST(AsyncSchedulerViolation, DropOfLiveSendersMessageIsRejected) {
  // The start pumps pool messages in send order: indices 0..2 are process
  // 0's broadcast, 3..5 process 1's. Index 3 is live traffic, not the
  // victim's, so dropping it must be refused.
  const BenOrAsyncFactory factory;
  CrashWithDrops sched({3});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  try {
    run_async(factory, bits({0, 1, 0}), sched, opts);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("not crash victim"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------- fault timetable

TEST(AsyncEngineFaults, TimetableCrashComposesWithTimedDelays) {
  const BenOrAsyncFactory factory;
  FifoScheduler sched;  // never consulted: everything is timed
  FixedDelay delay(5);
  AsyncFaultTimetable faults;
  faults.crashes.push_back({12, 0});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.delay = &delay;
  opts.faults = &faults;
  const AsyncRunResult res =
      run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts);
  EXPECT_EQ(res.faults.crashes, 1u);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_GT(res.end_time, 12u);
}

TEST(AsyncEngineFaults, TimetableCrashPastBudgetThrows) {
  const BenOrAsyncFactory factory;
  FifoScheduler sched;
  FixedDelay delay(5);
  AsyncFaultTimetable faults;
  faults.crashes.push_back({5, 0});
  faults.crashes.push_back({6, 1});
  AsyncEngineOptions opts;
  opts.t_budget = 1;  // second injection exceeds the budget
  opts.delay = &delay;
  opts.faults = &faults;
  EXPECT_THROW(run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts),
               InvariantError);
}

TEST(AsyncEngineFaults, OmissionInjectionSpendsBudgetAndDropsMessages) {
  const BenOrAsyncFactory factory;
  FifoScheduler sched;
  FixedDelay delay(5);
  AsyncFaultTimetable faults;
  faults.omissions.push_back({2, 0, 3});
  AsyncEngineOptions opts;
  opts.t_budget = 0;
  opts.omission_budget = 1;
  opts.delay = &delay;
  opts.faults = &faults;
  BenOrOptions retransmit;
  retransmit.retransmit_every = 20;  // keeps the run live despite the drops
  const AsyncRunResult res = run_async(BenOrAsyncFactory(retransmit),
                                       bits({0, 1, 1, 0, 1}), sched, opts);
  EXPECT_EQ(res.faults.omissions, 1u);
  EXPECT_EQ(res.faults.omitted, 3u);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);

  opts.omission_budget = 0;  // same injection, no budget: must throw
  EXPECT_THROW(run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts),
               InvariantError);
}

// ------------------------------------------------- partial synchrony

TEST(AsyncPartialSynchrony, StallSchedulerStarvesPureAsynchrony) {
  const BenOrAsyncFactory factory;
  StallScheduler sched;
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  const AsyncRunResult res = run_async(factory, bits({0, 1, 0}), sched, opts);
  EXPECT_FALSE(res.terminated);
  EXPECT_EQ(res.steps, 0u);  // nothing was ever delivered
}

TEST(AsyncPartialSynchrony, GstDeadlinesForceDecisionAfterGst) {
  const BenOrAsyncFactory factory;
  StallScheduler sched;  // extremal adversary: only deadlines deliver
  GstDelay delay(100, 7);
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.delay = &delay;
  const AsyncRunResult res =
      run_async(factory, bits({0, 1, 1, 0, 1}), sched, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_GE(res.decision_time, delay.gst());
  EXPECT_EQ(res.steps, res.faults.delivered);
}

TEST(AsyncPartialSynchrony, RetransmissionRecoversOmittedQuorum) {
  // Drop both round-1 report broadcasts of processes 0 and 1 entirely: no
  // process can reach its n-t = 3 quorum, so the message-driven protocol
  // starves. The retransmission timer is exactly what restores liveness.
  const auto inputs = bits({0, 1, 1, 0});
  FifoScheduler sched;
  AsyncFaultTimetable faults;
  faults.omissions.push_back({1, 0, 4});
  faults.omissions.push_back({1, 1, 4});
  AsyncEngineOptions opts;
  opts.t_budget = 1;
  opts.omission_budget = 2;
  opts.faults = &faults;
  FixedDelay delay(1);
  opts.delay = &delay;
  opts.max_steps = 5000;

  const AsyncRunResult bare =
      run_async(BenOrAsyncFactory(), inputs, sched, opts);
  EXPECT_FALSE(bare.terminated) << "expected starvation without retransmit";

  BenOrOptions retransmit;
  retransmit.retransmit_every = 10;
  const AsyncRunResult recovered =
      run_async(BenOrAsyncFactory(retransmit), inputs, sched, opts);
  EXPECT_TRUE(recovered.terminated);
  EXPECT_TRUE(recovered.agreement);
  EXPECT_GT(recovered.timers_fired, 0u);
}

// ------------------------------------------------- reused workspace

/// Every AsyncRunResult field, printed: equal strings, equal results.
std::string result_fields(const AsyncRunResult& r) {
  std::ostringstream os;
  os << r.terminated << ' ' << r.decided_live << ' ' << r.agreement << ' '
     << r.validity << ' ' << to_int(r.decision) << ' ' << r.steps << ' '
     << r.max_round << ' ' << r.coin_flips << ' ' << r.faults.crashes << ' '
     << r.faults.delivered << ' ' << r.faults.omissions << ' '
     << r.faults.omitted << ' ' << r.faults.corruptions << ' '
     << r.faults.corrupted << ' ' << r.timers_fired << ' ' << r.end_time
     << ' ' << r.decision_time;
  return os.str();
}

/// One engine configuration. The scheduler and the delay model are built
/// anew for every run, so two runs of a case start from the same state.
struct WorkspaceCase {
  const char* name;
  std::uint32_t n;
  std::uint32_t t;
  std::function<std::unique_ptr<AsyncScheduler>(std::uint64_t)> scheduler;
  AsyncDelayFactory delay;  ///< nullptr per run = adversary-held
  std::uint64_t retransmit;
  bool timetable;  ///< a crash at t = 6 and omission bursts at t = 9, 30
  bool observed;   ///< trace the run through a JSONL writer
};

struct WorkspaceOutcome {
  std::string result;
  std::string trace;
};

/// Runs `c` at `seed` on `workspace`, or on a fresh one when it is null.
WorkspaceOutcome run_case(const WorkspaceCase& c, std::uint64_t seed,
                          AsyncWorkspace* workspace) {
  const BenOrAsyncFactory factory(BenOrOptions{c.retransmit});
  std::vector<Bit> inputs(c.n);
  Xoshiro256 rng(seed * 104729);
  for (auto& b : inputs) b = rng.flip() ? Bit::One : Bit::Zero;
  const std::unique_ptr<AsyncScheduler> sched = c.scheduler(seed);
  const std::unique_ptr<DelayModel> delay = c.delay(seed);
  AsyncFaultTimetable faults;
  faults.crashes.push_back({6, c.n - 1});
  faults.omissions.push_back({9, 1, 5});
  faults.omissions.push_back({30, 2, 3});
  AsyncEngineOptions opts;
  opts.t_budget = c.t;
  opts.seed = seed;
  opts.delay = delay.get();
  if (c.timetable) {
    opts.faults = &faults;
    opts.omission_budget = 2;
  }
  std::ostringstream trace;
  obs::JsonlTraceWriter writer(trace);
  if (c.observed) opts.observer = &writer;
  const AsyncRunResult r =
      workspace != nullptr
          ? run_async(factory, inputs, *sched, opts, *workspace)
          : run_async(factory, inputs, *sched, opts);
  return {result_fields(r), trace.str()};
}

std::vector<WorkspaceCase> workspace_cases() {
  const auto fifo = [](std::uint64_t) {
    return std::make_unique<FifoScheduler>();
  };
  const auto random = [](std::uint64_t s) {
    return std::make_unique<RandomScheduler>(s);
  };
  const auto laggard = [](std::uint64_t s) {
    return std::make_unique<LaggardScheduler>(s);
  };
  const auto stall = [](std::uint64_t) {
    return std::make_unique<StallScheduler>();
  };
  // n moves up and down between consecutive cases, so the workspace's
  // buffers both grow and shrink in place.
  return {
      {"held-laggard", 16, 7, laggard, held_delay_factory(), 0, false, true},
      {"fixed-timetable", 9, 3, fifo, fixed_delay_factory(5), 0, true, false},
      {"uniform-timetable-retransmit", 24, 5, random,
       uniform_delay_factory(1, 10), 16, true, true},
      {"gst-stall-retransmit", 7, 2, stall, gst_delay_factory(50, 8), 16,
       false, true},
      {"gst-beyond-window-timetable", 12, 3, random,
       gst_delay_factory(200, 8), 16, true, false},
      {"held-random", 33, 10, random, held_delay_factory(), 0, false, false},
      {"uniform-laggard", 5, 2, laggard, uniform_delay_factory(1, 10), 0,
       false, true},
  };
}

TEST(AsyncExecWorkspace, ReusedWorkspaceMatchesFreshRuns) {
  // One workspace runs every case, for several seeds, in turn: each run
  // must give the result and the trace bytes a fresh run_async gives.
  AsyncWorkspace workspace;
  const std::vector<WorkspaceCase> cases = workspace_cases();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const WorkspaceCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      const WorkspaceOutcome fresh = run_case(c, seed, nullptr);
      const WorkspaceOutcome reused = run_case(c, seed, &workspace);
      EXPECT_EQ(reused.result, fresh.result);
      EXPECT_EQ(reused.trace, fresh.trace);
      EXPECT_EQ(c.observed, !fresh.trace.empty());
    }
  }
}

/// Delivers pending()[0] for `steps` deliveries, then crashes that
/// message's sender listing index 0 twice, which the engine rejects.
class DuplicateDropAfter final : public AsyncScheduler {
 public:
  explicit DuplicateDropAfter(std::uint64_t steps) : steps_(steps) {}
  AsyncAction step(const AsyncWorld& world) override {
    if (world.step() < steps_) return {AsyncAction::Kind::Deliver, 0, 0, {}};
    AsyncAction a;
    a.kind = AsyncAction::Kind::Crash;
    a.victim = world.pending()[0].from;
    a.drop = {0, 0};
    return a;
  }
  const char* name() const override { return "duplicate-drop-after"; }

 private:
  std::uint64_t steps_;
};

TEST(AsyncExecWorkspace, RunAfterAThrowMatchesAFreshWorkspace) {
  // The throwing run stops with held messages in the pool, deadline
  // releases queued and timetable Triggers armed for later instants, all
  // pointing at a core that no longer exists. The next run on the same
  // workspace must not see any of it.
  const BenOrAsyncFactory factory(BenOrOptions{16});
  const std::vector<WorkspaceCase> cases = workspace_cases();
  AsyncWorkspace workspace;
  for (std::uint32_t n : {16u, 9u}) {
    for (const WorkspaceCase& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " after a throw at n " +
                   std::to_string(n));
      std::vector<Bit> inputs(n);
      for (std::uint32_t i = 0; i < n; ++i)
        inputs[i] = i % 2 == 0 ? Bit::One : Bit::Zero;
      DuplicateDropAfter sched(40);
      GstDelay delay(50, 8);
      AsyncFaultTimetable faults;
      faults.crashes.push_back({1000, n - 1});
      faults.omissions.push_back({900, 1, 4});
      AsyncEngineOptions opts;
      opts.t_budget = 3;
      opts.delay = &delay;
      opts.faults = &faults;
      opts.omission_budget = 1;
      std::ostringstream trace;
      obs::JsonlTraceWriter writer(trace);
      opts.observer = &writer;
      try {
        run_async(factory, inputs, sched, opts, workspace);
        FAIL() << "expected InvariantError";
      } catch (const InvariantError& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate drop index"),
                  std::string::npos)
            << e.what();
      }
      const WorkspaceOutcome fresh = run_case(c, 3, nullptr);
      const WorkspaceOutcome reused = run_case(c, 3, &workspace);
      EXPECT_EQ(reused.result, fresh.result);
      EXPECT_EQ(reused.trace, fresh.trace);
    }
  }
}

// ---------------------------------------- kept across batches

/// One batch of the kept-workspace sequence: perfbench's three async
/// regimes at two sizes, traced or not, and one fail-fast batch whose
/// rep 2 throws mid-run.
struct KeptAsyncBatch {
  std::string label;
  const AsyncProcessFactory* protocol;
  AsyncSchedulerFactory schedulers;
  AsyncDelayFactory delays;
  AsyncRepeatSpec spec;
  bool traced = false;
};

std::pair<std::string, std::string> run_kept(const KeptAsyncBatch& batch,
                                             unsigned threads) {
  AsyncRepeatSpec spec = batch.spec;
  spec.threads = threads;
  std::ostringstream trace;
  std::optional<obs::BinaryTraceWriter> writer;
  if (batch.traced) spec.engine.observer = &writer.emplace(trace);
  std::string stats;
  try {
    stats = run_repeated_async(*batch.protocol, batch.schedulers,
                               batch.delays, spec)
                .checkpoint_json()
                .dump();
  } catch (const RepError& e) {
    stats = std::string("RepError: ") + e.what();
  }
  if (writer) writer->close();
  return {stats, trace.str()};
}

TEST(AsyncExecKeptWorkspace, BatchesOnOneThreadMatchFreshWorkersAndReruns) {
  const BenOrAsyncFactory plain;
  const BenOrAsyncFactory retransmit(BenOrOptions{16});
  const auto spec = [](std::uint32_t n, std::uint32_t t, std::uint64_t seed) {
    AsyncRepeatSpec s;
    s.n = n;
    s.pattern = InputPattern::Half;
    s.reps = 3;
    s.seed = seed;
    s.engine.t_budget = t;
    return s;
  };
  const std::uint64_t bad = adversary_seed_for_rep(55, 2);
  const AsyncSchedulerFactory throws_at_rep_2 =
      [bad](std::uint64_t seed) -> std::unique_ptr<AsyncScheduler> {
    if (seed == bad) return std::make_unique<DuplicateDropAfter>(40);
    return random_scheduler_factory()(seed);
  };
  const std::vector<KeptAsyncBatch> sequence = {
      {"laggard/held n64", &plain, laggard_scheduler_factory(),
       held_delay_factory(), spec(64, 8, 51), true},
      {"random/uniform n9", &plain, random_scheduler_factory(),
       uniform_delay_factory(1, 10), spec(9, 2, 52), false},
      {"stall/gst/retransmit n64", &retransmit, stall_scheduler_factory(),
       gst_delay_factory(50, 8), spec(64, 8, 53), true},
      {"random/gst throws at rep 2 n16", &retransmit, throws_at_rep_2,
       gst_delay_factory(50, 8), spec(16, 3, 55), false},
      {"random/uniform n64", &plain, random_scheduler_factory(),
       uniform_delay_factory(1, 10), spec(64, 8, 54), true},
      {"laggard/held n9", &plain, laggard_scheduler_factory(),
       held_delay_factory(), spec(9, 2, 56), false},
  };
  std::vector<std::pair<std::string, std::string>> first;
  for (const KeptAsyncBatch& batch : sequence) {
    first.push_back(run_kept(batch, 1));
    EXPECT_EQ(first.back(), run_kept(batch, 3)) << batch.label;
  }
  EXPECT_NE(first[3].first.find("RepError: "), std::string::npos)
      << first[3].first;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(run_kept(sequence[i], 1), first[i]) << sequence[i].label;
  }
}

// ------------------------------------------------- golden pins

TEST(AsyncGolden, FixedDelayBenOrPinned) {
  // The event-driven analog of the old step engine's lockstep-ish runs:
  // fixed unit delay, FIFO event order, no faults. Pinned so accidental
  // changes to event ordering, codec, or coin streams surface loudly.
  // (First pin of this config — the old engine had no timed mode, so there
  // is no prior golden to carry over; values recorded from the initial
  // event-core implementation.)
  const BenOrAsyncFactory factory;
  FifoScheduler sched;
  FixedDelay delay(1);
  AsyncEngineOptions opts;
  opts.t_budget = 2;
  opts.seed = 42;
  opts.delay = &delay;
  const AsyncRunResult res =
      run_async(factory, bits({0, 1, 0, 1, 0, 1, 0, 1}), sched, opts);
  EXPECT_TRUE(res.terminated);
  EXPECT_TRUE(res.agreement);
  EXPECT_EQ(res.steps, res.faults.delivered);
  // Golden values (seed 42, n=8, t=2, alternating inputs):
  EXPECT_EQ(res.max_round, 3u);
  EXPECT_EQ(res.faults.delivered, 240u);
  EXPECT_EQ(res.coin_flips, 8u);
  EXPECT_EQ(res.end_time, 4u);
  EXPECT_EQ(to_int(res.decision), 1);
}

TEST(AsyncGolden, AdversaryHeldBatchPinned) {
  // The compat configuration: no delay model, random scheduler — the exact
  // semantics of the retired step engine. Pinned at the batch level.
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(2024, 1);
  const AsyncRunStats stats = run_repeated_async(
      factory, random_scheduler_factory(), held_delay_factory(), spec);
  EXPECT_TRUE(stats.all_safe());
  EXPECT_EQ(stats.reps(), 12u);
  EXPECT_EQ(stats.decided_one(), 4u);
  EXPECT_DOUBLE_EQ(stats.messages_delivered().mean(), 308.16666666666669);
  EXPECT_DOUBLE_EQ(stats.coin_flips().mean(), 7.0833333333333339);
}

TEST(AsyncGolden, LaggardHeldCrashBatchPinned) {
  // The laggard adversary over adversary-held delivery with a crash budget:
  // its pool scan, the held pool's swap-remove order and the crash
  // compaction all feed these numbers.
  const BenOrAsyncFactory factory;
  AsyncRepeatSpec spec = base_spec(77, 1);
  spec.n = 16;
  spec.engine.t_budget = 3;
  const AsyncRunStats stats = run_repeated_async(
      factory, laggard_scheduler_factory(), held_delay_factory(), spec);
  EXPECT_TRUE(stats.all_safe());
  EXPECT_EQ(stats.reps(), 12u);
  EXPECT_EQ(stats.decided_one(), 8u);
  EXPECT_DOUBLE_EQ(stats.messages_delivered().mean(), 1196.75);
  EXPECT_DOUBLE_EQ(stats.coin_flips().mean(), 24.916666666666664);
  EXPECT_DOUBLE_EQ(stats.crashes_used().mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.rounds_to_decision().mean(), 4.0);
}

TEST(AsyncGolden, StallGstBeyondWindowBatchPinned) {
  // Stall adversary under GST 200 / bound 8 with retransmission every 16
  // ticks: the first deadlines lie beyond the event list's bucket window,
  // so they take the far path before every later tick runs in the window.
  const BenOrAsyncFactory factory(BenOrOptions{16});
  AsyncRepeatSpec spec = base_spec(91, 1);
  const AsyncRunStats stats = run_repeated_async(
      factory, stall_scheduler_factory(), gst_delay_factory(200, 8), spec);
  EXPECT_TRUE(stats.all_safe());
  EXPECT_EQ(stats.reps(), 12u);
  EXPECT_EQ(stats.decided_one(), 9u);
  EXPECT_DOUBLE_EQ(stats.ticks_to_decision().mean(), 265.33333333333337);
  EXPECT_DOUBLE_EQ(stats.messages_delivered().mean(), 1525.3333333333333);
  EXPECT_DOUBLE_EQ(stats.timers_fired().mean(), 128.66666666666669);
  EXPECT_DOUBLE_EQ(stats.coin_flips().mean(), 24.666666666666668);
}

}  // namespace
}  // namespace synran
