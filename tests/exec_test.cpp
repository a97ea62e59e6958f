// Tests for the deterministic batch executor: serial/parallel equivalence,
// the synran-seed/2 per-rep streams (golden-pinned), workspace reuse within
// a batch and across the batches of one thread, the
// thread-count-invariant observer stream (buffered + rep-order replay),
// deterministic error propagation, the quarantine/retry failure domains,
// and cooperative stop handling.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/omission.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "exec/stopper.hpp"
#include "obs/observer.hpp"
#include "obs/trace_binary.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/kfloodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"

namespace synran {
namespace {

// The three adversary families the equivalence matrix covers: benign,
// the paper's coin-bias attack, and the deterministic lower-bound chain.
struct Family {
  const char* name;
  AdversaryFactory make;
};

std::vector<Family> families() {
  return {
      {"none", no_adversary_factory()},
      {"coinbias",
       [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
         return std::make_unique<CoinBiasAdversary>(
             CoinBiasOptions{0.55, true, seed});
       }},
      {"chain",
       [](std::uint64_t) -> std::unique_ptr<Adversary> {
         return std::make_unique<ChainHidingAdversary>();
       }},
  };
}

RepeatSpec base_spec(InputPattern pattern, std::uint64_t seed) {
  RepeatSpec spec;
  spec.n = 8;
  spec.pattern = pattern;
  spec.reps = 6;
  spec.seed = seed;
  spec.engine.t_budget = 3;
  return spec;
}

// ------------------------------------------------- serial <-> parallel

TEST(ExecEquivalence, ParallelMatchesSerialAcrossPatternsAndAdversaries) {
  const InputPattern patterns[] = {InputPattern::AllZero, InputPattern::AllOne,
                                   InputPattern::Half, InputPattern::Random,
                                   InputPattern::SingleZero};
  SynRanFactory protocol;
  std::uint64_t seed = 90;
  for (const auto& family : families()) {
    for (InputPattern pattern : patterns) {
      RepeatSpec spec = base_spec(pattern, ++seed);
      spec.threads = 1;
      const std::string serial =
          run_repeated(protocol, family.make, spec).metrics().to_json().dump();
      for (unsigned threads : {2u, 8u}) {
        spec.threads = threads;
        const std::string parallel = run_repeated(protocol, family.make, spec)
                                         .metrics()
                                         .to_json()
                                         .dump();
        EXPECT_EQ(serial, parallel)
            << family.name << " / " << to_string(pattern) << " @ " << threads
            << " threads";
      }
    }
  }
}

TEST(ExecEquivalence, MoreThreadsThanRepsStillMatches) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Random, 5150);
  spec.reps = 3;
  spec.threads = 1;
  const std::string serial =
      run_repeated(protocol, no_adversary_factory(), spec)
          .metrics()
          .to_json()
          .dump();
  spec.threads = 16;  // clamped to 3 workers
  const std::string parallel =
      run_repeated(protocol, no_adversary_factory(), spec)
          .metrics()
          .to_json()
          .dump();
  EXPECT_EQ(serial, parallel);
}

// The executor against a hand-rolled oracle: one engine + workspace driven
// through the schema-2 helpers rep by rep must reproduce the batch exactly.
TEST(ExecEquivalence, MatchesHandRolledScheduleOracle) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Random, 777);
  spec.reps = 9;

  RepeatedRunStats expected;
  EngineWorkspace ws;
  Engine engine(ws);
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
    make_inputs(ws.inputs(), spec.n, spec.pattern, input_rng);
    CoinBiasAdversary adversary(
        CoinBiasOptions{0.55, true, adversary_seed_for_rep(spec.seed, rep)});
    EngineOptions opts = spec.engine;
    opts.seed = engine_seed_for_rep(spec.seed, rep);
    expected.add(engine.run(protocol, ws.inputs(), adversary, opts));
  }

  const AdversaryFactory coinbias =
      [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<CoinBiasAdversary>(
        CoinBiasOptions{0.55, true, seed});
  };
  for (unsigned threads : {1u, 2u, 8u}) {
    spec.threads = threads;
    EXPECT_EQ(expected.metrics().to_json().dump(),
              run_repeated(protocol, coinbias, spec)
                  .metrics()
                  .to_json()
                  .dump())
        << threads << " threads";
  }
}

// -------------------------------------------------- seeding schema golden

// Golden values pin seeding schema 2 (exec/batch.hpp): any change to the
// (master seed, rep) -> stream mapping must show up here and bump
// kSeedSchemaVersion. Values generated once from the shipped implementation.
TEST(ExecSeedSchema, GoldenPerRepStreams) {
  EXPECT_EQ(kSeedSchemaVersion, 2);

  EXPECT_EQ(input_rng_for_rep(42, 0).next(), 0x0004cf6b8c2b86bfULL);
  EXPECT_EQ(input_rng_for_rep(42, 1).next(), 0x02bfbd7ecdcdf285ULL);
  EXPECT_EQ(input_rng_for_rep(42, 7).next(), 0xcb279e514d6f6d7cULL);

  EXPECT_EQ(adversary_seed_for_rep(42, 0), 0x54dabf19143565b0ULL);
  EXPECT_EQ(adversary_seed_for_rep(42, 1), 0x24bfbc7c1112b809ULL);
  EXPECT_EQ(adversary_seed_for_rep(42, 7), 0xfd459ee3068e506cULL);

  EXPECT_EQ(engine_seed_for_rep(42, 0), 0x9320ad2abf3c576dULL);
  EXPECT_EQ(engine_seed_for_rep(42, 1), 0xcb1c1d6347e9d83cULL);
  EXPECT_EQ(engine_seed_for_rep(42, 7), 0xce674ad87714c804ULL);
}

TEST(ExecSeedSchema, GoldenRandomInputs) {
  const auto bits_string = [](std::uint64_t seed, std::size_t rep) {
    Xoshiro256 rng = input_rng_for_rep(seed, rep);
    std::string s;
    for (Bit b : make_inputs(16, InputPattern::Random, rng))
      s.push_back(b == Bit::One ? '1' : '0');
    return s;
  };
  EXPECT_EQ(bits_string(42, 0), "0011110001100100");
  EXPECT_EQ(bits_string(42, 1), "0111101011011100");
}

TEST(ExecSeedSchema, GoldenBatchAggregate) {
  SynRanFactory protocol;
  RepeatSpec spec;
  spec.n = 8;
  spec.pattern = InputPattern::Random;
  spec.reps = 5;
  spec.seed = 7;
  spec.engine.t_budget = 2;
  const auto stats = run_repeated(protocol, no_adversary_factory(), spec);
  EXPECT_TRUE(stats.all_safe());
  EXPECT_DOUBLE_EQ(stats.rounds_to_decision().mean(), 1.2);
  EXPECT_DOUBLE_EQ(stats.rounds_to_halt().mean(), 2.2);
  EXPECT_EQ(stats.decided_one(), 2u);
}

// Rep k's streams are pure functions of (seed, k): the same rep index must
// yield the same streams whether or not other reps exist at all.
TEST(ExecSeedSchema, RepStreamsAreIndependentOfBatchSize) {
  for (std::size_t rep : {0u, 3u, 6u}) {
    Xoshiro256 a = input_rng_for_rep(13, rep);
    Xoshiro256 b = input_rng_for_rep(13, rep);
    EXPECT_EQ(a.next(), b.next());
  }
  // Distinct reps draw from distinct streams.
  EXPECT_NE(input_rng_for_rep(13, 0).next(), input_rng_for_rep(13, 1).next());
  EXPECT_NE(adversary_seed_for_rep(13, 0), adversary_seed_for_rep(13, 1));
  EXPECT_NE(engine_seed_for_rep(13, 0), engine_seed_for_rep(13, 1));
  // And input/adversary/engine streams never collide for small reps.
  EXPECT_NE(adversary_seed_for_rep(13, 0), engine_seed_for_rep(13, 0));
}

// ------------------------------------------------------- thread resolution

TEST(ExecThreads, ResolveExplicitEnvAndDefault) {
  // Restore the caller's SYNRAN_THREADS afterwards: later tests in this
  // process (and the TSan job, which sets it) rely on it.
  const char* caller = std::getenv("SYNRAN_THREADS");
  const std::optional<std::string> saved =
      caller != nullptr ? std::optional<std::string>(caller) : std::nullopt;

  ::unsetenv("SYNRAN_THREADS");
  EXPECT_EQ(exec::resolve_threads(4), 4u);
  EXPECT_EQ(exec::resolve_threads(1), 1u);
  EXPECT_EQ(exec::resolve_threads(0), 1u);  // no env: serial default
  ::setenv("SYNRAN_THREADS", "", 1);
  EXPECT_EQ(exec::resolve_threads(0), 1u);  // empty means unset

  ::setenv("SYNRAN_THREADS", "6", 1);
  EXPECT_EQ(exec::resolve_threads(0), 6u);
  EXPECT_EQ(exec::resolve_threads(2), 2u);  // explicit request wins

  ::setenv("SYNRAN_THREADS", "0", 1);
  EXPECT_EQ(exec::resolve_threads(0), 1u);  // clamped to >= 1

  // Only digits within 32 bits count: a sign, trailing text or an
  // overflow is an error naming the variable, never a silent guess (read
  // loosely, "-1" would ask for 2^32 - 1 workers).
  for (const char* bad : {"-1", "8x", "4294967296", " 8"}) {
    ::setenv("SYNRAN_THREADS", bad, 1);
    try {
      exec::resolve_threads(0);
      ADD_FAILURE() << "accepted SYNRAN_THREADS='" << bad << "'";
    } catch (const ArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("SYNRAN_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(exec::resolve_threads(3), 3u);  // an explicit count never reads it

  if (saved.has_value())
    ::setenv("SYNRAN_THREADS", saved->c_str(), 1);
  else
    ::unsetenv("SYNRAN_THREADS");
}

TEST(ExecThreads, SpecOverridesExecutorOptions) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 31);
  spec.threads = 1;
  const std::string serial = exec::BatchExecutor()
                                 .run(protocol, no_adversary_factory(), spec)
                                 .metrics()
                                 .to_json()
                                 .dump();
  spec.threads = 0;  // defer to the executor's own options
  exec::BatchExecutor parallel_executor(exec::ExecOptions{4});
  EXPECT_EQ(serial, parallel_executor.run(protocol, no_adversary_factory(), spec)
                        .metrics()
                        .to_json()
                        .dump());
}

// --------------------------------------------------------------- observers

struct CountingObserver final : obs::EngineObserver {
  int runs = 0;
  void on_run_end(const obs::RunObservation& /*result*/) override { ++runs; }
};

TEST(ExecObserver, ServedAtAnyThreadCount) {
  SynRanFactory protocol;
  for (unsigned threads : {1u, 2u, 4u}) {
    CountingObserver counter;
    RepeatSpec spec = base_spec(InputPattern::Half, 61);
    spec.engine.observer = &counter;
    spec.threads = threads;
    run_repeated(protocol, no_adversary_factory(), spec);
    EXPECT_EQ(counter.runs, static_cast<int>(spec.reps))
        << "threads=" << threads;
  }
}

TEST(ExecObserver, ParallelTraceIsByteIdenticalToSerial) {
  SynRanFactory protocol;
  const AdversaryFactory coinbias =
      [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<CoinBiasAdversary>(CoinBiasOptions{0.55, true,
                                                               seed});
  };
  auto trace_with = [&](unsigned threads) {
    std::ostringstream out;
    obs::JsonlTraceWriter writer(out);
    RepeatSpec spec = base_spec(InputPattern::Half, 61);
    spec.engine.observer = &writer;
    spec.threads = threads;
    run_repeated(protocol, coinbias, spec);
    writer.close();
    return out.str();
  };
  const std::string serial = trace_with(1);
  EXPECT_FALSE(serial.empty());
  // Workers buffer each rep's callbacks privately and the fold replays them
  // in rep order, so the observer's stream — and any trace written through
  // it — cannot depend on scheduling.
  EXPECT_EQ(serial, trace_with(2));
  EXPECT_EQ(serial, trace_with(4));
}

// --------------------------------------------------------- error handling

TEST(ExecErrors, EarliestRepFailureWinsAtAnyThreadCount) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 1234);
  spec.reps = 10;
  // The factory sees only the derived seed; map two of them back to reps.
  const std::uint64_t bad_late = adversary_seed_for_rep(spec.seed, 7);
  const std::uint64_t bad_early = adversary_seed_for_rep(spec.seed, 3);
  const AdversaryFactory faulty =
      [&](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    if (seed == bad_early) throw std::runtime_error("boom at rep 3");
    if (seed == bad_late) throw std::runtime_error("boom at rep 7");
    return std::make_unique<NoAdversary>();
  };
  // Fail-fast wraps the original message with the failing rep's identity —
  // enough to re-run exactly that rep (same master seed, same index).
  const std::uint64_t rep3_engine_seed = engine_seed_for_rep(spec.seed, 3);
  const std::string expected = "rep 3 (engine seed " +
                               std::to_string(rep3_engine_seed) +
                               ") failed: boom at rep 3";
  for (unsigned threads : {1u, 2u, 8u}) {
    spec.threads = threads;
    try {
      run_repeated(protocol, faulty, spec);
      FAIL() << "expected the rep-3 failure at " << threads << " threads";
    } catch (const RepError& e) {
      EXPECT_EQ(e.what(), expected) << threads << " threads";
      EXPECT_EQ(e.rep(), 3u);
      EXPECT_EQ(e.seed(), rep3_engine_seed);
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

TEST(ExecErrors, LaterFailureNeverSkipsAnEarlierRep) {
  // Two workers: worker 0 runs reps 0, 2, 4, worker 1 runs 1, 3, 5. Rep 0
  // is slow and rep 3 fails at once, so worker 1's failure usually lands
  // while rep 2 still waits behind rep 0. Fail-fast may skip only reps
  // after the earliest failure, so rep 2 still runs and its failure — the
  // serial run's — is the one reported.
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 4321);
  spec.threads = 2;
  const std::uint64_t slow = adversary_seed_for_rep(spec.seed, 0);
  const std::uint64_t bad2 = adversary_seed_for_rep(spec.seed, 2);
  const std::uint64_t bad3 = adversary_seed_for_rep(spec.seed, 3);
  const AdversaryFactory faulty =
      [&](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    if (seed == slow && busy_work(std::uint64_t{1} << 25) == 0)
      throw std::runtime_error("busy work degenerated");
    if (seed == bad2) throw std::runtime_error("boom at rep 2");
    if (seed == bad3) throw std::runtime_error("boom at rep 3");
    return std::make_unique<NoAdversary>();
  };
  try {
    run_repeated(protocol, faulty, spec);
    FAIL() << "expected the rep-2 failure";
  } catch (const RepError& e) {
    EXPECT_EQ(e.rep(), 2u) << e.what();
    EXPECT_EQ(e.seed(), engine_seed_for_rep(spec.seed, 2));
  }
}

// ------------------------------------------------------ failure domains

/// An adversary factory that throws for the given rep indices (mapped back
/// through their schema-2 adversary seeds), a fixed number of times each.
/// `fail_times = 0` means "always".
struct FaultInjector {
  RepeatSpec spec;
  std::map<std::uint64_t, std::size_t> throws_left;

  AdversaryFactory factory(std::vector<std::size_t> bad_reps,
                           std::size_t fail_times = 0) {
    for (std::size_t rep : bad_reps)
      throws_left[adversary_seed_for_rep(spec.seed, rep)] =
          fail_times == 0 ? static_cast<std::size_t>(-1) : fail_times;
    return [this](std::uint64_t seed) -> std::unique_ptr<Adversary> {
      auto it = throws_left.find(seed);
      if (it != throws_left.end() && it->second > 0) {
        if (it->second != static_cast<std::size_t>(-1)) --it->second;
        throw std::runtime_error("injected fault");
      }
      return std::make_unique<NoAdversary>();
    };
  }
};

TEST(ExecQuarantine, FoldsIdenticalSurvivorStatsAtAnyThreadCount) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 4242);
  spec.reps = 10;
  spec.policy = FailurePolicy::Quarantine;

  std::string serial_dump;
  for (unsigned threads : {1u, 2u, 8u}) {
    FaultInjector inject{spec, {}};
    RepeatSpec run_spec = spec;
    run_spec.threads = threads;
    const auto stats =
        run_repeated(protocol, inject.factory({3, 7}), run_spec);
    ASSERT_EQ(stats.reps_quarantined(), 2u) << threads << " threads";
    EXPECT_EQ(stats.reps(), 8u) << threads << " threads";
    // Failures surface in rep order with full identity, at any thread count.
    ASSERT_EQ(stats.failures().size(), 2u);
    EXPECT_EQ(stats.failures()[0].rep, 3u);
    EXPECT_EQ(stats.failures()[0].seed, engine_seed_for_rep(spec.seed, 3));
    EXPECT_EQ(stats.failures()[0].attempts, 1u);
    EXPECT_EQ(stats.failures()[0].error, "injected fault");
    EXPECT_EQ(stats.failures()[1].rep, 7u);
    const std::string dump = stats.metrics().to_json().dump();
    if (threads == 1)
      serial_dump = dump;
    else
      EXPECT_EQ(dump, serial_dump) << threads << " threads";
  }
}

TEST(ExecQuarantine, SurvivorsMatchABatchThatNeverHadTheBadReps) {
  // The quarantined batch's per-rep summaries must be the exact summaries
  // the same rep indices produce in a clean batch: quarantine removes reps,
  // it never perturbs the streams of the reps around them.
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Random, 555);
  spec.reps = 6;

  RepeatedRunStats expected;
  EngineWorkspace ws;
  Engine engine(ws);
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    if (rep == 2) continue;  // the rep quarantine will drop
    Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
    make_inputs(ws.inputs(), spec.n, spec.pattern, input_rng);
    NoAdversary none;
    EngineOptions opts = spec.engine;
    opts.seed = engine_seed_for_rep(spec.seed, rep);
    expected.add(engine.run(protocol, ws.inputs(), none, opts));
  }
  expected.note_quarantined(
      RepFailure{2, engine_seed_for_rep(spec.seed, 2), 1, "injected fault"});

  spec.policy = FailurePolicy::Quarantine;
  FaultInjector inject{spec, {}};
  const auto stats = run_repeated(protocol, inject.factory({2}), spec);
  EXPECT_EQ(stats.reps_quarantined(), 1u);
  EXPECT_EQ(stats.metrics().to_json().dump(),
            expected.metrics().to_json().dump());
}

TEST(ExecQuarantine, RetryReRunsTheIdenticalSeedAndCanSucceed) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Random, 808);
  spec.reps = 6;

  // Clean reference: no faults at all.
  const std::string clean = run_repeated(protocol, no_adversary_factory(),
                                         spec)
                                .metrics()
                                .to_json()
                                .dump();

  // Rep 2's adversary construction fails once, then succeeds: with one
  // retry allowed the batch must converge to the clean result bit for bit,
  // because the retry re-derives the same (input, adversary, engine)
  // streams from (master seed, rep).
  spec.max_rep_retries = 1;
  FaultInjector inject{spec, {}};
  const auto stats =
      run_repeated(protocol, inject.factory({2}, /*fail_times=*/1), spec);
  EXPECT_EQ(stats.reps_quarantined(), 0u);
  EXPECT_EQ(stats.metrics().to_json().dump(), clean);
}

TEST(ExecQuarantine, AttemptsCountRetriesBeforeGivingUp) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 909);
  spec.reps = 4;
  spec.policy = FailurePolicy::Quarantine;
  spec.max_rep_retries = 2;
  FaultInjector inject{spec, {}};
  const auto stats = run_repeated(protocol, inject.factory({1}), spec);
  ASSERT_EQ(stats.failures().size(), 1u);
  EXPECT_EQ(stats.failures()[0].attempts, 3u);  // 1 try + 2 retries
}

TEST(ExecQuarantine, FailFastStillThrowsDespiteRetries) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 1010);
  spec.reps = 4;
  spec.max_rep_retries = 1;
  FaultInjector inject{spec, {}};
  EXPECT_THROW(run_repeated(protocol, inject.factory({1}), spec),
               RepError);
}

// ------------------------------------------------------ cooperative stop

/// Clears the process-wide stop flag on entry and exit so a failing test
/// cannot leak a pending stop into later tests.
struct StopFlagGuard {
  StopFlagGuard() { exec::clear_stop(); }
  ~StopFlagGuard() { exec::clear_stop(); }
};

TEST(ExecStop, PendingStopInterruptsSerialBatchBeforeAnyRep) {
  StopFlagGuard guard;
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 77);
  exec::request_stop();
  try {
    run_repeated(protocol, no_adversary_factory(), spec);
    FAIL() << "expected exec::Interrupted";
  } catch (const exec::Interrupted& e) {
    EXPECT_NE(std::string(e.what()).find("0 of 6"), std::string::npos)
        << e.what();
  }
}

TEST(ExecStop, PendingStopInterruptsParallelBatch) {
  StopFlagGuard guard;
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 78);
  spec.threads = 4;
  exec::request_stop();
  EXPECT_THROW(run_repeated(protocol, no_adversary_factory(), spec),
               exec::Interrupted);
}

struct StopAfterObserver final : obs::EngineObserver {
  int runs = 0;
  int stop_after = 0;
  void on_run_end(const obs::RunObservation& /*result*/) override {
    if (++runs == stop_after) exec::request_stop();
  }
};

TEST(ExecStop, MidBatchStopFinishesInFlightRepThenThrows) {
  StopFlagGuard guard;
  SynRanFactory protocol;
  StopAfterObserver observer;
  observer.stop_after = 3;
  RepeatSpec spec = base_spec(InputPattern::Half, 79);
  // Serial: a parallel batch replays observer callbacks only after the
  // join, so its stop would land after every rep had run.
  spec.threads = 1;
  spec.engine.observer = &observer;
  try {
    run_repeated(protocol, no_adversary_factory(), spec);
    FAIL() << "expected exec::Interrupted";
  } catch (const exec::Interrupted& e) {
    // Rep 2's completion requested the stop; it was honored before rep 3.
    EXPECT_EQ(observer.runs, 3);
    EXPECT_NE(std::string(e.what()).find("3 of 6"), std::string::npos)
        << e.what();
  }
}

TEST(ExecStop, StopRaisedOnAWorkerInterruptsParallelBatch) {
  // Rep 0's adversary factory raises the stop on worker 0's thread. Worker
  // 0 finishes rep 0 and skips reps 2 and 4, so at most 4 of the 6 reps
  // complete, however the other worker's reps interleave.
  StopFlagGuard guard;
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 81);
  spec.threads = 2;
  const std::uint64_t first = adversary_seed_for_rep(spec.seed, 0);
  const AdversaryFactory stopping =
      [first](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    if (seed == first) exec::request_stop();
    return std::make_unique<NoAdversary>();
  };
  try {
    run_repeated(protocol, stopping, spec);
    FAIL() << "expected exec::Interrupted";
  } catch (const exec::Interrupted& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("after ");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_LE(std::stoul(what.substr(at + 6)), 4u) << what;
    EXPECT_NE(what.find(" of 6 "), std::string::npos) << what;
  }
}

TEST(ExecStop, ClearStopLetsTheNextBatchRun) {
  StopFlagGuard guard;
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 80);
  exec::request_stop();
  EXPECT_THROW(run_repeated(protocol, no_adversary_factory(), spec),
               exec::Interrupted);
  exec::clear_stop();
  EXPECT_EQ(run_repeated(protocol, no_adversary_factory(), spec).reps(), 6u);
}

TEST(ExecErrors, RejectsZeroReps) {
  SynRanFactory protocol;
  RepeatSpec spec = base_spec(InputPattern::Half, 1);
  spec.reps = 0;
  EXPECT_THROW(exec::BatchExecutor().run(protocol, no_adversary_factory(),
                                         spec),
               ArgumentError);
}

TEST(ExecErrors, RejectsARetryBudgetWhoseAttemptsOverflow) {
  // max_rep_retries + 1 attempts must fit in 32 bits; at 2^32 - 1 retries
  // the count would wrap to 0 and every rep would "fail" without running.
  SynRanFactory protocol;
  int built = 0;
  const AdversaryFactory counting =
      [&built](std::uint64_t) -> std::unique_ptr<Adversary> {
    ++built;
    return std::make_unique<NoAdversary>();
  };
  RepeatSpec spec = base_spec(InputPattern::Half, 2);
  spec.policy = FailurePolicy::Quarantine;
  spec.max_rep_retries = std::numeric_limits<std::uint32_t>::max();
  for (unsigned threads : {1u, 4u}) {
    spec.threads = threads;
    EXPECT_THROW(run_repeated(protocol, counting, spec), ArgumentError);
  }
  EXPECT_EQ(built, 0);  // rejected before any rep ran

  spec.max_rep_retries = std::numeric_limits<std::uint32_t>::max() - 1;
  spec.threads = 1;
  EXPECT_EQ(run_repeated(protocol, counting, spec).reps(), 6u);
}

// ------------------------------------------------------- workspace reuse

RunSummary fresh_run(const ProcessFactory& factory, std::uint32_t n,
                     InputPattern pattern, std::uint64_t seed) {
  EngineWorkspace ws;
  Engine engine(ws);
  Xoshiro256 rng = input_rng_for_rep(seed, 0);
  make_inputs(ws.inputs(), n, pattern, rng);
  NoAdversary none;
  EngineOptions opts;
  opts.seed = engine_seed_for_rep(seed, 0);
  return engine.run(factory, ws.inputs(), none, opts);
}

void expect_same_summary(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.rounds_to_decision, b.rounds_to_decision);
  EXPECT_EQ(a.rounds_to_halt, b.rounds_to_halt);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.has_decision, b.has_decision);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.validity, b.validity);
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.delivered, b.faults.delivered);
}

TEST(ExecWorkspace, ReuseAcrossRunsAndSizesMatchesFreshWorkspaces) {
  SynRanFactory protocol;
  EngineWorkspace ws;
  Engine engine(ws);
  NoAdversary none;
  // Grow, shrink, and repeat sizes; each run must match a fresh workspace.
  const std::uint32_t sizes[] = {4, 9, 4, 16, 9};
  std::uint64_t seed = 300;
  for (std::uint32_t n : sizes) {
    ++seed;
    Xoshiro256 rng = input_rng_for_rep(seed, 0);
    make_inputs(ws.inputs(), n, InputPattern::Random, rng);
    EngineOptions opts;
    opts.seed = engine_seed_for_rep(seed, 0);
    const RunSummary reused = engine.run(protocol, ws.inputs(), none, opts);
    const RunSummary fresh =
        fresh_run(protocol, n, InputPattern::Random, seed);
    expect_same_summary(reused, fresh);
  }
}

TEST(ExecWorkspace, FullResultPathAgreesWithSummary) {
  SynRanFactory protocol;
  EngineWorkspace ws;
  Engine engine(ws);
  NoAdversary none;
  Xoshiro256 rng = input_rng_for_rep(9, 0);
  make_inputs(ws.inputs(), 8, InputPattern::Random, rng);
  EngineOptions opts;
  opts.seed = engine_seed_for_rep(9, 0);
  const std::vector<Bit> inputs = ws.inputs();

  RunResult full;
  const RunSummary with_full =
      engine.run(protocol, ws.inputs(), none, opts, full);

  make_inputs(ws.inputs(), 8, InputPattern::Random,
              rng = input_rng_for_rep(9, 0));
  const RunSummary summary_only =
      engine.run(protocol, ws.inputs(), none, opts);

  expect_same_summary(with_full, summary_only);
  EXPECT_EQ(full.rounds_to_decision, with_full.rounds_to_decision);
  EXPECT_EQ(full.terminated, with_full.terminated);
  EXPECT_EQ(full.crashed.size(), 8u);
  EXPECT_EQ(full.decided.size(), 8u);
  // Per-round crash counts are materialized only on the full path, and sum
  // to the summary's total.
  std::uint32_t crash_sum = 0;
  for (std::uint32_t c : full.crashes_per_round) crash_sum += c;
  EXPECT_EQ(crash_sum, with_full.faults.crashes);
  EXPECT_EQ(validity_holds(inputs, full), with_full.validity);
}

// ------------------------------------------------ kept workspaces

/// Throws from plan_round in round 3 of the rep whose adversary seed is
/// `bad`, leaving that rep's workspace mid-run; otherwise plays CoinBias.
class ThrowsInRound3 final : public Adversary {
 public:
  ThrowsInRound3(std::uint64_t seed, bool bad)
      : inner_(CoinBiasOptions{0.55, true, seed}), bad_(bad) {}
  void begin(std::uint32_t n, std::uint32_t t) override { inner_.begin(n, t); }
  FaultPlan plan_round(const WorldView& world) override {
    if (bad_ && world.round() == 3) throw std::runtime_error("round 3");
    return inner_.plan_round(world);
  }
  const char* name() const override { return "throws-in-round-3"; }

 private:
  CoinBiasAdversary inner_;
  bool bad_;
};

/// One batch of the kept-workspace sequence.
struct KeptBatch {
  std::string label;
  std::shared_ptr<const ProcessFactory> protocol;
  AdversaryFactory adversaries;
  RepeatSpec spec;
  bool traced = false;
};

/// What a batch leaves behind: its stats snapshot (or the error that ended
/// it) and its trace/2 bytes.
struct KeptOutput {
  std::string stats;
  std::string trace;
  friend bool operator==(const KeptOutput&, const KeptOutput&) = default;
};

KeptOutput run_kept(const KeptBatch& batch, unsigned threads) {
  RepeatSpec spec = batch.spec;
  spec.threads = threads;
  std::ostringstream trace;
  std::optional<obs::BinaryTraceWriter> writer;
  if (batch.traced) spec.engine.observer = &writer.emplace(trace);
  KeptOutput out;
  try {
    out.stats =
        run_repeated(*batch.protocol, batch.adversaries, spec)
            .checkpoint_json()
            .dump();
  } catch (const RepError& e) {
    out.stats = std::string("RepError: ") + e.what();
  }
  if (writer) writer->close();
  out.trace = trace.str();
  return out;
}

std::vector<KeptBatch> kept_sequence() {
  const AdversaryFactory coinbias = [](std::uint64_t seed) {
    return std::unique_ptr<Adversary>(
        new CoinBiasAdversary(CoinBiasOptions{0.55, true, seed}));
  };
  const AdversaryFactory chaos_over_coinbias = [](std::uint64_t seed) {
    ChaosOptions o;
    o.drop_rate = 0.15;
    o.seed = seed;
    return std::unique_ptr<Adversary>(new ChaosAdversary(
        o, std::make_unique<CoinBiasAdversary>(
               CoinBiasOptions{0.55, true, seed ^ 0x55})));
  };
  const AdversaryFactory byzantine = [](std::uint64_t seed) {
    ByzantineOptions o;
    o.corrupt_rate = 0.2;
    o.seed = seed;
    return std::unique_ptr<Adversary>(new ByzantineAdversary(o));
  };
  const AdversaryFactory omission = [](std::uint64_t seed) {
    return std::unique_ptr<Adversary>(
        new OmissionAdversary(OmissionAttackOptions{0.55, seed}));
  };
  SynRanOptions symmetric;
  symmetric.coin_rule = CoinRule::Symmetric;
  SynRanOptions no_handoff;
  no_handoff.det_handoff = false;
  SynRanOptions symmetric_no_handoff = symmetric;
  symmetric_no_handoff.det_handoff = false;
  const auto synran = std::make_shared<SynRanFactory>();
  const auto benor_sym = std::make_shared<SynRanFactory>(symmetric);
  const auto synran_nodet = std::make_shared<SynRanFactory>(no_handoff);
  const auto benor_sym_nodet =
      std::make_shared<SynRanFactory>(symmetric_no_handoff);
  const auto floodmin =
      std::make_shared<FloodMinFactory>(FloodMinOptions{4, false});
  const auto hardened =
      std::make_shared<KFloodMinFactory>(KFloodMinOptions{4, 2, 2});
  const auto leadercoin = std::make_shared<LeaderCoinFactory>();

  const auto spec = [](std::uint32_t n, std::uint32_t t, std::size_t reps,
                       std::uint64_t seed) {
    RepeatSpec s;
    s.n = n;
    s.pattern = InputPattern::Half;
    s.reps = reps;
    s.seed = seed;
    s.engine.t_budget = t;
    return s;
  };
  RepeatSpec omit = spec(64, 0, 5, 31);
  omit.engine.omission_budget = 1000;
  omit.engine.omission_round_cap = 2;
  RepeatSpec chaos = spec(64, 20, 5, 32);
  chaos.engine.omission_budget = 1000;
  chaos.engine.omission_round_cap = 2;
  RepeatSpec byz = spec(64, 0, 5, 33);
  byz.engine.byzantine_budget = 1000;
  byz.engine.byzantine_round_cap = 2;
  RepeatSpec throws = spec(64, 40, 6, 34);
  const std::uint64_t bad = adversary_seed_for_rep(throws.seed, 3);
  const AdversaryFactory throws_at_rep_3 = [bad](std::uint64_t seed) {
    return std::unique_ptr<Adversary>(new ThrowsInRound3(seed, seed == bad));
  };

  // n moves 5 -> 64 -> 4096 -> 5, and each protocol follows another's.
  return {
      {"synran n5 coinbias", synran, coinbias, spec(5, 2, 6, 21), true},
      {"benor-sym n64 coinbias", benor_sym, coinbias, spec(64, 40, 5, 22),
       false},
      {"synran-nodet n64 chaos/coinbias", synran_nodet, chaos_over_coinbias,
       chaos, true},
      {"benor-sym-nodet n64 coinbias", benor_sym_nodet, coinbias,
       spec(64, 40, 5, 26), false},
      {"floodmin n64 byzantine", floodmin, byzantine, byz, false},
      {"hardened n64 byzantine", hardened, byzantine, byz, true},
      {"leadercoin n64 omission", leadercoin, omission, omit, false},
      {"synran n64 throws at rep 3", synran, throws_at_rep_3, throws, false},
      {"synran n64 omission", synran, omission, omit, true},
      {"synran n4096 coinbias", synran, coinbias, spec(4096, 4095, 2, 23),
       true},
      {"leadercoin n4096 coinbias", leadercoin, coinbias,
       spec(4096, 4095, 1, 24), false},
      {"floodmin n5 coinbias", floodmin, coinbias, spec(5, 2, 6, 25), true},
      {"synran n5 coinbias untraced", synran, coinbias, spec(5, 2, 6, 21),
       false},
  };
}

TEST(ExecKeptWorkspace, BatchesOnOneThreadMatchFreshWorkersAndTheirReruns) {
  // The calling thread keeps one workspace across these batches (and its
  // processes, rebuilt in place by the next batch's factory). Each batch
  // must equal the same batch on 3 new workers, whose slots start empty,
  // and the same batch rerun after all the others.
  const std::vector<KeptBatch> sequence = kept_sequence();
  std::vector<KeptOutput> first;
  for (const KeptBatch& batch : sequence) {
    first.push_back(run_kept(batch, 1));
    EXPECT_EQ(first.back(), run_kept(batch, 3)) << batch.label;
    EXPECT_EQ(first.back().trace.empty(), !batch.traced) << batch.label;
  }
  EXPECT_NE(first[7].stats.find("RepError: "), std::string::npos)
      << first[7].stats;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(run_kept(sequence[i], 1), first[i]) << sequence[i].label;
  }
}

TEST(ExecKeptWorkspace, ANestedBatchBuildsItsOwnWorkspace) {
  // A batch run from inside another batch's rep finds the thread's slot on
  // loan and builds its own; the outer batch's workspace is not disturbed.
  SynRanFactory protocol;
  RepeatSpec inner = base_spec(InputPattern::Random, 71);
  inner.n = 16;
  inner.threads = 1;
  const std::string alone =
      run_repeated(protocol, no_adversary_factory(), inner)
          .checkpoint_json()
          .dump();
  std::vector<std::string> nested;
  const AdversaryFactory nesting = [&](std::uint64_t seed) {
    nested.push_back(run_repeated(protocol, no_adversary_factory(), inner)
                         .checkpoint_json()
                         .dump());
    return std::unique_ptr<Adversary>(
        new CoinBiasAdversary(CoinBiasOptions{0.55, true, seed}));
  };
  RepeatSpec outer = base_spec(InputPattern::Half, 72);
  outer.threads = 1;
  const AdversaryFactory coinbias = [](std::uint64_t seed) {
    return std::unique_ptr<Adversary>(
        new CoinBiasAdversary(CoinBiasOptions{0.55, true, seed}));
  };
  const std::string plain =
      run_repeated(protocol, coinbias, outer).checkpoint_json().dump();
  EXPECT_EQ(run_repeated(protocol, nesting, outer).checkpoint_json().dump(),
            plain);
  ASSERT_EQ(nested.size(), outer.reps);
  for (const std::string& n : nested) EXPECT_EQ(n, alone);
}

}  // namespace
}  // namespace synran
