// The fault accounting both engines keep in one FaultTally, checked from the
// observer stream: each run's RoundEnd tallies must sum to its RunEnd tally,
// and that must equal the tally the engine itself returns. The sync case
// spends all three fault families (crashes, omissions, corruptions); the
// async case a timetable crash plus an omission injection under timed
// delivery, where one RoundEnd covers a whole round-analog interval.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/omission.hpp"
#include "async/benor.hpp"
#include "async/core.hpp"
#include "async/delay.hpp"
#include "async/scheduler.hpp"
#include "common/rng.hpp"
#include "exec/batch.hpp"
#include "obs/trace_record.hpp"
#include "protocols/synran.hpp"
#include "sim/engine.hpp"

namespace synran {

void PrintTo(const FaultTally& f, std::ostream* os) {
  *os << "{crashes " << f.crashes << ", delivered " << f.delivered
      << ", omissions " << f.omissions << ", omitted " << f.omitted
      << ", corruptions " << f.corruptions << ", corrupted " << f.corrupted
      << "}";
}

namespace {

/// One recorded run's RoundEnd tallies must sum to its only RunEnd tally,
/// and that must equal `engine`, the tally the engine returned.
void expect_tallies_agree(const std::vector<obs::TraceRecord>& run,
                          const FaultTally& engine) {
  FaultTally rounds;
  std::vector<FaultTally> ends;
  for (const obs::TraceRecord& r : run) {
    if (r.kind == obs::TraceRecordKind::RoundEnd) rounds += r.round.faults;
    if (r.kind == obs::TraceRecordKind::RunEnd) ends.push_back(r.end.faults);
  }
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(rounds, ends[0]);
  EXPECT_EQ(ends[0], engine);
}

TEST(FaultTally, SyncRoundTalliesSumToTheRunAndTheEngine) {
  constexpr std::uint32_t n = 24;
  SynRanFactory protocol;
  FaultTally spent;  // across seeds: every family must have been exercised
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ByzantineAdversary adversary(
        ByzantineOptions{0.2, seed},
        std::make_unique<ChaosAdversary>(
            ChaosOptions{0.1, seed + 100},
            std::make_unique<CoinBiasAdversary>(
                CoinBiasOptions{0.55, true, seed + 200})));
    std::vector<obs::TraceRecord> records;
    obs::TraceRecorder recorder(records);
    EngineOptions opts;
    opts.t_budget = 8;
    opts.omission_budget = 30;
    opts.omission_round_cap = 3;
    opts.byzantine_budget = 30;
    opts.byzantine_round_cap = 3;
    opts.seed = seed;
    opts.observer = &recorder;
    Xoshiro256 rng(seed);
    const RunResult res = run_once(
        protocol, make_inputs(n, InputPattern::Half, rng), adversary, opts);
    expect_tallies_agree(records, res.faults);
    spent += res.faults;
  }
  EXPECT_GT(spent.crashes, 0u);
  EXPECT_GT(spent.omitted, 0u);
  EXPECT_GT(spent.corrupted, 0u);
}

TEST(FaultTally, AsyncIntervalTalliesSumToTheRunAndTheCore) {
  constexpr std::uint32_t n = 11;
  AsyncFaultTimetable timetable;
  timetable.crashes.push_back({2, n - 1});
  timetable.omissions.push_back({3, 3, 5});
  const BenOrAsyncFactory factory(BenOrOptions{5});
  FaultTally spent;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::vector<Bit> inputs(n);
    Xoshiro256 rng(seed);
    for (auto& b : inputs) b = rng.flip() ? Bit::One : Bit::Zero;
    UniformDelay delay(1, 4, seed);
    RandomScheduler scheduler(seed);
    std::vector<obs::TraceRecord> records;
    obs::TraceRecorder recorder(records);
    AsyncEngineOptions opts;
    opts.t_budget = 3;
    opts.seed = seed;
    opts.delay = &delay;
    opts.faults = &timetable;
    opts.omission_budget = 1;
    opts.observer = &recorder;
    const AsyncRunResult res = run_async(factory, inputs, scheduler, opts);
    expect_tallies_agree(records, res.faults);
    EXPECT_EQ(res.faults.delivered, res.steps);
    spent += res.faults;
  }
  EXPECT_EQ(spent.crashes, 8u);
  EXPECT_EQ(spent.omissions, 8u);
  EXPECT_GT(spent.omitted, 0u);
}

}  // namespace
}  // namespace synran
