// Tests for the model-invariant checker over recorded round observations,
// plus trace-driven property tests across protocols and adversaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "obs/trace_record.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

/// One run as an obs::TraceRecorder captured it; its round records are
/// reachable by index so tests can read and corrupt them.
struct RecordedRun {
  std::vector<obs::TraceRecord> records;

  const obs::RunInfo& info() const {
    for (const auto& r : records)
      if (r.kind == obs::TraceRecordKind::RunBegin) return r.begin;
    throw std::logic_error("no run_begin record");
  }
  /// The round_end observations, in order.
  std::vector<obs::RoundObservation> rounds() const {
    std::vector<obs::RoundObservation> out;
    for (const auto& r : records)
      if (r.kind == obs::TraceRecordKind::RoundEnd) out.push_back(r.round);
    return out;
  }
  /// The i-th round_end observation, for corrupting in place.
  obs::RoundObservation& round(std::size_t i) {
    for (auto& r : records)
      if (r.kind == obs::TraceRecordKind::RoundEnd && i-- == 0) return r.round;
    throw std::out_of_range("no such round record");
  }
  std::uint32_t total_crashes() const {
    std::uint32_t acc = 0;
    for (const auto& r : rounds()) acc += r.faults.crashes;
    return acc;
  }
  /// Largest crash count in any single round.
  std::uint32_t max_crashes_per_round() const {
    std::uint32_t mx = 0;
    for (const auto& r : rounds()) mx = std::max(mx, r.faults.crashes);
    return mx;
  }
};

RecordedRun record_run(const ProcessFactory& factory, Adversary& adversary,
                       std::uint32_t n, std::uint32_t t, std::uint64_t seed,
                       InputPattern pattern = InputPattern::Half) {
  RecordedRun run;
  obs::TraceRecorder recorder(run.records);
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.max_rounds = 50000;
  opts.observer = &recorder;
  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, pattern, rng);
  const auto res = run_once(factory, inputs, adversary, opts);
  EXPECT_TRUE(res.terminated);
  return run;
}

TEST(TraceTest, RecordsBasicShape) {
  SynRanFactory factory;
  NoAdversary none;
  const RecordedRun run = record_run(factory, none, 16, 0, 1);
  const auto rounds = run.rounds();
  ASSERT_FALSE(rounds.empty());
  EXPECT_EQ(run.info().n, 16u);
  EXPECT_EQ(rounds.front().round, 1u);
  EXPECT_EQ(rounds.front().alive, 16u);
  EXPECT_EQ(rounds.front().senders, 16u);
  EXPECT_EQ(run.total_crashes(), 0u);
}

TEST(TraceTest, CountsCrashesAndComposition) {
  SynRanFactory factory;
  StaticCrashAdversary adv({{1, 0, {}}, {2, 1, {}}});
  const RecordedRun run = record_run(factory, adv, 12, 2, 3);
  EXPECT_EQ(run.total_crashes(), 2u);
  EXPECT_EQ(run.max_crashes_per_round(), 1u);
  // Half-pattern round 1: six 1-payloads, six 0-payloads.
  EXPECT_EQ(run.rounds().front().ones, 6u);
  EXPECT_EQ(run.rounds().front().zeros, 6u);
}

TEST(TraceInvariantsTest, CleanRunsPass) {
  SynRanFactory synran;
  FloodMinFactory flood({4, false});
  NoAdversary none;
  for (const ProcessFactory* f :
       {static_cast<const ProcessFactory*>(&synran),
        static_cast<const ProcessFactory*>(&flood)}) {
    const RecordedRun run = record_run(*f, none, 10, 0, 7);
    const auto report = check_model_invariants(run.records);
    EXPECT_TRUE(report.ok)
        << (report.violations.empty() ? "" : report.violations.front());
  }
}

TEST(TraceInvariantsTest, HoldAcrossAdversariesAndSeeds) {
  SynRanFactory factory;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    {
      RandomCrashAdversary adv({2, 0.7, seed});
      const RecordedRun run = record_run(factory, adv, 24, 12, seed);
      const auto report = check_model_invariants(run.records);
      EXPECT_TRUE(report.ok)
          << "random seed " << seed << ": "
          << (report.violations.empty() ? "" : report.violations.front());
    }
    {
      CoinBiasAdversary adv({0.55, true, seed});
      const RecordedRun run = record_run(factory, adv, 24, 23, seed);
      const auto report = check_model_invariants(run.records);
      EXPECT_TRUE(report.ok)
          << "coinbias seed " << seed << ": "
          << (report.violations.empty() ? "" : report.violations.front());
    }
  }
}

TEST(TraceInvariantsTest, DetectsCorruptedTraces) {
  SynRanFactory factory;
  NoAdversary none;
  const RecordedRun run = record_run(factory, none, 8, 0, 1);
  ASSERT_GE(run.rounds().size(), 2u);

  {
    RecordedRun bad = run;
    bad.round(1).alive = bad.round(0).alive + 1;  // resurrection
    EXPECT_FALSE(check_model_invariants(bad.records).ok);
  }
  {
    RecordedRun bad = run;
    bad.round(1).halted = 0;
    bad.round(0).halted = 5;  // halted shrank
    EXPECT_FALSE(check_model_invariants(bad.records).ok);
  }
  {
    RecordedRun bad = run;
    bad.round(0).faults.crashes = bad.info().t_budget + 1;  // over budget
    EXPECT_FALSE(check_model_invariants(bad.records).ok);
  }
  {
    RecordedRun bad = run;
    bad.round(0).senders = bad.round(0).alive + 3;  // ghost senders
    EXPECT_FALSE(check_model_invariants(bad.records).ok);
  }
}

TEST(TraceTest, SynRanTrafficCompositionIsConsistent) {
  // In every recorded round, ones + zeros must equal senders as long as no
  // process is in the deterministic stage (each probabilistic payload
  // carries exactly one value bit).
  SynRanFactory factory;
  CoinBiasAdversary adv({0.55, true, 11});
  const RecordedRun run = record_run(factory, adv, 32, 16, 13);
  for (const auto& r : run.rounds()) {
    if (r.deterministic > 0) continue;
    EXPECT_EQ(r.ones + r.zeros, r.senders) << "round " << r.round;
  }
}

TEST(TraceTest, StallKeepsCollapsingCounts) {
  // Against all-1 inputs with the stall rule on, the adversary must keep
  // the sender count collapsing (Lemma 4.1's 10% rule) — visible as a
  // strictly decreasing sender sequence while budget remains.
  SynRanFactory factory;
  CoinBiasAdversary adv({0.55, true, 5});
  const RecordedRun run =
      record_run(factory, adv, 40, 39, 9, InputPattern::AllOne);
  const auto rounds = run.rounds();
  ASSERT_GE(rounds.size(), 3u);
  EXPECT_GT(run.total_crashes(), 0u);
  bool decreased = false;
  for (std::size_t i = 1; i < rounds.size(); ++i)
    if (rounds[i].senders < rounds[i - 1].senders) decreased = true;
  EXPECT_TRUE(decreased);
}

}  // namespace
}  // namespace synran
