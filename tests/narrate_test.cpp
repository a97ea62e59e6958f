// Tests for the execution narrator and the model-invariant re-check: the
// text they print for pinned runs, and that both need only the record
// fields the trace/1 and trace/2 files persist.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/coinbias.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_record.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

std::vector<obs::TraceRecord> traced_run(Adversary& adversary,
                                         std::uint32_t n, std::uint32_t t,
                                         std::uint64_t seed) {
  std::vector<obs::TraceRecord> records;
  obs::TraceRecorder recorder(records);
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.observer = &recorder;
  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, InputPattern::Half, rng);
  (void)run_once(factory, inputs, adversary, opts);
  return records;
}

std::size_t round_records(const std::vector<obs::TraceRecord>& records) {
  std::size_t rounds = 0;
  for (const auto& r : records)
    if (r.kind == obs::TraceRecordKind::RoundEnd) ++rounds;
  return rounds;
}

TEST(NarrateTest, EmitsHeaderAndOneLinePerRound) {
  NoAdversary none;
  const auto records = traced_run(none, 16, 0, 1);
  std::ostringstream os;
  NarrateOptions opts;
  opts.collapse_repeats = false;
  narrate(records, os, opts);
  const std::string out = os.str();
  EXPECT_NE(out.find("n = 16"), std::string::npos);
  EXPECT_NE(out.find("r1"), std::string::npos);
  // One line per round plus the header.
  std::size_t lines = 0;
  for (char c : out)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, round_records(records) + 1);
}

TEST(NarrateTest, CollapsesIdenticalRounds) {
  // A deterministic all-ones run repeats its shape; collapsed output must
  // be shorter than the uncollapsed one when repeats exist.
  NoAdversary none;
  std::vector<obs::TraceRecord> records;
  obs::TraceRecorder recorder(records);
  SynRanFactory factory;
  EngineOptions opts;
  opts.observer = &recorder;
  (void)run_once(factory, std::vector<Bit>(8, Bit::One), none, opts);

  std::ostringstream collapsed, full;
  narrate(records, collapsed, {true, 10});
  narrate(records, full, {false, 10});
  EXPECT_LE(collapsed.str().size(), full.str().size());
}

TEST(NarrateTest, MarksCrashes) {
  StaticCrashAdversary adv({{1, 0, {}}});
  const auto records = traced_run(adv, 12, 1, 3);
  std::ostringstream os;
  narrate(records, os);
  EXPECT_NE(os.str().find("CRASH x1"), std::string::npos);
}

TEST(NarrateTest, BarReflectsComposition) {
  obs::TraceRecord begin;
  begin.kind = obs::TraceRecordKind::RunBegin;
  begin.begin.n = 4;
  obs::TraceRecord all_ones;
  all_ones.kind = obs::TraceRecordKind::RoundEnd;
  all_ones.round.round = 1;
  all_ones.round.alive = all_ones.round.senders = all_ones.round.ones = 4;
  const std::vector<obs::TraceRecord> records = {begin, all_ones};
  std::ostringstream os;
  narrate(records, os, {false, 8});
  EXPECT_NE(os.str().find("[11111111]"), std::string::npos);
}

/// One run set up the way `synran narrate` sets it up, told as that
/// command tells it: the narration, then the decision line.
std::string narrate_like_the_cli(Adversary& adversary, std::uint32_t n,
                                 std::uint32_t t, std::uint64_t seed,
                                 InputPattern pattern) {
  std::vector<obs::TraceRecord> records;
  obs::TraceRecorder recorder(records);
  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.max_rounds = 100000;
  opts.observer = &recorder;
  Xoshiro256 rng(seed);
  const auto res =
      run_once(factory, make_inputs(n, pattern, rng), adversary, opts);
  std::ostringstream os;
  narrate(records, os);
  os << "decision "
     << (res.has_decision ? std::to_string(to_int(res.decision)) : "-")
     << " @ round " << res.rounds_to_decision << ", agreement "
     << (res.agreement ? "yes" : "NO") << "\n";
  return os.str();
}

TEST(NarrateTest, PinnedStories) {
  // What `synran narrate` prints for these three configs, byte for byte.
  CoinBiasAdversary coinbias({0.55, true, 3});
  EXPECT_EQ(narrate_like_the_cli(coinbias, 48, 47, 3, InputPattern::Half),
            "execution narrative: n = 48, t = 47, 14 rounds, 47 crashes\n"
            "r1    [111111111111111000000000000000]   24x1   24x0  alive   48"
            "  decided    0   (x2 rounds)\n"
            "r3    [111111111111100000000000000000]   20x1   28x0  alive   48"
            "  decided    0  CRASH x28\n"
            "r4    [111111111111111110000000000000]   11x1    9x0  alive   20"
            "  decided    0  CRASH x9\n"
            "r5    [111111111111111111111100000000]    8x1    3x0  alive   11"
            "  decided    0  CRASH x2\n"
            "r6    [111111100000000000000000000000]    2x1    7x0  alive    9"
            "  decided    7  CRASH x7\n"
            "r7    [000000000000000000000000000000]    0x1    2x0  alive    2"
            "  decided    2  CRASH x1\n"
            "r8    [000000000000000000000000000000]    0x1    1x0  alive    1"
            "  decided    1  det-stage 1   (x7 rounds)\n"
            "decision 0 @ round 6, agreement yes\n");

  ChainHidingAdversary chain;
  EXPECT_EQ(
      narrate_like_the_cli(chain, 20, 10, 4, InputPattern::SingleZero),
      "execution narrative: n = 20, t = 10, 2 rounds, 1 crashes\n"
      "r1    [111111111111111111111111111110]   19x1    1x0  alive   20"
      "  decided    0  CRASH x1\n"
      "r2    [111111111111111111111111111111]   19x1    0x0  alive   19"
      "  decided   19\n"
      "decision 1 @ round 1, agreement yes\n");

  NoAdversary none;
  EXPECT_EQ(narrate_like_the_cli(none, 16, 0, 2, InputPattern::Half),
            "execution narrative: n = 16, t = 0, 5 rounds, 0 crashes\n"
            "r1    [111111111111111000000000000000]    8x1    8x0  alive   16"
            "  decided    0   (x2 rounds)\n"
            "r3    [111111111111111110000000000000]    9x1    7x0  alive   16"
            "  decided    0\n"
            "r4    [111111110000000000000000000000]    4x1   12x0  alive   16"
            "  decided    0\n"
            "r5    [000000000000000000000000000000]    0x1   16x0  alive   16"
            "  decided   16\n"
            "decision 0 @ round 4, agreement yes\n");
}

/// Writes `records` through a trace writer of `format` and reads the file
/// back.
std::vector<obs::TraceRecord> persisted(
    const std::vector<obs::TraceRecord>& records, obs::TraceFormat format,
    const std::string& path) {
  {
    const auto writer = obs::make_trace_writer(format, path);
    obs::replay(records, *writer);
    writer->close();
  }
  std::vector<obs::TraceRecord> back;
  const auto reader = obs::open_trace_reader(path);
  obs::TraceRecord record;
  while (reader->next(record)) back.push_back(record);
  return back;
}

std::string story(const std::vector<obs::TraceRecord>& records) {
  std::ostringstream os;
  narrate(records, os);
  return os.str();
}

TEST(NarrateTest, PersistedTracesTellTheSameStory) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "synran_narrate_persisted";
  fs::remove_all(dir);
  fs::create_directories(dir);

  CoinBiasAdversary coinbias({0.55, true, 3});
  const auto clean = traced_run(coinbias, 48, 47, 3);
  // A copy whose records break the model, so the verdicts compared below
  // carry violations and not only "ok".
  auto broken = clean;
  for (auto& r : broken) {
    if (r.kind != obs::TraceRecordKind::RoundEnd || r.round.round != 2)
      continue;
    r.round.alive += 1;
    r.round.faults.crashes = 60;
  }
  ASSERT_FALSE(check_model_invariants(broken).ok);

  for (const auto& run : {clean, broken}) {
    const auto want = check_model_invariants(run);
    for (const auto format :
         {obs::TraceFormat::Jsonl, obs::TraceFormat::Binary}) {
      const auto back = persisted(
          run, format,
          (dir / (std::string("run.") + obs::to_string(format))).string());
      EXPECT_EQ(story(back), story(run)) << obs::to_string(format);
      const auto got = check_model_invariants(back);
      EXPECT_EQ(got.ok, want.ok) << obs::to_string(format);
      EXPECT_EQ(got.violations, want.violations) << obs::to_string(format);
    }
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace synran
