// Tests for the synran-ckpt/1 checkpoint layer (obs/checkpoint.hpp): exact
// registry snapshots (raw Welford m2, shortest-round-trip doubles), the
// on-disk ledger's load/record cycle, its tolerance for the torn tails a
// killed run leaves behind, and clean IoError surfacing when the ledger
// cannot be written.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/check.hpp"
#include "exec/executor.hpp"
#include "obs/checkpoint.hpp"
#include "obs/io_error.hpp"
#include "obs/metrics.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"

namespace synran {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("synran_ckpt_test_" + name)).string();
}

/// A registry exercising every metric kind with values whose decimal
/// representations are non-trivial (irrationals, long mantissas): only a
/// bit-exact snapshot round-trips them.
obs::MetricsRegistry sample_registry() {
  obs::MetricsRegistry r;
  r.counter("reps").inc(7);
  r.counter("failures").inc(0);
  r.gauge("last_ratio").set(1.0 / 3.0);
  auto& h = r.histogram("rounds", {1.0, 2.0, 5.0});
  for (double x : {0.5, 1.5, 1.5, 3.0, 100.0}) h.add(x);
  auto& s = r.summary("wait");
  for (int i = 1; i <= 9; ++i) s.add(std::sqrt(static_cast<double>(i)));
  return r;
}

TEST(ResilienceCkpt, SnapshotRestoreReproducesRegistryBitForBit) {
  const obs::MetricsRegistry original = sample_registry();
  const obs::JsonValue snapshot = obs::registry_snapshot(original);
  const obs::MetricsRegistry restored = obs::registry_restore(snapshot);

  // Identical public output...
  EXPECT_EQ(original.to_json().dump(), restored.to_json().dump());
  // ...identical exact state (snapshot of the snapshot)...
  EXPECT_EQ(snapshot.dump(), obs::registry_snapshot(restored).dump());
  // ...and identical behavior under further merges: the restored registry
  // must continue accumulating exactly where the original would have.
  obs::MetricsRegistry a = sample_registry();
  obs::MetricsRegistry b = obs::registry_restore(snapshot);
  const obs::MetricsRegistry extra = sample_registry();
  a.merge(extra);
  b.merge(extra);
  EXPECT_EQ(obs::registry_snapshot(a).dump(), obs::registry_snapshot(b).dump());
}

TEST(ResilienceCkpt, SummaryRestoreValidates) {
  const auto s = Summary::restore(3, 2.0, 0.5, 1.0, 3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.m2(), 0.5);
  EXPECT_THROW(Summary::restore(3, 2.0, -0.5, 1.0, 3.0),
               ArgumentError);
}

TEST(ResilienceCkpt, RegistryRestoreRejectsMalformedSnapshots) {
  EXPECT_THROW(obs::registry_restore(obs::JsonValue(std::int64_t{5})),
               ArgumentError);
  // Structurally an object, but missing the member catalogues.
  EXPECT_THROW(obs::registry_restore(obs::JsonValue::object()), ArgumentError);
  // A summary with negative m2 must be rejected, not smuggled into stddev.
  const auto bad = obs::JsonValue::parse(
      R"({"counters":{},"gauges":{},"histograms":{},)"
      R"("summaries":{"x":{"count":2,"mean":1.0,"m2":-1.0,"min":0.0,)"
      R"("max":2.0}}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_THROW(obs::registry_restore(*bad), ArgumentError);
}

TEST(ResilienceCkpt, BatchStatsCheckpointRoundTripsThroughTheLedger) {
  // End to end: run a real batch, checkpoint it, reload it, and require the
  // restored stats to be indistinguishable — the property the resumed bench
  // reports' byte-identity rests on.
  SynRanFactory protocol;
  RepeatSpec spec;
  spec.n = 8;
  spec.pattern = InputPattern::Random;
  spec.reps = 6;
  spec.seed = 99;
  spec.engine.t_budget = 3;
  const auto stats = run_repeated(protocol, no_adversary_factory(), spec);

  const std::string path = temp_path("roundtrip.jsonl");
  fs::remove(path);
  const std::string key = spec_cell_key(spec, protocol.name(), "test");
  {
    obs::CheckpointLedger ledger(path, "unit", 99);
    ledger.record(obs::CheckpointCell{0, key, stats.checkpoint_json()});
  }
  obs::CheckpointLedger reloaded(path, "unit", 99);
  EXPECT_EQ(reloaded.loaded(), 1u);
  const obs::CheckpointCell* hit = reloaded.find(0, key);
  ASSERT_NE(hit, nullptr);
  const auto restored = RepeatedRunStats::from_checkpoint(hit->data);
  EXPECT_EQ(stats.metrics().to_json().dump(),
            restored.metrics().to_json().dump());
  EXPECT_EQ(stats.checkpoint_json().dump(), restored.checkpoint_json().dump());
  fs::remove(path);
}

TEST(ResilienceCkpt, FindMissesOnAbsentCellOrChangedKey) {
  const std::string path = temp_path("find.jsonl");
  fs::remove(path);
  obs::CheckpointLedger ledger(path, "unit", 1);
  ledger.record(obs::CheckpointCell{0, "key-a", obs::JsonValue::object()});
  EXPECT_NE(ledger.find(0, "key-a"), nullptr);
  EXPECT_EQ(ledger.find(0, "key-b"), nullptr);  // edited sweep: stale record
  EXPECT_EQ(ledger.find(1, "key-a"), nullptr);  // never recorded
  fs::remove(path);
}

TEST(ResilienceCkpt, TornTailKeepsTheValidPrefix) {
  const std::string path = temp_path("torn.jsonl");
  fs::remove(path);
  {
    obs::CheckpointLedger ledger(path, "unit", 7);
    ledger.record(obs::CheckpointCell{0, "k0", obs::JsonValue(true)});
    ledger.record(obs::CheckpointCell{1, "k1", obs::JsonValue(true)});
  }
  {
    // A process killed mid-flush leaves a partial final line.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "{\"cell\":2,\"key\":\"k2\",\"da";
  }
  obs::CheckpointLedger reloaded(path, "unit", 7);
  EXPECT_EQ(reloaded.loaded(), 2u);
  EXPECT_NE(reloaded.find(0, "k0"), nullptr);
  EXPECT_NE(reloaded.find(1, "k1"), nullptr);
  EXPECT_EQ(reloaded.find(2, "k2"), nullptr);
  fs::remove(path);
}

TEST(ObsJsonDepth, CheckpointLedgerTreatsANestedLineAsATornTail) {
  // The ledger behind --resume parses every line; a hostile final line
  // nested past the parser's depth cap is a torn tail, not a stack overflow.
  for (const std::size_t depth : {100000u, 1000000u}) {
    const std::string path = temp_path("nested.jsonl");
    fs::remove(path);
    {
      obs::CheckpointLedger ledger(path, "unit", 7);
      ledger.record(obs::CheckpointCell{0, "k0", obs::JsonValue(true)});
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::app);
      out << std::string(depth, '[') << "\n";
    }
    obs::CheckpointLedger reloaded(path, "unit", 7);
    EXPECT_EQ(reloaded.loaded(), 1u) << "depth " << depth;
    EXPECT_NE(reloaded.find(0, "k0"), nullptr) << "depth " << depth;
    fs::remove(path);
  }
}

TEST(ResilienceCkpt, ForeignHeaderDiscardsTheFileCells) {
  const std::string path = temp_path("foreign.jsonl");
  fs::remove(path);
  {
    obs::CheckpointLedger ledger(path, "experiment-a", 7);
    ledger.record(obs::CheckpointCell{0, "k0", obs::JsonValue(true)});
  }
  // Different experiment or seed: the recorded cells answer a different
  // question and must not be served.
  EXPECT_EQ(obs::CheckpointLedger(path, "experiment-b", 7).loaded(), 0u);
  EXPECT_EQ(obs::CheckpointLedger(path, "experiment-a", 8).loaded(), 0u);
  EXPECT_EQ(obs::CheckpointLedger(path, "experiment-a", 7).loaded(), 1u);
  fs::remove(path);
}

TEST(ResilienceCkpt, DisabledLedgerIsInert) {
  obs::CheckpointLedger ledger;
  EXPECT_FALSE(ledger.enabled());
  ledger.record(obs::CheckpointCell{0, "k", obs::JsonValue(true)});  // no-op
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.find(0, "k"), nullptr);
}

TEST(ResilienceCkpt, UnwritableLedgerPathThrowsIoErrorAndLeavesNoFiles) {
  // A path beneath a regular file can never be opened (works even as root,
  // unlike permission tricks): record() must surface obs::IoError and leave
  // neither the ledger nor its temp file behind.
  const std::string block = temp_path("block_file");
  { std::ofstream out(block, std::ios::binary); }
  const std::string path = block + "/sub/ledger.jsonl";
  obs::CheckpointLedger ledger(path, "unit", 1);
  EXPECT_THROW(
      ledger.record(obs::CheckpointCell{0, "k", obs::JsonValue(true)}),
      obs::IoError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove(block);
}

}  // namespace
}  // namespace synran
