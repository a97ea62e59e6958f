// synran-trace/2 binary format: round-trip fidelity against the JSONL
// twin, streaming aggregation parity with the batch's own statistics, and
// hostile-input behavior of the reader — truncation at every byte, flipped
// magic/version bytes, corrupt varints, oversized error lengths, and
// fuzz-style mutations must all end in obs::IoError (or a clean EOF at a
// record boundary), never anything undefined. CI runs this suite under
// ASan/UBSan, which is what turns "never UB" from a comment into a check.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/coinbias.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "obs/io_error.hpp"
#include "obs/trace_aggregate.hpp"
#include "obs/trace_binary.hpp"
#include "obs/trace_format.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_record.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"

namespace synran {
namespace {

AdversaryFactory coinbias() {
  return [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<CoinBiasAdversary>(CoinBiasOptions{0.55, true,
                                                               seed});
  };
}

/// One small attacked batch's callback stream, captured once.
const std::vector<obs::TraceRecord>& batch_records() {
  static const std::vector<obs::TraceRecord> records = [] {
    std::vector<obs::TraceRecord> recs;
    obs::TraceRecorder recorder(recs);
    SynRanFactory protocol;
    RepeatSpec spec;
    spec.n = 16;
    spec.pattern = InputPattern::Half;
    spec.reps = 5;
    spec.seed = 0xBEEF;
    spec.engine.t_budget = 8;
    spec.engine.observer = &recorder;
    run_repeated(protocol, coinbias(), spec);
    return recs;
  }();
  return records;
}

/// A synthetic omission-mode stream exercising the gated fields and
/// extreme values (a top-bit seed, zero rounds) without needing an
/// omission adversary.
std::vector<obs::TraceRecord> omission_records() {
  std::vector<obs::TraceRecord> recs;
  obs::TraceRecorder recorder(recs);

  obs::RunInfo info;
  info.n = 32;
  info.t_budget = 16;
  info.per_round_cap = 3;
  info.seed = 0xFFFF'FFFF'FFFF'FFF5ULL;
  info.omission_budget = 40;
  info.omission_round_cap = 7;
  recorder.on_run_begin(info);

  obs::RoundObservation round;
  round.round = 1;
  round.alive = 32;
  round.senders = 32;
  round.ones = 16;
  round.zeros = 16;
  round.budget_left = 16;
  round.faults.crashes = 2;
  round.faults.delivered = 960;
  round.faults.omissions = 3;
  round.faults.omitted = 11;
  recorder.on_round_end(round);

  obs::RunObservation end;
  end.terminated = true;
  end.agreement = true;
  end.has_decision = true;
  end.decision = 1;
  end.rounds_to_decision = 1;
  end.rounds_to_halt = 2;
  end.faults.crashes = 2;
  end.faults.delivered = 960;
  end.faults.omissions = 3;
  end.faults.omitted = 11;
  end.survivors = 30;
  recorder.on_run_end(end);

  recorder.on_run_abandoned(
      obs::RunAbandoned{1, 0x8000'0000'0000'0001ULL, 0, "setup exploded"});
  return recs;
}

/// A synthetic stream with both gated families active.
std::vector<obs::TraceRecord> corruption_records() {
  std::vector<obs::TraceRecord> recs;
  obs::TraceRecorder recorder(recs);

  obs::RunInfo info;
  info.n = 24;
  info.t_budget = 8;
  info.seed = 0xFEED;
  info.omission_budget = 12;
  info.omission_round_cap = 2;
  info.byzantine_budget = 9;
  info.byzantine_round_cap = 3;
  recorder.on_run_begin(info);

  obs::RoundObservation round;
  round.round = 1;
  round.alive = 24;
  round.senders = 24;
  round.ones = 12;
  round.zeros = 12;
  round.budget_left = 8;
  round.faults.delivered = 552;
  round.faults.omissions = 2;
  round.faults.omitted = 5;
  round.faults.corruptions = 3;
  round.faults.corrupted = 17;
  recorder.on_round_end(round);

  obs::RunObservation end;
  end.terminated = true;
  end.agreement = true;
  end.has_decision = true;
  end.decision = 0;
  end.rounds_to_decision = 1;
  end.rounds_to_halt = 2;
  end.faults.delivered = 552;
  end.faults.omissions = 2;
  end.faults.omitted = 5;
  end.faults.corruptions = 3;
  end.faults.corrupted = 17;
  end.survivors = 24;
  recorder.on_run_end(end);

  return recs;
}

std::string to_jsonl(const std::vector<obs::TraceRecord>& records) {
  std::ostringstream out;
  obs::JsonlTraceWriter writer(out);
  obs::replay(records, writer);
  writer.close();
  return out.str();
}

std::string to_binary(const std::vector<obs::TraceRecord>& records) {
  std::ostringstream out;
  obs::BinaryTraceWriter writer(out, obs::Trace2Header{2, "deadbeef"});
  obs::replay(records, writer);
  writer.close();
  return out.str();
}

/// Decodes a binary buffer back into records; throws IoError on damage.
std::vector<obs::TraceRecord> decode(const std::string& binary) {
  std::istringstream in(binary);
  obs::BinaryTraceReader reader(in);
  std::vector<obs::TraceRecord> records;
  obs::TraceRecord record;
  while (reader.next(record)) records.push_back(record);
  return records;
}

// ------------------------------------------------------------- round trips

TEST(TraceBinRoundTrip, BinaryDecodesBackToTheExactJsonl) {
  const std::string direct = to_jsonl(batch_records());
  const std::string recovered = to_jsonl(decode(to_binary(batch_records())));
  EXPECT_FALSE(direct.empty());
  EXPECT_EQ(direct, recovered);
}

TEST(TraceBinRoundTrip, JsonlDecodesBackToTheExactBinary) {
  // Crash-only, omission and corruption streams: a gated field the JSONL
  // reader dropped would change the re-encoded bytes.
  for (const auto& stream :
       {batch_records(), omission_records(), corruption_records()}) {
    std::istringstream in(to_jsonl(stream));
    obs::JsonlTraceReader reader(in);
    std::vector<obs::TraceRecord> records;
    obs::TraceRecord record;
    while (reader.next(record)) records.push_back(record);
    EXPECT_EQ(to_binary(stream), to_binary(records));
  }
}

TEST(TraceBinRoundTrip, OmissionFieldsAndExtremeValuesSurvive) {
  const auto records = omission_records();
  EXPECT_EQ(to_jsonl(records), to_jsonl(decode(to_binary(records))));
  const auto decoded = decode(to_binary(records));
  ASSERT_EQ(decoded.size(), records.size());
  EXPECT_EQ(decoded[0].begin.seed, 0xFFFF'FFFF'FFFF'FFF5ULL);
  EXPECT_EQ(decoded[0].begin.omission_budget, 40u);
  EXPECT_EQ(decoded[1].round.faults.omitted, 11u);
  EXPECT_EQ(decoded[3].abandoned.seed, 0x8000'0000'0000'0001ULL);
  EXPECT_EQ(decoded[3].abandoned.error, "setup exploded");
}

TEST(TraceBinRoundTrip, CorruptionFieldsRideAfterTheOmissionExtras) {
  // A stream with both fault families active: the corruption varint pair is
  // encoded after the omission pair on every record kind, and both must
  // survive the binary round trip exactly.
  const auto recs = corruption_records();
  EXPECT_EQ(to_jsonl(recs), to_jsonl(decode(to_binary(recs))));
  const auto decoded = decode(to_binary(recs));
  ASSERT_EQ(decoded.size(), recs.size());
  EXPECT_EQ(decoded[0].begin.byzantine_budget, 9u);
  EXPECT_EQ(decoded[0].begin.byzantine_round_cap, 3u);
  EXPECT_EQ(decoded[1].round.faults.omitted, 5u);
  EXPECT_EQ(decoded[1].round.faults.corruptions, 3u);
  EXPECT_EQ(decoded[1].round.faults.corrupted, 17u);
  EXPECT_EQ(decoded[2].end.faults.corrupted, 17u);
}

TEST(TraceBinRoundTrip, HeaderMetadataSurvives) {
  std::istringstream in(to_binary(batch_records()));
  obs::BinaryTraceReader reader(in);
  EXPECT_EQ(reader.seed_schema(), 2u);
  EXPECT_EQ(reader.git_rev(), "deadbeef");
}

TEST(TraceBinRoundTrip, EmptyTraceIsAValidHeaderOnlyFile) {
  const std::string empty = to_binary({});
  EXPECT_EQ(empty.size(), obs::kTrace2HeaderSize);
  EXPECT_TRUE(decode(empty).empty());
}

// ------------------------------------------------------------- aggregation

TEST(TraceAggregate, BinaryTraceStatsMatchTheBatchStatistics) {
  SynRanFactory protocol;
  RepeatSpec spec;
  spec.n = 16;
  spec.pattern = InputPattern::Half;
  spec.reps = 5;
  spec.seed = 0xBEEF;
  spec.engine.t_budget = 8;
  const auto stats = run_repeated(protocol, coinbias(), spec);

  for (const bool binary : {true, false}) {
    const std::string trace = binary ? to_binary(batch_records())
                                     : to_jsonl(batch_records());
    std::istringstream in(trace);
    obs::TraceAggregator agg;
    obs::TraceRecord record;
    if (binary) {
      obs::BinaryTraceReader reader(in);
      while (reader.next(record)) agg.add(record);
    } else {
      obs::JsonlTraceReader reader(in);
      while (reader.next(record)) agg.add(record);
    }
    EXPECT_EQ(agg.metrics().to_json().dump(),
              stats.metrics().to_json().dump())
        << (binary ? "binary" : "jsonl");
    EXPECT_EQ(agg.runs(), spec.reps);
  }
}

// ----------------------------------------------------------- hostile input

/// Reads `data` to completion; true on success, false when the reader threw
/// IoError. Anything else propagates and fails the test (under ASan/UBSan,
/// memory errors abort outright).
bool reads_cleanly(const std::string& data) {
  try {
    decode(data);
    return true;
  } catch (const obs::IoError&) {
    return false;
  }
}

TEST(TraceBinHostile, EveryTruncationFailsCleanlyOrEndsAtABoundary) {
  const std::string full = to_binary(batch_records());
  std::size_t clean = 0;
  for (std::size_t len = 0; len < full.size(); ++len) {
    if (reads_cleanly(full.substr(0, len))) ++clean;
  }
  // Header-only and any whole-record prefix read cleanly; a cut inside the
  // header or a record must throw. With 5 runs there are few boundaries.
  EXPECT_GT(clean, 0u);
  EXPECT_LT(clean, full.size() / 2);
  EXPECT_TRUE(reads_cleanly(full));
}

TEST(ObsJsonDepth, Trace1ReaderRejectsDeepNestingWithAnIoError) {
  // A synran-trace/1 line nested past the JSON parser's depth cap is a
  // malformed line like any other.
  for (const std::size_t depth : {100000u, 1000000u}) {
    std::istringstream in(std::string(depth, '[') + "\n");
    obs::JsonlTraceReader reader(in);
    obs::TraceRecord record;
    try {
      reader.next(record);
      ADD_FAILURE() << "depth " << depth << " was accepted";
    } catch (const obs::IoError& err) {
      EXPECT_NE(std::string(err.what()).find("nesting deeper than 512"),
                std::string::npos)
          << err.what();
    }
  }
}

TEST(TraceBinHostile, BadMagicIsRejected) {
  std::string data = to_binary(batch_records());
  data[0] ^= 0x01;
  EXPECT_THROW(decode(data), obs::IoError);
}

TEST(TraceBinHostile, WrongVersionIsRejected) {
  std::string data = to_binary(batch_records());
  data[8] = 0x839 & 0xFF;  // version word no longer kTrace2Version
  data[9] = 0x839 >> 8;
  EXPECT_THROW(decode(data), obs::IoError);
}

TEST(TraceBinHostile, EmptyAndHeaderFragmentAreRejected) {
  EXPECT_THROW(decode(""), obs::IoError);
  EXPECT_THROW(decode(to_binary({}).substr(0, 10)), obs::IoError);
}

TEST(TraceBinHostile, OverlongVarintIsRejected) {
  std::string data = to_binary({});
  data += static_cast<char>(obs::kTrace2KindRunBegin);
  data += '\0';  // flags: no omissions
  data.append(obs::kTrace2MaxVarintBytes, static_cast<char>(0xFF));
  EXPECT_THROW(decode(data), obs::IoError);
}

TEST(TraceBinHostile, UnknownRecordKindIsRejected) {
  std::string data = to_binary({});
  data += static_cast<char>(0x77);
  EXPECT_THROW(decode(data), obs::IoError);
}

TEST(TraceBinHostile, UnknownFlagBitsAreRejected) {
  std::string run_begin = to_binary({});
  run_begin += static_cast<char>(obs::kTrace2KindRunBegin);
  run_begin += static_cast<char>(0x80);  // undefined run_begin flag
  EXPECT_THROW(decode(run_begin), obs::IoError);
}

TEST(TraceBinHostile, OversizedErrorLengthCannotDriveAllocation) {
  // run_abandoned with error_len far past kTrace2MaxErrorBytes: the reader
  // must reject the length, not trust it and allocate.
  std::string data = to_binary({});
  data += static_cast<char>(obs::kTrace2KindRunAbandoned);
  data += '\x01';  // rep
  data += '\x01';  // seed
  data += '\x00';  // attempt
  // error_len = 1 GiB as LEB128 (0x40000000).
  data += static_cast<char>(0x80);
  data += static_cast<char>(0x80);
  data += static_cast<char>(0x80);
  data += static_cast<char>(0x80);
  data += static_cast<char>(0x04);
  EXPECT_THROW(decode(data), obs::IoError);
}

TEST(TraceBinHostile, RandomMutationsNeverEscapeIoError) {
  const std::string pristine = to_binary(batch_records());
  Xoshiro256 rng(0x72ACE);
  for (int trial = 0; trial < 300; ++trial) {
    std::string data = pristine;
    const int flips = 1 + static_cast<int>(rng.next() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.next() % data.size();
      data[at] = static_cast<char>(rng.next() & 0xFF);
    }
    reads_cleanly(data);  // success or IoError both fine; UB is the bug
  }
}

TEST(TraceBinHostile, RandomGarbageAfterAValidHeaderNeverEscapesIoError) {
  const std::string header = to_binary({});
  Xoshiro256 rng(0x6A7BA6E);
  for (int trial = 0; trial < 300; ++trial) {
    std::string data = header;
    const std::size_t len = rng.next() % 64;
    for (std::size_t i = 0; i < len; ++i)
      data += static_cast<char>(rng.next() & 0xFF);
    reads_cleanly(data);
  }
}

}  // namespace
}  // namespace synran
