// The JSON readers behind checkpoints, traces, bench reports and the lint
// baseline, fed every truncation and seeded byte flips, deletions and
// insertions of a valid file of each kind:
//
//   * JsonValue::parse returns a value, or an error that ends in the byte
//     offset where it gave up;
//   * a CheckpointLedger loads a prefix of cells, never more than the intact
//     ledger holds (the very cells it holds, when the file was cut), and
//     throws nothing;
//   * JsonlTraceReader yields records or throws obs::IoError;
//   * a serve::ResultCache built over a directory holding one mutated entry
//     throws nothing, serves the mutant or quarantines it (renamed to
//     *.quarantined and counted), and still serves every other entry's
//     payload byte for byte.
//
// No other exception type may escape; under ASan/UBSan nothing may crash.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/omission.hpp"
#include "common/rng.hpp"
#include "obs/checkpoint.hpp"
#include "obs/io_error.hpp"
#include "obs/json.hpp"
#include "obs/trace_reader.hpp"
#include "obs/trace_record.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "serve/cache.hpp"

namespace synran {
namespace {

namespace fs = std::filesystem;
using obs::JsonValue;

/// A scratch file of the running test: ctest runs each test in its own
/// process, concurrently, so the name carries the test's.
std::string temp_path(const std::string& name) {
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (fs::temp_directory_path() /
          ("synran_json_fuzz_" + test + "_" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ------------------------------------------------------------- the corpus

constexpr const char* kExperiment = "fuzz";
constexpr std::uint64_t kLedgerSeed = 7;

/// A two-cell synran-ckpt/1 ledger, as CheckpointLedger writes it.
std::string ledger_bytes() {
  const std::string path = temp_path("intact.jsonl");
  fs::remove(path);
  {
    obs::CheckpointLedger ledger(path, kExperiment, kLedgerSeed);
    JsonValue first = JsonValue::object();
    first.set("reps", JsonValue(12)).set("mean", JsonValue(0.1 + 0.2));
    JsonValue second = JsonValue::object();
    second.set("failures", JsonValue::array().push(JsonValue("boom")))
        .set("nested", JsonValue::object().set("x", JsonValue(-3)));
    ledger.record(obs::CheckpointCell{0, "k0", first});
    ledger.record(obs::CheckpointCell{1, "k1", second});
  }
  std::string bytes = read_file(path);
  fs::remove(path);
  return bytes;
}

/// A synran-trace/1 file whose runs carry omission and corruption fields:
/// SynRan under byzantine corruption layered over chaos omissions.
std::string trace1_bytes() {
  std::ostringstream out;
  obs::JsonlTraceWriter writer(out);
  RepeatSpec spec;
  spec.n = 6;
  spec.pattern = InputPattern::Half;
  spec.reps = 2;
  spec.seed = 5;
  spec.threads = 1;
  spec.engine.omission_budget = 6;
  spec.engine.omission_round_cap = 1;
  spec.engine.byzantine_budget = 6;
  spec.engine.byzantine_round_cap = 1;
  spec.engine.max_rounds = 40;
  spec.engine.observer = &writer;
  const AdversaryFactory adversaries = [](std::uint64_t seed) {
    ChaosOptions chaos;
    chaos.drop_rate = 0.3;
    chaos.seed = seed;
    ByzantineOptions byz;
    byz.corrupt_rate = 0.3;
    byz.seed = seed ^ 1;
    return std::unique_ptr<Adversary>(new ByzantineAdversary(
        byz, std::make_unique<ChaosAdversary>(chaos)));
  };
  run_repeated(SynRanFactory(), adversaries, spec);
  writer.close();
  return out.str();
}

/// A small synran-bench/1 report with every field kind the schema has.
const char* const kBenchReport =
    R"({"schema":"synran-bench/1","experiment":"e15_omission","seed":20250101,)"
    R"("git_rev":"abc1234","threads":1,)"
    R"("grid":[{"n":16,"t":5},{"n":32,"t":10}],)"
    R"("omissions":[{"drop_rate":0.05,"budget":4294967295}],"tables":[)"
    R"({"title":"E15 \"drop\" sweep","columns":["rate","agree","rounds"],)"
    R"("rows":[["0.05",1,3.25],["0.10",0.9375,4.5e-1]]}],)"
    R"("timings":[{"name":"BM_x","iterations":10,"real_time":1.5,)"
    R"("cpu_time":1.25,"time_unit":"ns"}]})";

std::string lint_baseline_bytes() {
  return read_file(SYNRAN_LINT_BASELINE);
}

/// Every truncation of `pristine`, then `trials` seeded mutants of 1 to 3
/// byte flips, deletions and insertions each. Inserted bytes lean on JSON's
/// own alphabet (and newlines), so mutants reach past the tokenizer.
void for_each_mutant(const std::string& pristine, int trials,
                     std::uint64_t seed,
                     const std::function<void(const std::string&)>& check) {
  for (std::size_t len = 0; len < pristine.size(); ++len)
    check(pristine.substr(0, len));
  const std::string alphabet = "{}[]\":,0123456789-.eE+ntrufalse\\\n ";
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::string text = pristine;
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.below(text.size());
      switch (rng.below(3)) {
        case 0:
          text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
          break;
        case 1:
          text.erase(at, 1 + rng.below(4));
          break;
        default:
          text.insert(at, 1,
                      rng.below(2) == 0
                          ? alphabet[rng.below(alphabet.size())]
                          : static_cast<char>(rng.below(256)));
      }
    }
    check(text);
  }
}

// ---------------------------------------------------------- the properties

void parses_or_names_an_offset(const std::string& text) {
  std::string error;
  try {
    if (JsonValue::parse(text, &error).has_value()) return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse threw " << e.what() << "\n" << text;
    return;
  }
  const std::size_t at = error.rfind(" at offset ");
  ASSERT_NE(at, std::string::npos) << error << "\n" << text;
  const std::string offset = error.substr(at + 11);
  ASSERT_FALSE(offset.empty()) << error;
  EXPECT_EQ(offset.find_first_not_of("0123456789"), std::string::npos)
      << error;
  EXPECT_LE(std::stoull(offset), text.size()) << error;
}

TEST(ObsJsonFuzz, ParserReturnsAValueOrAnErrorWithAnOffset) {
  const std::vector<std::string> corpus = {ledger_bytes(), trace1_bytes(),
                                           kBenchReport,
                                           lint_baseline_bytes()};
  std::uint64_t seed = 0x0B5F022;
  for (const std::string& pristine : corpus) {
    ASSERT_FALSE(pristine.empty());
    for_each_mutant(pristine, 400, ++seed, parses_or_names_an_offset);
  }
  // Each whole report parses; so does every line of the JSONL files.
  for (const std::string& whole : {std::string(kBenchReport),
                                   lint_baseline_bytes()}) {
    EXPECT_TRUE(JsonValue::parse(whole).has_value()) << whole;
  }
  for (const std::string& jsonl : {ledger_bytes(), trace1_bytes()}) {
    std::istringstream lines(jsonl);
    for (std::string line; std::getline(lines, line);) {
      EXPECT_TRUE(JsonValue::parse(line).has_value()) << line;
      for_each_mutant(line, 20, ++seed, parses_or_names_an_offset);
    }
  }
}

TEST(ObsJsonFuzz, LedgerLoadsAPrefixOfItsCellsAndNeverThrows) {
  const std::string pristine = ledger_bytes();
  const std::string path = temp_path("mutant.jsonl");
  std::vector<obs::CheckpointCell> intact;
  {
    write_file(path, pristine);
    const obs::CheckpointLedger ledger(path, kExperiment, kLedgerSeed);
    ASSERT_EQ(ledger.loaded(), 2u);
    for (std::uint64_t k = 0; k < 2; ++k) {
      const obs::CheckpointCell* cell =
          ledger.find(k, k == 0 ? "k0" : "k1");
      ASSERT_NE(cell, nullptr);
      intact.push_back(*cell);
    }
  }
  std::size_t partial = 0;
  const auto loads_a_prefix = [&](const std::string& text, bool cut) {
    write_file(path, text);
    try {
      const obs::CheckpointLedger ledger(path, kExperiment, kLedgerSeed);
      ASSERT_LE(ledger.loaded(), intact.size()) << text;
      if (ledger.loaded() > 0 && ledger.loaded() < intact.size()) ++partial;
      if (!cut) return;
      // A cut file keeps exactly its whole lines' cells.
      for (std::size_t k = 0; k < ledger.loaded(); ++k) {
        const obs::CheckpointCell* cell = ledger.find(k, intact[k].key);
        ASSERT_NE(cell, nullptr) << text;
        EXPECT_EQ(cell->data.dump(), intact[k].data.dump()) << text;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "ledger load threw " << e.what() << "\n" << text;
    }
  };
  for (std::size_t len = 0; len < pristine.size(); ++len)
    loads_a_prefix(pristine.substr(0, len), true);
  EXPECT_GT(partial, 0u);  // some cut keeps the first cell only
  for_each_mutant(pristine, 600, 0xC3C3, [&](const std::string& text) {
    loads_a_prefix(text, false);
  });
  fs::remove(path);
}

TEST(ObsJsonFuzz, Trace1ReaderYieldsRecordsOrThrowsIoError) {
  const std::string pristine = trace1_bytes();
  // The corpus holds what the reader must gate on.
  ASSERT_NE(pristine.find("\"omitted\""), std::string::npos);
  ASSERT_NE(pristine.find("\"corrupted\""), std::string::npos);
  std::size_t clean = 0;
  const auto reads_or_io_error = [&](const std::string& text) {
    std::istringstream in(text);
    obs::JsonlTraceReader reader(in);
    obs::TraceRecord record;
    try {
      while (reader.next(record)) {
      }
      ++clean;
    } catch (const obs::IoError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trace/1 reader threw " << e.what() << "\n" << text;
    }
  };
  reads_or_io_error(pristine);
  ASSERT_EQ(clean, 1u);
  for_each_mutant(pristine, 600, 0x7EACE, reads_or_io_error);
}

TEST(CacheFuzz, RecoveryServesOrQuarantinesEveryMutantEntry) {
  const std::string dir = temp_path("cache");
  fs::remove_all(dir);
  const std::vector<std::string> keys = {
      R"({"model":"sync","n":8,"t":2,"adversary":"coinbias"}|1|abc1234)",
      R"({"model":"sync","n":48,"faults":"byz:0.2,2"}|1|abc1234)",
      R"({"model":"async","n":16,"t":3,"scheduler":"fifo"}|1|abc1234)"};
  std::vector<std::string> payloads;
  {
    serve::ResultCache cache({dir, 0, 3, 0});
    for (std::size_t k = 0; k < keys.size(); ++k) {
      JsonValue payload = JsonValue::object();
      payload.set("reps", JsonValue(static_cast<std::int64_t>(12 + k)))
          .set("mean_rounds", JsonValue(3.25 + 0.5 * static_cast<double>(k)))
          .set("table", JsonValue::array()
                            .push(JsonValue::array()
                                      .push(JsonValue("agree \"yes\""))
                                      .push(JsonValue(1)))
                            .push(JsonValue::array()
                                      .push(JsonValue("rounds"))
                                      .push(JsonValue(-0.125))));
      cache.store(keys[k], payload);
      payloads.push_back(payload.dump());
    }
  }
  // The middle entry is the one mutated; the other two must not notice.
  const std::string entry =
      dir + "/" + serve::cache_file_stem(keys[1]) + ".ckpt";
  const std::string quarantined = entry + ".quarantined";
  const std::string pristine = read_file(entry);
  ASSERT_FALSE(pristine.empty());

  std::size_t served = 0, quarantines = 0;
  const auto recovers = [&](const std::string& text) {
    fs::remove(quarantined);
    write_file(entry, text);
    try {
      serve::ResultCache cache({dir, 0, 3, 0});
      if (fs::exists(quarantined)) {
        ++quarantines;
        EXPECT_FALSE(fs::exists(entry)) << text;
        EXPECT_EQ(cache.quarantined(), 1u) << text;
        EXPECT_EQ(cache.entries(), keys.size() - 1) << text;
        EXPECT_FALSE(cache.lookup(keys[1]).has_value()) << text;
      } else {
        ++served;
        EXPECT_EQ(cache.quarantined(), 0u) << text;
        EXPECT_EQ(cache.entries(), keys.size()) << text;
        EXPECT_TRUE(cache.lookup(keys[1]).has_value()) << text;
      }
      for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
        const auto hit = cache.lookup(keys[k]);
        ASSERT_TRUE(hit.has_value()) << text;
        EXPECT_EQ(hit->dump(), payloads[k]) << text;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "cache recovery threw " << e.what() << "\n" << text;
    }
  };
  recovers(pristine);
  ASSERT_EQ(served, 1u);
  for_each_mutant(pristine, 600, 0xCAC4E, recovers);
  // Every cut but the one that drops only the final newline.
  EXPECT_GE(quarantines, pristine.size() - 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace synran
