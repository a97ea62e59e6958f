// Tests for the bench harness plumbing: CSV naming (collision-free),
// the BENCH_*.json report builder, timing extraction, and the experiment
// trace/report environment hooks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_async.hpp"
#include "bench_util.hpp"

namespace synran::bench {
namespace {

namespace fs = std::filesystem;

/// Sets an environment variable for one test and restores on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BenchCsvSlug, LowercasesAndCollapsesPunctuation) {
  EXPECT_EQ(csv_slug("E1a: t = n/2"), "e1a-t-n-2");
  EXPECT_EQ(csv_slug("already-clean"), "already-clean");
  EXPECT_EQ(csv_slug("---"), "table");
  EXPECT_EQ(csv_slug(""), "table");
}

TEST(BenchCsvNames, CollidingSlugsGetNumericSuffixes) {
  auto& reg = CsvNameRegistry::instance();
  reg.reset();
  EXPECT_EQ(reg.unique("dup"), "dup");
  EXPECT_EQ(reg.unique("dup"), "dup-2");
  EXPECT_EQ(reg.unique("dup"), "dup-3");
  EXPECT_EQ(reg.unique("other"), "other");
  reg.reset();
  EXPECT_EQ(reg.unique("dup"), "dup");
}

TEST(BenchCsvNames, EmitWritesDistinctFilesForSameTitle) {
  const fs::path dir = fs::path(testing::TempDir()) / "synran_csv_dup";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScopedEnv env("SYNRAN_CSV_DIR", dir.string());
  CsvNameRegistry::instance().reset();
  BenchReport::instance().reset();

  Table first("Same Title");
  first.header({"x"}).row({1.0});
  Table second("Same Title");
  second.header({"x"}).row({2.0});
  emit(first);
  emit(second);

  EXPECT_TRUE(fs::exists(dir / "same-title.csv"));
  EXPECT_TRUE(fs::exists(dir / "same-title-2.csv"));
  EXPECT_NE(slurp(dir / "same-title.csv"), slurp(dir / "same-title-2.csv"));
  fs::remove_all(dir);
}

TEST(BenchReportTest, ExperimentNameFromArgv0) {
  EXPECT_EQ(experiment_name_from("/path/to/bench_e1_synran_scaling"),
            "e1_synran_scaling");
  EXPECT_EQ(experiment_name_from("bench_e9_valency_exact"),
            "e9_valency_exact");
  EXPECT_EQ(experiment_name_from("./custom_tool"), "custom_tool");
}

TEST(BenchReportTest, BuildsSchemaConformingJson) {
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("utest");
  report.note_grid(64, 32);
  report.note_grid(64, 32);  // duplicates collapse
  report.note_grid(128, 64);

  Table table("U: demo");
  table.header({"n", "rounds", "label"});
  table.row({static_cast<long long>(64), 3.5, std::string("ok")});
  report.add_table(table);

  const auto doc = report.to_json();
  EXPECT_EQ(doc.find("schema")->as_string(), kBenchSchema);
  EXPECT_EQ(doc.find("experiment")->as_string(), "utest");
  EXPECT_EQ(doc.find("seed")->as_int(), static_cast<std::int64_t>(kSeed));
  EXPECT_FALSE(doc.find("git_rev")->as_string().empty());
  ASSERT_EQ(doc.find("grid")->as_array().size(), 2u);
  EXPECT_EQ(doc.find("grid")->as_array()[1].find("n")->as_int(), 128);
  const auto& tables = doc.find("tables")->as_array();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].find("title")->as_string(), "U: demo");
  const auto& row = tables[0].find("rows")->as_array()[0].as_array();
  EXPECT_TRUE(row[0].is_int());
  EXPECT_TRUE(row[1].is_double());
  EXPECT_EQ(row[2].as_string(), "ok");

  // Identical content serializes identically (the determinism the
  // acceptance criterion demands of seeded fields).
  EXPECT_EQ(doc.dump(), report.to_json().dump());
  report.reset();
}

TEST(BenchReportTest, WriteLandsInRequestedDirectory) {
  const fs::path dir = fs::path(testing::TempDir()) / "synran_bench_out";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("write_test");
  const std::string path = report.write(dir.string());
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(fs::exists(dir / "BENCH_write_test.json"));
  const auto parsed = obs::JsonValue::parse(slurp(path));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("schema")->as_string(), kBenchSchema);
  report.reset();
  fs::remove_all(dir);
}

TEST(BenchTimings, ExtractsTheStableGoogleBenchmarkFields) {
  const std::string gbench = R"({
    "context": {"date": "ignored", "host_name": "ignored"},
    "benchmarks": [
      {"name": "BM_Round/64", "run_type": "iteration", "iterations": 100,
       "real_time": 1.5, "cpu_time": 1.25, "time_unit": "ns",
       "threads": 1}
    ]
  })";
  const auto timings = extract_timings(gbench);
  ASSERT_TRUE(timings.is_array());
  ASSERT_EQ(timings.as_array().size(), 1u);
  const auto& t = timings.as_array()[0];
  EXPECT_EQ(t.find("name")->as_string(), "BM_Round/64");
  EXPECT_EQ(t.find("iterations")->as_int(), 100);
  EXPECT_DOUBLE_EQ(t.find("real_time")->as_double(), 1.5);
  EXPECT_EQ(t.find("time_unit")->as_string(), "ns");
  EXPECT_EQ(t.find("threads"), nullptr);  // non-schema fields dropped

  EXPECT_EQ(extract_timings("not json").as_array().size(), 0u);
  EXPECT_EQ(extract_timings("{}").as_array().size(), 0u);
}

TEST(BenchTrace, AttackRunHonoursTraceDirAndNotesGrid) {
  const fs::path dir = fs::path(testing::TempDir()) / "synran_trace_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScopedEnv env("SYNRAN_TRACE_DIR", dir.string());
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("tracetest");

  SynRanFactory factory;
  const auto stats =
      attack_run(factory, 8, 4, InputPattern::Half, 3, kSeed);
  EXPECT_EQ(stats.reps(), 3u);
  ASSERT_EQ(report.to_json().find("grid")->as_array().size(), 1u);

  // Exactly one trace file for the batch, tagged with the grid point, and
  // holding one run_begin per rep.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    files.push_back(entry.path());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].filename().string().find("tracetest"),
            std::string::npos);
  EXPECT_NE(files[0].filename().string().find("n8-t4"), std::string::npos);
  const std::string contents = slurp(files[0]);
  std::size_t begins = 0;
  std::istringstream lines(contents);
  std::string line;
  while (std::getline(lines, line)) {
    const auto ev = obs::JsonValue::parse(line);
    ASSERT_TRUE(ev.has_value()) << line;
    if (ev->find("event")->as_string() == "run_begin") ++begins;
  }
  EXPECT_EQ(begins, 3u);
  report.reset();
  fs::remove_all(dir);
}

TEST(BenchTrace, NoEnvMeansNoObserver) {
  ScopedEnv env("SYNRAN_TRACE_DIR", "");
  auto trace = open_trace("tag");
  EXPECT_EQ(trace.observer(), nullptr);
}

TEST(ResilienceBench, EnvOverridesPolicyAndRetries) {
  {
    ScopedEnv policy("SYNRAN_FAIL_POLICY", "quarantine");
    ScopedEnv retries("SYNRAN_REP_RETRIES", "2");
    EXPECT_EQ(bench_fail_policy(), FailurePolicy::Quarantine);
    EXPECT_EQ(bench_rep_retries(), 2u);
  }
  {
    ScopedEnv policy("SYNRAN_FAIL_POLICY", "fail_fast");
    EXPECT_EQ(bench_fail_policy(FailurePolicy::Quarantine),
              FailurePolicy::FailFast);
  }
  {
    // A typo must abort the sweep, not silently run under the fallback.
    ScopedEnv policy("SYNRAN_FAIL_POLICY", "quarentine");
    EXPECT_THROW(bench_fail_policy(), ArgumentError);
  }
  {
    ScopedEnv retries("SYNRAN_REP_RETRIES", "");
    EXPECT_EQ(bench_rep_retries(3), 3u);  // empty means unset
  }
  // Retries parse as strictly: a sign, trailing text or an overflow throws
  // instead of guessing.
  for (const char* bad : {"-1", "8x", "4294967296"}) {
    ScopedEnv retries("SYNRAN_REP_RETRIES", bad);
    try {
      bench_rep_retries();
      ADD_FAILURE() << "accepted SYNRAN_REP_RETRIES='" << bad << "'";
    } catch (const ArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("SYNRAN_REP_RETRIES"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ResilienceBench, PartialAndFailuresRideAlongInTheReport) {
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("shape_test");

  // Untouched reports keep the exact pre-resilience JSON shape.
  const auto before = report.to_json();
  EXPECT_EQ(before.find("partial"), nullptr);
  EXPECT_EQ(before.find("failures"), nullptr);

  report.mark_partial();
  report.note_failure(3, RepFailure{2, 77, 2, "boom"});
  const auto doc = report.to_json();
  ASSERT_NE(doc.find("partial"), nullptr);
  EXPECT_TRUE(doc.find("partial")->as_bool());
  const auto& fails = doc.find("failures")->as_array();
  ASSERT_EQ(fails.size(), 1u);
  EXPECT_EQ(fails[0].find("cell")->as_int(), 3);
  EXPECT_EQ(fails[0].find("rep")->as_int(), 2);
  EXPECT_EQ(fails[0].find("seed")->as_int(), 77);
  EXPECT_EQ(fails[0].find("attempts")->as_int(), 2);
  EXPECT_EQ(fails[0].find("error")->as_string(), "boom");
  report.reset();
}

TEST(ResilienceBench, UnwritableBenchDirLeavesNoPartialOrTempFiles) {
  // A path beneath a regular file can never be a directory (robust even as
  // root, unlike permission tricks): write() must report failure by
  // returning "" and leave neither the report nor its temp file behind.
  const fs::path block = fs::path(testing::TempDir()) / "synran_bench_block";
  fs::remove(block);
  { std::ofstream out(block); }
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("blocked");
  const std::string dir = (block / "sub").string();
  EXPECT_EQ(report.write(dir), "");
  EXPECT_FALSE(fs::exists(dir + "/BENCH_blocked.json"));
  EXPECT_FALSE(fs::exists(dir + "/BENCH_blocked.json.tmp"));
  report.reset();
  fs::remove(block);
}

TEST(ResilienceBench, RunCellRecordsThenRestoresFromTheLedger) {
  const fs::path dir = fs::path(testing::TempDir()) / "synran_ckpt_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScopedEnv ckpt_dir("SYNRAN_CKPT_DIR", dir.string());
  ScopedEnv no_trace("SYNRAN_TRACE_DIR", "");
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("ckpt_cell");
  CheckpointState::instance().reset();

  SynRanFactory factory;
  RepeatSpec spec;
  spec.n = 8;
  spec.pattern = InputPattern::Half;
  spec.reps = 4;
  spec.seed = kSeed;
  spec.engine.t_budget = 3;
  const std::string fresh =
      run_cell(factory, no_adversary_factory(), spec, "utest")
          .checkpoint_json()
          .dump();
  EXPECT_TRUE(fs::exists(dir / "CKPT_ckpt_cell.jsonl"));

  // Second sweep over the same grid with SYNRAN_RESUME=1: cell 0 must be
  // served from the ledger (the notice proves the engine never ran).
  ScopedEnv resume("SYNRAN_RESUME", "1");
  CheckpointState::instance().reset();
  testing::internal::CaptureStdout();
  const std::string restored =
      run_cell(factory, no_adversary_factory(), spec, "utest")
          .checkpoint_json()
          .dump();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("[ckpt: cell 0 restored]"), std::string::npos) << out;
  EXPECT_EQ(fresh, restored);

  // A changed spec (different cell key) must recompute, not serve stale
  // data recorded for the old sweep.
  CheckpointState::instance().reset();
  RepeatSpec changed = spec;
  changed.reps = 5;
  testing::internal::CaptureStdout();
  run_cell(factory, no_adversary_factory(), changed, "utest");
  const std::string out2 = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out2.find("restored"), std::string::npos) << out2;

  CheckpointState::instance().reset();
  report.reset();
  fs::remove_all(dir);
}

TEST(ResilienceBench, AsyncCellRecordsThenRestoresByteIdentically) {
  const fs::path dir = fs::path(testing::TempDir()) / "synran_async_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ScopedEnv ckpt_dir("SYNRAN_CKPT_DIR", dir.string());
  ScopedEnv no_trace("SYNRAN_TRACE_DIR", "");
  auto& report = BenchReport::instance();
  report.reset();
  report.set_experiment("async_ckpt_cell");
  CheckpointState::instance().reset();

  BenOrAsyncFactory factory;
  AsyncRepeatSpec spec;
  spec.n = 6;
  spec.pattern = InputPattern::Half;
  spec.reps = 4;
  spec.seed = kSeed;
  spec.engine.t_budget = 1;
  const std::string fresh =
      run_async_cell(factory, random_scheduler_factory(),
                     fixed_delay_factory(1), spec, "utest-async")
          .checkpoint_json()
          .dump();
  EXPECT_TRUE(fs::exists(dir / "CKPT_async_ckpt_cell.jsonl"));

  // Resumed sweep: the cell must come back from the ledger byte-identical
  // (the notice proves the async engine never ran).
  ScopedEnv resume("SYNRAN_RESUME", "1");
  CheckpointState::instance().reset();
  testing::internal::CaptureStdout();
  const std::string restored =
      run_async_cell(factory, random_scheduler_factory(),
                     fixed_delay_factory(1), spec, "utest-async")
          .checkpoint_json()
          .dump();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("[ckpt: cell 0 restored]"), std::string::npos) << out;
  EXPECT_EQ(fresh, restored);

  // A changed async spec (different cell key) recomputes instead of
  // serving the stale record.
  CheckpointState::instance().reset();
  AsyncRepeatSpec changed = spec;
  changed.reps = 5;
  testing::internal::CaptureStdout();
  run_async_cell(factory, random_scheduler_factory(), fixed_delay_factory(1),
                 changed, "utest-async");
  const std::string out2 = testing::internal::GetCapturedStdout();
  EXPECT_EQ(out2.find("restored"), std::string::npos) << out2;

  CheckpointState::instance().reset();
  report.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace synran::bench
