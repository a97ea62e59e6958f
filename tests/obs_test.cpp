// Tests for the observability layer: the deterministic JSON model, the
// metrics registry, observer fan-out ordering, and the composed engine view
// (JSONL trace + metrics + recorded round observations must all agree on
// one run).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "adversary/coinbias.hpp"
#include "common/check.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_observer.hpp"
#include "obs/observer.hpp"
#include "obs/trace_record.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "sim/engine.hpp"

namespace synran {
namespace {

using obs::JsonValue;

// ----------------------------------------------------------------- JSON

TEST(ObsJson, DumpIsCompactTypedAndInsertionOrdered) {
  JsonValue doc = JsonValue::object()
                      .set("b", JsonValue(std::int64_t{2}))
                      .set("a", JsonValue(1.5))
                      .set("s", JsonValue("x\"y\n"))
                      .set("null", JsonValue(nullptr))
                      .set("flag", JsonValue(true));
  // "b" stays before "a": insertion order, not name order. The integer must
  // not grow a decimal point.
  EXPECT_EQ(doc.dump(),
            "{\"b\":2,\"a\":1.5,\"s\":\"x\\\"y\\n\",\"null\":null,"
            "\"flag\":true}");
}

TEST(ObsJson, DuplicateKeysRejected) {
  JsonValue doc = JsonValue::object().set("k", JsonValue(1));
  EXPECT_THROW(doc.set("k", JsonValue(2)), InvariantError);
  EXPECT_THROW(JsonValue::array().set("k", JsonValue(1)), InvariantError);
  EXPECT_THROW(JsonValue::object().push(JsonValue(1)), InvariantError);
}

TEST(ObsJson, ParseRoundTripsWriterOutput) {
  JsonValue doc = JsonValue::object()
                      .set("ints", JsonValue::array()
                                       .push(JsonValue(0))
                                       .push(JsonValue(std::int64_t{-7})))
                      .set("pi", JsonValue(3.140625))
                      .set("nested", JsonValue::object().set(
                                         "deep", JsonValue("víz\t")));
  const std::string text = doc.dump();
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), text);
  // Integer-ness survives the round trip.
  EXPECT_TRUE(parsed->find("ints")->as_array()[1].is_int());
  EXPECT_TRUE(parsed->find("pi")->is_double());
}

TEST(ObsJson, ParseAcceptsStandardJson) {
  const auto v = JsonValue::parse(
      " { \"a\" : [ 1 , 2.5 , \"\\u00e9\\n\" , null , false ] } ");
  ASSERT_TRUE(v.has_value());
  const auto& arr = v->find("a")->as_array();
  ASSERT_EQ(arr.size(), 5u);
  EXPECT_EQ(arr[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(arr[1].as_double(), 2.5);
  EXPECT_EQ(arr[2].as_string(), "é\n");
  EXPECT_TRUE(arr[3].is_null());
  EXPECT_FALSE(arr[4].as_bool());
}

TEST(ObsJson, ParseRejectsGarbage) {
  std::string err;
  for (const char* bad : {"", "{", "{\"a\":}", "[1,]", "nul", "1 2",
                          "\"unterminated", "{\"a\":1}trailing"}) {
    EXPECT_FALSE(JsonValue::parse(bad, &err).has_value()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// Depth-cap suite: hostile nesting is a syntax error with an offset, never a
// stack overflow.

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(ObsJsonDepth, AcceptsTheCapAndRejectsOneLevelMore) {
  std::string err;
  EXPECT_TRUE(
      JsonValue::parse(nested_arrays(obs::kMaxJsonDepth), &err).has_value())
      << err;
  EXPECT_FALSE(JsonValue::parse(nested_arrays(obs::kMaxJsonDepth + 1), &err)
                   .has_value());
  // The offset is that of the bracket that would open one level too many.
  EXPECT_EQ(err, "nesting deeper than 512 levels at offset 512");

  // Objects and mixed nesting count toward the same cap.
  std::string mixed;
  for (std::size_t d = 0; d <= obs::kMaxJsonDepth; ++d)
    mixed += d % 2 == 0 ? "{\"k\":" : "[";
  EXPECT_FALSE(JsonValue::parse(mixed, &err).has_value());
  EXPECT_NE(err.find("nesting deeper than 512 levels"), std::string::npos)
      << err;
}

std::string nested_objects(std::size_t depth) {
  std::string doc;
  doc.reserve(5 * depth);
  for (std::size_t d = 0; d < depth; ++d) doc += "{\"k\":";
  return doc;
}

TEST(ObsJsonDepth, HundredThousandLevelsFailCleanly) {
  std::string err;
  EXPECT_FALSE(JsonValue::parse(std::string(100000, '['), &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 levels at offset 512");
  EXPECT_FALSE(JsonValue::parse(nested_arrays(100000), &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 levels at offset 512");
  EXPECT_FALSE(JsonValue::parse(nested_objects(100000), &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 levels at offset 2560");
}

TEST(ObsJsonDepth, MillionLevelsFailCleanly) {
  std::string err;
  EXPECT_FALSE(JsonValue::parse(std::string(1000000, '['), &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 levels at offset 512");
  EXPECT_FALSE(JsonValue::parse(nested_objects(1000000), &err).has_value());
  EXPECT_EQ(err, "nesting deeper than 512 levels at offset 2560");
}

// --------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterGaugeHistogramBasics) {
  obs::Counter c;
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);

  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  obs::Histogram h(std::vector<double>{1.0, 4.0});
  h.add(0.5);  // bucket 0
  h.add(1.0);  // bucket 0 (inclusive upper bound)
  h.add(3.0);  // bucket 1
  h.add(9.0);  // overflow
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
}

TEST(ObsMetrics, RegistryCreatesOnWriteAndThrowsOnMissingRead) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("runs").inc();
  reg.summary("rounds").add(3.0);
  EXPECT_EQ(reg.counter_at("runs").value(), 1u);
  EXPECT_TRUE(reg.has_counter("runs"));
  EXPECT_FALSE(reg.has_counter("never"));
  EXPECT_THROW(reg.counter_at("never"), ArgumentError);
  EXPECT_THROW(reg.summary_at("never"), ArgumentError);
}

TEST(ObsMetrics, HistogramBoundsMustMatchOnReLookup) {
  obs::MetricsRegistry reg;
  reg.histogram("h", {1.0, 2.0}).add(1.5);
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}).add(0.5));
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), ArgumentError);
}

TEST(ObsMetrics, MergeFoldsEveryKind) {
  obs::MetricsRegistry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(3);
  b.counter("only_b").inc();
  a.gauge("g").set(1.0);
  b.gauge("g").set(9.0);
  a.histogram("h", {2.0}).add(1.0);
  b.histogram("h", {2.0}).add(5.0);
  a.summary("s").add(1.0);
  b.summary("s").add(3.0);

  a.merge(b);
  EXPECT_EQ(a.counter_at("c").value(), 5u);
  EXPECT_EQ(a.counter_at("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge_at("g").value(), 9.0);
  EXPECT_EQ(a.histogram_at("h").count(), 2u);
  EXPECT_EQ(a.histogram_at("h").counts()[1], 1u);
  EXPECT_EQ(a.summary_at("s").count(), 2u);
  EXPECT_DOUBLE_EQ(a.summary_at("s").mean(), 2.0);
}

TEST(ObsMetrics, ToJsonIsNameOrderedAndParseable) {
  obs::MetricsRegistry reg;
  reg.counter("zeta").inc(1);
  reg.counter("alpha").inc(2);
  reg.gauge("load").set(0.5);
  reg.histogram("lat", {1.0}).add(0.5);
  reg.summary("rounds").add(4.0);

  const std::string text = reg.to_json().dump();
  const auto parsed = JsonValue::parse(text);
  ASSERT_TRUE(parsed.has_value());
  // std::map storage: "alpha" serializes before "zeta" regardless of the
  // write order above.
  EXPECT_LT(text.find("\"alpha\""), text.find("\"zeta\""));
  const auto* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("alpha")->as_int(), 2);
  EXPECT_EQ(parsed->find("summaries")->find("rounds")->find("mean")
                ->as_double(),
            4.0);
}

// ------------------------------------------------------------- fan-out

/// Appends "<tag>:<callback>" to a shared log; proves ordering.
class RecordingObserver final : public obs::EngineObserver {
 public:
  RecordingObserver(std::string tag, std::vector<std::string>& log)
      : tag_(std::move(tag)), log_(&log) {}

  void on_run_begin(const obs::RunInfo&) override { put("run_begin"); }
  void on_round_begin(const obs::RoundObservation&) override {
    put("round_begin");
  }
  void on_fault_plan(Round, const FaultPlan&) override { put("fault_plan"); }
  void on_deliveries(Round, std::uint64_t) override { put("deliveries"); }
  void on_round_end(const obs::RoundObservation&) override {
    put("round_end");
  }
  void on_run_end(const obs::RunObservation&) override { put("run_end"); }

 private:
  void put(const char* what) { log_->push_back(tag_ + ":" + what); }
  std::string tag_;
  std::vector<std::string>* log_;
};

TEST(ObsMultiObserver, FansOutEveryCallbackInInstallationOrder) {
  std::vector<std::string> log;
  RecordingObserver first("a", log), second("b", log);
  obs::MultiObserver multi;
  multi.add(first);
  multi.add(second);
  ASSERT_EQ(multi.size(), 2u);

  multi.on_run_begin({});
  multi.on_round_begin({});
  multi.on_fault_plan(1, FaultPlan{});
  multi.on_deliveries(1, 10);
  multi.on_round_end({});
  multi.on_run_end({});

  const std::vector<std::string> want = {
      "a:run_begin",   "b:run_begin",   "a:round_begin", "b:round_begin",
      "a:fault_plan",  "b:fault_plan",  "a:deliveries",  "b:deliveries",
      "a:round_end",   "b:round_end",   "a:run_end",     "b:run_end"};
  EXPECT_EQ(log, want);
}

// ------------------------------------------------- composed engine view

/// One adversarial run observed three ways at once; every view must agree.
struct ComposedRun {
  std::string jsonl;
  obs::MetricsRegistry metrics;
  std::vector<obs::TraceRecord> records;
  RunResult result;
};

ComposedRun run_composed(std::uint64_t seed) {
  ComposedRun out;
  std::ostringstream stream;
  obs::JsonlTraceWriter writer(stream);
  obs::MetricsObserver metrics;
  obs::TraceRecorder recorder(out.records);
  obs::MultiObserver multi;
  multi.add(writer);
  multi.add(metrics);
  multi.add(recorder);

  CoinBiasAdversary inner({0.55, true, seed});

  SynRanFactory factory;
  EngineOptions opts;
  opts.t_budget = 8;
  opts.seed = seed;
  opts.max_rounds = 100000;
  opts.observer = &multi;
  Xoshiro256 rng(seed);
  out.result = run_once(factory, make_inputs(16, InputPattern::Half, rng),
                        inner, opts);
  out.jsonl = stream.str();
  out.metrics = metrics.metrics();
  return out;
}

TEST(ObsComposed, TraceMetricsAndAdversaryViewsAgree) {
  const ComposedRun run = run_composed(17);
  ASSERT_TRUE(run.result.terminated);

  // Parse the JSONL stream back.
  std::istringstream lines(run.jsonl);
  std::string line;
  std::vector<JsonValue> events;
  while (std::getline(lines, line)) {
    auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    events.push_back(std::move(*v));
  }
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().find("event")->as_string(), "run_begin");
  EXPECT_EQ(events.front().find("schema")->as_string(), obs::kTraceSchema);
  EXPECT_EQ(events.back().find("event")->as_string(), "run_end");

  // One round event per communication round, matching both the engine's
  // round count and the recorded round observations.
  std::vector<obs::RoundObservation> recorded;
  for (const auto& r : run.records)
    if (r.kind == obs::TraceRecordKind::RoundEnd) recorded.push_back(r.round);
  const std::size_t round_events = events.size() - 2;
  EXPECT_EQ(round_events, run.result.rounds_to_halt);
  ASSERT_EQ(round_events, recorded.size());
  for (std::size_t i = 0; i < round_events; ++i) {
    const auto& ev = events[i + 1];
    EXPECT_EQ(ev.find("event")->as_string(), "round");
    EXPECT_EQ(ev.find("crashes")->as_int(), recorded[i].faults.crashes);
    EXPECT_EQ(ev.find("alive")->as_int(), recorded[i].alive);
    EXPECT_EQ(ev.find("senders")->as_int(), recorded[i].senders);
    EXPECT_EQ(static_cast<std::uint32_t>(ev.find("crashes")->as_int()),
              run.result.crashes_per_round[i]);
  }

  // run_end totals match the engine's RunResult.
  const auto& end = events.back();
  EXPECT_EQ(end.find("crashes")->as_int(), run.result.faults.crashes);
  EXPECT_EQ(static_cast<std::uint64_t>(end.find("delivered")->as_int()),
            run.result.faults.delivered);
  EXPECT_EQ(end.find("terminated")->as_bool(), run.result.terminated);
  EXPECT_EQ(end.find("agreement")->as_bool(), run.result.agreement);
  ASSERT_TRUE(run.result.has_decision);
  EXPECT_EQ(end.find("decision")->as_int(), to_int(run.result.decision));

  // Metrics observer agrees with both.
  EXPECT_EQ(run.metrics.counter_at("runs").value(), 1u);
  EXPECT_EQ(run.metrics.counter_at("rounds").value(),
            run.result.rounds_to_halt);
  EXPECT_EQ(run.metrics.counter_at("crashes").value(),
            run.result.faults.crashes);
  EXPECT_EQ(run.metrics.counter_at("messages_delivered").value(),
            run.result.faults.delivered);
  EXPECT_EQ(run.metrics.histogram_at("crashes_per_round").count(),
            round_events);

  // The recorded run still satisfies the §3.1 model invariants.
  const auto report = check_model_invariants(run.records);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(ObsTraceWriter, RunAbandonedClosesOpenRunsAndStandsAloneOnSetupFailure) {
  std::ostringstream stream;
  obs::JsonlTraceWriter writer(stream);

  // Setup failure before any run_begin: the event stands alone under the
  // index the aborted execution would have used (0), and the next run_begin
  // reuses that index — the retry is the same logical run.
  writer.on_run_abandoned(obs::RunAbandoned{0, 11, 0, "factory threw"});
  writer.on_run_begin({});
  // Mid-run failure: closes run 0; the retry opens run 1.
  writer.on_run_abandoned(obs::RunAbandoned{0, 11, 1, "engine threw"});
  writer.on_run_begin({});

  std::istringstream lines(stream.str());
  std::string line;
  std::vector<JsonValue> events;
  while (std::getline(lines, line)) {
    auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    events.push_back(std::move(*v));
  }
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].find("event")->as_string(), "run_abandoned");
  EXPECT_EQ(events[0].find("run")->as_int(), 0);
  EXPECT_EQ(events[0].find("rep")->as_int(), 0);
  EXPECT_EQ(events[0].find("seed")->as_int(), 11);
  EXPECT_EQ(events[0].find("attempt")->as_int(), 0);
  EXPECT_EQ(events[0].find("error")->as_string(), "factory threw");
  EXPECT_EQ(events[1].find("event")->as_string(), "run_begin");
  EXPECT_EQ(events[1].find("run")->as_int(), 0);
  EXPECT_EQ(events[2].find("event")->as_string(), "run_abandoned");
  EXPECT_EQ(events[2].find("run")->as_int(), 0);
  EXPECT_EQ(events[2].find("attempt")->as_int(), 1);
  EXPECT_EQ(events[3].find("event")->as_string(), "run_begin");
  EXPECT_EQ(events[3].find("run")->as_int(), 1);
}

TEST(ObsComposed, JsonlStreamIsSeedDeterministic) {
  EXPECT_EQ(run_composed(99).jsonl, run_composed(99).jsonl);
  EXPECT_NE(run_composed(99).jsonl, run_composed(100).jsonl);
}

TEST(ObsMetricsObserver, NonTerminatedRunsLeaveSummariesEmpty) {
  obs::MetricsObserver metrics;
  NoAdversary none;
  FloodMinFactory factory({2, false});  // needs t+1 = 3 rounds
  EngineOptions opts;
  opts.max_rounds = 1;  // force a non-terminated run
  opts.observer = &metrics;
  Xoshiro256 rng(5);
  const auto res =
      run_once(factory, make_inputs(6, InputPattern::Half, rng), none, opts);
  ASSERT_FALSE(res.terminated);
  EXPECT_EQ(metrics.metrics().counter_at("runs").value(), 1u);
  EXPECT_EQ(metrics.metrics().counter_at("runs_terminated").value(), 0u);
  EXPECT_EQ(metrics.metrics().summary_at("rounds_to_decision").count(), 0u);
}

// ------------------------------------------- registry-backed aggregates

TEST(ObsRunner, RepeatedRunStatsExposeRegistry) {
  SynRanFactory factory;
  RepeatSpec spec;
  spec.n = 8;
  spec.pattern = InputPattern::Half;
  spec.reps = 7;
  spec.seed = 21;
  const auto stats = run_repeated(factory, no_adversary_factory(), spec);
  EXPECT_EQ(stats.reps(), 7u);
  EXPECT_EQ(stats.messages_delivered().count(), 7u);
  EXPECT_GT(stats.messages_delivered().mean(), 0.0);
  // The registry itself is addressable (and serializable) alongside the
  // named accessors.
  EXPECT_EQ(stats.metrics().counter_at("reps").value(), 7u);
  EXPECT_DOUBLE_EQ(stats.metrics().summary_at("rounds_to_decision").mean(),
                   stats.rounds_to_decision().mean());
  const auto parsed = JsonValue::parse(stats.metrics().to_json().dump());
  EXPECT_TRUE(parsed.has_value());
}

TEST(ObsRunner, ZeroRepAggregateReadsBackAsZeros) {
  const RepeatedRunStats stats;
  EXPECT_EQ(stats.reps(), 0u);
  EXPECT_EQ(stats.agreement_failures(), 0u);
  EXPECT_EQ(stats.rounds_to_decision().count(), 0u);
  EXPECT_TRUE(stats.all_safe());
}

}  // namespace
}  // namespace synran
