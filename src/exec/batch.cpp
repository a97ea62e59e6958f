#include "exec/batch.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/checkpoint.hpp"
#include "obs/trace_aggregate.hpp"

namespace synran {

const char* to_string(InputPattern p) {
  switch (p) {
    case InputPattern::AllZero:
      return "all-0";
    case InputPattern::AllOne:
      return "all-1";
    case InputPattern::Half:
      return "half";
    case InputPattern::Random:
      return "random";
    case InputPattern::SingleZero:
      return "single-0";
  }
  return "?";
}

void make_inputs(std::vector<Bit>& out, std::uint32_t n, InputPattern pattern,
                 Xoshiro256& rng) {
  SYNRAN_REQUIRE(n >= 1, "need at least one process");
  out.assign(n, Bit::Zero);
  switch (pattern) {
    case InputPattern::AllZero:
      break;
    case InputPattern::AllOne:
      out.assign(n, Bit::One);
      break;
    case InputPattern::Half:
      for (std::uint32_t i = n / 2; i < n; ++i) out[i] = Bit::One;
      break;
    case InputPattern::Random:
      for (auto& b : out) b = bit_of(rng.flip());
      break;
    case InputPattern::SingleZero:
      out.assign(n, Bit::One);
      out[rng.below(n)] = Bit::Zero;
      break;
  }
}

std::vector<Bit> make_inputs(std::uint32_t n, InputPattern pattern,
                             Xoshiro256& rng) {
  std::vector<Bit> inputs;
  make_inputs(inputs, n, pattern, rng);
  return inputs;
}

Xoshiro256 input_rng_for_rep(std::uint64_t seed, std::size_t rep) {
  return Xoshiro256(SeedSequence(seed).stream(kInputStreamBase + rep));
}

std::uint64_t adversary_seed_for_rep(std::uint64_t seed, std::size_t rep) {
  return SeedSequence(seed).stream(kAdversaryStreamBase + rep);
}

std::uint64_t engine_seed_for_rep(std::uint64_t seed, std::size_t rep) {
  return SeedSequence(seed).stream(kEngineStreamBase + rep);
}

AdversaryFactory no_adversary_factory() {
  return [](std::uint64_t) { return std::make_unique<NoAdversary>(); };
}

const char* to_string(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::FailFast:
      return "fail_fast";
    case FailurePolicy::Quarantine:
      return "quarantine";
  }
  return "?";
}

obs::JsonValue RepFailure::to_json() const {
  return obs::JsonValue::object()
      .set("rep", obs::JsonValue(std::uint64_t{rep}))
      .set("seed", obs::JsonValue(seed))
      .set("attempts", obs::JsonValue(attempts))
      .set("error", error);
}

namespace {

std::string rep_error_message(std::size_t rep, std::uint64_t seed,
                              const std::string& what) {
  return "rep " + std::to_string(rep) + " (engine seed " +
         std::to_string(seed) + ") failed: " + what;
}

}  // namespace

RepError::RepError(std::size_t rep, std::uint64_t seed,
                   const std::string& what)
    : std::runtime_error(rep_error_message(rep, seed, what)),
      rep_(rep),
      seed_(seed) {}

BatchStats::BatchStats(const char* label,
                       std::span<const char* const> summaries)
    : label_(label), summaries_(summaries) {
  for (const char* name : summaries_) metrics_.summary(name);
  for (const char* name : obs::kRunCounters) metrics_.counter(name);
}

void BatchStats::note_quarantined(RepFailure failure) {
  metrics_.counter("reps_quarantined").inc();
  failures_.push_back(std::move(failure));
}

void BatchStats::count_rep(bool terminated, bool disagreed, bool valid,
                           bool one) {
  metrics_.counter("reps").inc();
  if (!terminated) metrics_.counter("non_terminated").inc();
  if (disagreed) metrics_.counter("agreement_failures").inc();
  if (!valid) metrics_.counter("validity_failures").inc();
  if (one) metrics_.counter("decided_one").inc();
}

std::size_t BatchStats::reps() const {
  return metrics_.counter_at("reps").value();
}
std::size_t BatchStats::agreement_failures() const {
  return metrics_.counter_at("agreement_failures").value();
}
std::size_t BatchStats::validity_failures() const {
  return metrics_.counter_at("validity_failures").value();
}
std::size_t BatchStats::non_terminated() const {
  return metrics_.counter_at("non_terminated").value();
}
std::size_t BatchStats::decided_one() const {
  return metrics_.counter_at("decided_one").value();
}
std::size_t BatchStats::reps_quarantined() const {
  return metrics_.counter_at("reps_quarantined").value();
}

obs::JsonValue BatchStats::checkpoint_json() const {
  obs::JsonValue failures = obs::JsonValue::array();
  for (const RepFailure& f : failures_) failures.push(f.to_json());
  return obs::JsonValue::object()
      .set("stats", obs::registry_snapshot(metrics_))
      .set("failures", std::move(failures));
}

void BatchStats::restore(const obs::JsonValue& payload) {
  const std::string label = label_;
  SYNRAN_REQUIRE(payload.is_object(),
                 label + " checkpoint payload must be an object");
  const obs::JsonValue* stats = payload.find("stats");
  const obs::JsonValue* failures = payload.find("failures");
  SYNRAN_REQUIRE(stats != nullptr && failures != nullptr &&
                     failures->is_array(),
                 label + " checkpoint payload needs 'stats' and 'failures'");

  metrics_ = obs::registry_restore(*stats);
  // Every accessor the harnesses read must resolve; a snapshot that lost a
  // pre-registered metric is a foreign or corrupt payload (e.g. a sync
  // cell's snapshot served to an async sweep).
  for (const char* name : summaries_) {
    SYNRAN_REQUIRE(metrics_.has_summary(name),
                   label + " checkpoint missing summary: " + name);
  }
  for (const char* name : obs::kRunCounters) {
    SYNRAN_REQUIRE(metrics_.has_counter(name),
                   label + " checkpoint missing counter: " + name);
  }

  failures_.clear();
  for (const obs::JsonValue& entry : failures->as_array()) {
    const obs::JsonValue* rep = entry.find("rep");
    const obs::JsonValue* seed = entry.find("seed");
    const obs::JsonValue* attempts = entry.find("attempts");
    const obs::JsonValue* error = entry.find("error");
    SYNRAN_REQUIRE(rep != nullptr && rep->is_int() && rep->as_int() >= 0 &&
                       seed != nullptr && seed->is_int() &&
                       attempts != nullptr && attempts->is_int() &&
                       attempts->as_int() >= 1 && error != nullptr &&
                       error->is_string(),
                   label + " checkpoint failure entry malformed");
    failures_.push_back(RepFailure{
        static_cast<std::size_t>(rep->as_int()),
        static_cast<std::uint64_t>(seed->as_int()),
        static_cast<std::uint32_t>(attempts->as_int()), error->as_string()});
  }
  SYNRAN_REQUIRE(failures_.size() == reps_quarantined(),
                 label + " checkpoint failure list disagrees with counter");
}

RepeatedRunStats::RepeatedRunStats()
    : BatchStats("stats", obs::kRunSummaries) {}

void RepeatedRunStats::add(const RunSummary& rep) {
  count_rep(rep.terminated, rep.has_decision && !rep.agreement, rep.validity,
            rep.agreement && rep.decision == Bit::One);
  obs::fold_run_summaries(metrics_, rep.terminated, rep.rounds_to_decision,
                          rep.rounds_to_halt, rep.faults);
}

const Summary& RepeatedRunStats::rounds_to_decision() const {
  return metrics_.summary_at("rounds_to_decision");
}
const Summary& RepeatedRunStats::rounds_to_halt() const {
  return metrics_.summary_at("rounds_to_halt");
}
const Summary& RepeatedRunStats::crashes_used() const {
  return metrics_.summary_at("crashes_used");
}
const Summary& RepeatedRunStats::messages_delivered() const {
  return metrics_.summary_at("messages_delivered");
}
const Summary& RepeatedRunStats::omissions_used() const {
  return metrics_.summary_at("omissions_used");
}
const Summary& RepeatedRunStats::messages_omitted() const {
  return metrics_.summary_at("messages_omitted");
}
const Summary& RepeatedRunStats::corruptions_used() const {
  return metrics_.summary_at("corruptions_used");
}
const Summary& RepeatedRunStats::messages_corrupted() const {
  return metrics_.summary_at("messages_corrupted");
}

RepeatedRunStats RepeatedRunStats::from_checkpoint(
    const obs::JsonValue& payload) {
  RepeatedRunStats restored;
  restored.restore(payload);
  return restored;
}

std::string spec_cell_key(const RepeatSpec& spec, std::string_view protocol,
                          std::string_view tag) {
  std::string key;
  key += "proto=";
  key += protocol;
  key += ";tag=";
  key += tag;
  key += ";n=" + std::to_string(spec.n);
  key += ";pattern=";
  key += to_string(spec.pattern);
  key += ";reps=" + std::to_string(spec.reps);
  key += ";seed=" + std::to_string(spec.seed);
  key += ";t=" + std::to_string(spec.engine.t_budget);
  key += ";cap=" + std::to_string(spec.engine.per_round_cap);
  key += ";omb=" + std::to_string(spec.engine.omission_budget);
  key += ";omc=" + std::to_string(spec.engine.omission_round_cap);
  key += ";byz=" + std::to_string(spec.engine.byzantine_budget);
  key += ";bzc=" + std::to_string(spec.engine.byzantine_round_cap);
  key += ";max_rounds=" + std::to_string(spec.engine.max_rounds);
  key += ";strict=" + std::to_string(spec.engine.strict_decision_audit ? 1 : 0);
  key += ";policy=";
  key += to_string(spec.policy);
  key += ";retries=" + std::to_string(spec.max_rep_retries);
  key += ";seed_schema=" + std::to_string(kSeedSchemaVersion);
  return key;
}

}  // namespace synran
