#include "serve/plan.hpp"

#include "runner/experiment.hpp"

namespace synran::serve {

namespace {

using obs::JsonValue;

/// The reply both models share, in the key order clients see. `model_mean`
/// names the one summary that differs: rounds_to_halt for sync runs,
/// ticks_to_decision for async ones. A batch with quarantined reps is not
/// all safe (async requests cannot quarantine).
template <typename Stats>
JsonValue reply(const char* model, const Stats& stats, const char* model_mean,
                const Summary& model_summary, const JsonValue& payload) {
  const auto count = [](std::size_t v) {
    return JsonValue(static_cast<std::int64_t>(v));
  };
  JsonValue result = JsonValue::object();
  result.set("model", model);
  result.set("reps", count(stats.reps()));
  result.set("all_safe",
             JsonValue(stats.all_safe() && stats.reps_quarantined() == 0));
  result.set("decided_one", count(stats.decided_one()));
  result.set("agreement_failures", count(stats.agreement_failures()));
  result.set("validity_failures", count(stats.validity_failures()));
  result.set("non_terminated", count(stats.non_terminated()));
  result.set("reps_quarantined", count(stats.reps_quarantined()));
  result.set("rounds_to_decision_mean",
             JsonValue(stats.rounds_to_decision().mean()));
  result.set(model_mean, JsonValue(model_summary.mean()));
  result.set("messages_delivered_mean",
             JsonValue(stats.messages_delivered().mean()));
  result.set("checkpoint", payload);
  return result;
}

}  // namespace

RunPlan build_plan(const JsonValue& canonical_config, unsigned threads) {
  return synran::build_plan(read_run_config(JsonSource(canonical_config)),
                            threads);
}

JsonValue execute_plan(const RunPlan& plan) {
  if (plan.is_async) {
    const BenOrAsyncFactory factory(plan.benor);
    const AsyncRunStats stats =
        run_repeated_async(factory, plan.schedulers, plan.delays, plan.aspec);
    return stats.checkpoint_json();
  }
  const RepeatedRunStats stats =
      run_repeated(*plan.factory, plan.adversaries, plan.spec);
  return stats.checkpoint_json();
}

JsonValue result_from_payload(bool is_async, const JsonValue& payload) {
  if (is_async) {
    const AsyncRunStats stats = AsyncRunStats::from_checkpoint(payload);
    return reply("async", stats, "ticks_to_decision_mean",
                 stats.ticks_to_decision(), payload);
  }
  const RepeatedRunStats stats = RepeatedRunStats::from_checkpoint(payload);
  return reply("sync", stats, "rounds_to_halt_mean", stats.rounds_to_halt(),
               payload);
}

}  // namespace synran::serve
