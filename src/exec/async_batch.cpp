#include "exec/async_batch.hpp"

#include <array>
#include <string>

namespace synran {

std::uint64_t delay_seed_for_rep(std::uint64_t seed, std::size_t rep) {
  return SeedSequence(seed).stream(kAsyncDelayStreamBase + rep);
}

AsyncSchedulerFactory fifo_scheduler_factory() {
  return [](std::uint64_t) { return std::make_unique<FifoScheduler>(); };
}

AsyncSchedulerFactory random_scheduler_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<RandomScheduler>(seed);
  };
}

AsyncSchedulerFactory laggard_scheduler_factory() {
  return [](std::uint64_t seed) {
    return std::make_unique<LaggardScheduler>(seed);
  };
}

AsyncSchedulerFactory stall_scheduler_factory() {
  return [](std::uint64_t) { return std::make_unique<StallScheduler>(); };
}

AsyncDelayFactory held_delay_factory() {
  return [](std::uint64_t) { return std::unique_ptr<DelayModel>(); };
}

AsyncDelayFactory fixed_delay_factory(SimTime latency) {
  return [latency](std::uint64_t) {
    return std::make_unique<FixedDelay>(latency);
  };
}

AsyncDelayFactory uniform_delay_factory(SimTime lo, SimTime hi) {
  return [lo, hi](std::uint64_t seed) {
    return std::make_unique<UniformDelay>(lo, hi, seed);
  };
}

AsyncDelayFactory gst_delay_factory(SimTime gst, SimTime bound) {
  return [gst, bound](std::uint64_t) {
    return std::make_unique<GstDelay>(gst, bound);
  };
}

namespace {

constexpr std::array<const char*, 8> kAsyncSummaries = {
    "rounds_to_decision", "ticks_to_decision", "crashes_used",
    "messages_delivered", "coin_flips",        "timers_fired",
    "omissions_used",     "messages_omitted"};

}  // namespace

AsyncRunStats::AsyncRunStats() : BatchStats("async stats", kAsyncSummaries) {}

void AsyncRunStats::add(const AsyncRunResult& rep) {
  count_rep(rep.terminated, rep.decided_live > 0 && !rep.agreement,
            rep.validity, rep.agreement && rep.decision == Bit::One);
  if (rep.terminated) {
    metrics_.summary("rounds_to_decision")
        .add(static_cast<double>(rep.max_round));
    metrics_.summary("ticks_to_decision")
        .add(static_cast<double>(rep.decision_time));
  }
  metrics_.summary("crashes_used")
      .add(static_cast<double>(rep.faults.crashes));
  metrics_.summary("messages_delivered")
      .add(static_cast<double>(rep.faults.delivered));
  metrics_.summary("coin_flips").add(static_cast<double>(rep.coin_flips));
  metrics_.summary("timers_fired")
      .add(static_cast<double>(rep.timers_fired));
  metrics_.summary("omissions_used")
      .add(static_cast<double>(rep.faults.omissions));
  metrics_.summary("messages_omitted")
      .add(static_cast<double>(rep.faults.omitted));
}

const Summary& AsyncRunStats::rounds_to_decision() const {
  return metrics_.summary_at("rounds_to_decision");
}
const Summary& AsyncRunStats::ticks_to_decision() const {
  return metrics_.summary_at("ticks_to_decision");
}
const Summary& AsyncRunStats::crashes_used() const {
  return metrics_.summary_at("crashes_used");
}
const Summary& AsyncRunStats::messages_delivered() const {
  return metrics_.summary_at("messages_delivered");
}
const Summary& AsyncRunStats::coin_flips() const {
  return metrics_.summary_at("coin_flips");
}
const Summary& AsyncRunStats::timers_fired() const {
  return metrics_.summary_at("timers_fired");
}
const Summary& AsyncRunStats::omissions_used() const {
  return metrics_.summary_at("omissions_used");
}
const Summary& AsyncRunStats::messages_omitted() const {
  return metrics_.summary_at("messages_omitted");
}

AsyncRunStats AsyncRunStats::from_checkpoint(const obs::JsonValue& payload) {
  AsyncRunStats restored;
  restored.restore(payload);
  return restored;
}

std::string spec_cell_key(const AsyncRepeatSpec& spec,
                          std::string_view protocol, std::string_view tag) {
  std::string key;
  key += "model=async;proto=";
  key += protocol;
  key += ";tag=";
  key += tag;
  key += ";n=" + std::to_string(spec.n);
  key += ";pattern=";
  key += to_string(spec.pattern);
  key += ";reps=" + std::to_string(spec.reps);
  key += ";seed=" + std::to_string(spec.seed);
  key += ";t=" + std::to_string(spec.engine.t_budget);
  key += ";steps=" + std::to_string(spec.engine.max_steps);
  key += ";time=" + std::to_string(spec.engine.max_time);
  key += ";events=" + std::to_string(spec.engine.max_events);
  key += ";omb=" + std::to_string(spec.engine.omission_budget);
  key += ";policy=";
  key += to_string(spec.policy);
  key += ";retries=" + std::to_string(spec.max_rep_retries);
  key += ";seed_schema=" + std::to_string(kSeedSchemaVersion);
  return key;
}

}  // namespace synran
