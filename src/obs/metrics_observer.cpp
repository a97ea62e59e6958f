#include "obs/metrics_observer.hpp"

namespace synran::obs {

namespace {
/// Power-of-two-ish crash-count buckets: per-round spend is small near the
/// √(n·ln n) cap, so low buckets get the resolution.
const std::vector<double>& crash_bounds() {
  static const std::vector<double> bounds{0,  1,  2,   4,   8,  16,
                                          32, 64, 128, 256, 512, 1024};
  return bounds;
}
}  // namespace

MetricsObserver::MetricsObserver() : registry_(&own_) { pre_register(); }

MetricsObserver::MetricsObserver(MetricsRegistry& registry)
    : registry_(&registry) {
  pre_register();
}

void MetricsObserver::pre_register() {
  // Touch every metric this observer ever writes, so a batch with zero runs
  // (or all-conditional paths untaken, e.g. no terminated run) still reads
  // back as zeros instead of throwing on the missing name.
  for (const char* name : {"runs", "runs_terminated", "runs_agreement",
                           "rounds", "crashes", "messages_delivered"})
    registry_->counter(name);
  registry_->histogram("crashes_per_round", crash_bounds());
  for (const char* name :
       {"rounds_to_decision", "rounds_to_halt", "crashes_total",
        "messages_total"})
    registry_->summary(name);
}

void MetricsObserver::on_run_begin(const RunInfo&) {
  registry_->counter("runs").inc();
}

void MetricsObserver::on_round_end(const RoundObservation& round) {
  registry_->counter("rounds").inc();
  registry_->counter("crashes").inc(round.faults.crashes);
  registry_->counter("messages_delivered").inc(round.faults.delivered);
  registry_->histogram("crashes_per_round", crash_bounds())
      .add(static_cast<double>(round.faults.crashes));
}

void MetricsObserver::on_run_end(const RunObservation& result) {
  if (result.terminated) registry_->counter("runs_terminated").inc();
  if (result.agreement) registry_->counter("runs_agreement").inc();
  if (result.terminated) {
    registry_->summary("rounds_to_decision")
        .add(static_cast<double>(result.rounds_to_decision));
    registry_->summary("rounds_to_halt")
        .add(static_cast<double>(result.rounds_to_halt));
  }
  registry_->summary("crashes_total")
      .add(static_cast<double>(result.faults.crashes));
  registry_->summary("messages_total")
      .add(static_cast<double>(result.faults.delivered));
}

}  // namespace synran::obs
