#include "obs/trace_aggregate.hpp"

namespace synran::obs {

void fold_run_summaries(MetricsRegistry& metrics, bool terminated,
                        std::uint32_t rounds_to_decision,
                        std::uint32_t rounds_to_halt,
                        const FaultTally& faults) {
  if (terminated) {
    metrics.summary(kRunSummaries[0])
        .add(static_cast<double>(rounds_to_decision));
    metrics.summary(kRunSummaries[1]).add(static_cast<double>(rounds_to_halt));
  }
  const std::uint64_t spent[] = {faults.crashes,     faults.delivered,
                                 faults.omissions,   faults.omitted,
                                 faults.corruptions, faults.corrupted};
  for (std::size_t i = 0; i < std::size(spent); ++i)
    metrics.summary(kRunSummaries[2 + i]).add(static_cast<double>(spent[i]));
}

TraceAggregator::TraceAggregator() {
  // Mirror exec::RepeatedRunStats' pre-registered layout exactly, so the
  // snapshot of an aggregated trace is byte-comparable to the batch's own
  // statistics.
  for (const char* name : kRunSummaries) metrics_.summary(name);
  for (const char* name : kRunCounters) metrics_.counter(name);
}

void TraceAggregator::on_run_begin(const RunInfo& /*info*/) {}

void TraceAggregator::on_round_end(const RoundObservation& /*round*/) {
  ++rounds_;
}

void TraceAggregator::on_run_end(const RunObservation& res) {
  ++runs_;
  // Same fold as RepeatedRunStats::add, minus validity (not recorded in
  // traces; the counter stays at its registered zero).
  metrics_.counter("reps").inc();
  if (!res.terminated) metrics_.counter("non_terminated").inc();
  fold_run_summaries(metrics_, res.terminated, res.rounds_to_decision,
                     res.rounds_to_halt, res.faults);
  if (res.has_decision && !res.agreement)
    metrics_.counter("agreement_failures").inc();
  if (res.agreement && res.decision == 1)
    metrics_.counter("decided_one").inc();
}

void TraceAggregator::on_run_abandoned(const RunAbandoned& /*failure*/) {
  ++abandoned_;
  // Additive: registered on first sight so clean traces snapshot exactly
  // like RepeatedRunStats (which has no such counter).
  metrics_.counter("runs_abandoned").inc();
}

void TraceAggregator::add(const TraceRecord& record) {
  switch (record.kind) {
    case TraceRecordKind::RunBegin:
      on_run_begin(record.begin);
      break;
    case TraceRecordKind::RoundEnd:
      on_round_end(record.round);
      break;
    case TraceRecordKind::RunEnd:
      on_run_end(record.end);
      break;
    case TraceRecordKind::RunAbandoned:
      on_run_abandoned(record.abandoned);
      break;
    case TraceRecordKind::RoundBegin:
    case TraceRecordKind::FaultPlan:
    case TraceRecordKind::Deliveries:
      break;
  }
}

}  // namespace synran::obs
