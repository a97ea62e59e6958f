// Streaming trace aggregation: fold a trace into per-run statistics
// without materializing events.
//
// TraceAggregator consumes TraceRecords — from a reader (offline) or as a
// live EngineObserver — and maintains the exact MetricsRegistry layout of
// exec::RepeatedRunStats: same metric names, same fold order per run, so
// `aggregator.metrics().to_json()` over a trace is byte-identical to the
// batch's own statistics (ctest-proven). Two deliberate divergences, both
// inherent to what a trace records:
//
//   * "validity_failures" stays 0: validity compares decisions against the
//     initial input vector, which no trace event carries.
//   * "reps_quarantined" stays 0: the file formats persist abandoned
//     *attempts*, not the retry/quarantine resolution; attempts are counted
//     under the additive "runs_abandoned" counter instead, registered only
//     when one is seen so clean traces match RepeatedRunStats exactly.
#pragma once

#include <array>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace_record.hpp"

namespace synran::obs {

/// The verdict counters exec::BatchStats and TraceAggregator register.
inline constexpr std::array<const char*, 6> kRunCounters = {
    "reps",           "agreement_failures", "validity_failures",
    "non_terminated", "decided_one",        "reps_quarantined"};

/// The per-run summaries exec::RepeatedRunStats and TraceAggregator
/// register, in order: the two round counts, then one per FaultTally field.
inline constexpr std::array<const char*, 8> kRunSummaries = {
    "rounds_to_decision", "rounds_to_halt",   "crashes_used",
    "messages_delivered", "omissions_used",   "messages_omitted",
    "corruptions_used",   "messages_corrupted"};

/// Folds one run into the kRunSummaries of `metrics`: the round counts
/// when it terminated, its fault tally always. RepeatedRunStats::add and
/// TraceAggregator::on_run_end both call it.
void fold_run_summaries(MetricsRegistry& metrics, bool terminated,
                        std::uint32_t rounds_to_decision,
                        std::uint32_t rounds_to_halt,
                        const FaultTally& faults);

class TraceAggregator final : public EngineObserver {
 public:
  TraceAggregator();

  /// Folds one persisted event; ignores the in-memory-only kinds.
  void add(const TraceRecord& record);

  // Live-observer mode: the persisted subset of callbacks, folded the same.
  void on_run_begin(const RunInfo& info) override;
  void on_round_end(const RoundObservation& round) override;
  void on_run_end(const RunObservation& result) override;
  void on_run_abandoned(const RunAbandoned& failure) override;

  /// Completed runs (run_end events) folded so far.
  std::uint64_t runs() const { return runs_; }
  /// Round events folded so far.
  std::uint64_t rounds() const { return rounds_; }
  /// Abandoned-attempt events seen so far.
  std::uint64_t abandoned() const { return abandoned_; }

  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  MetricsRegistry metrics_;
  std::uint64_t runs_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t abandoned_ = 0;
};

}  // namespace synran::obs
