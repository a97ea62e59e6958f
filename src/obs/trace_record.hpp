// In-memory trace events: the lingua franca of the trace subsystem.
//
// A TraceRecord is one EngineObserver callback, reified. TraceRecorder
// captures a callback stream into a vector (the executor buffers per-rep
// records this way so parallel tracing can replay them in rep order), the
// binary/JSONL readers decode files back into records, and replay() turns a
// record sequence into callbacks again — so any reader can drive any writer
// or aggregator, and "convert" is reader → replay → writer.
//
// Kinds RoundBegin/FaultPlan/Deliveries exist only in memory: the trace
// file schemas persist run_begin / round(= on_round_end) / run_end /
// run_abandoned, but a recorder must preserve the full callback stream so
// replaying into a live observer (metrics, a future exporter) is
// indistinguishable from observing the engine directly.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/observer.hpp"

namespace synran::obs {

enum class TraceRecordKind : std::uint8_t {
  RunBegin,
  RoundBegin,   ///< in-memory only (not persisted by the file formats)
  FaultPlan,    ///< in-memory only
  Deliveries,   ///< in-memory only
  RoundEnd,
  RunEnd,
  RunAbandoned,
};

/// One observer callback. Only the fields for `kind` are meaningful; the
/// rest stay default-constructed (the struct is small and reps are bounded,
/// so a tagged union is not worth the access ceremony).
struct TraceRecord {
  TraceRecordKind kind = TraceRecordKind::RunBegin;
  RunInfo begin;             ///< RunBegin
  RoundObservation round;    ///< RoundBegin / RoundEnd
  Round plan_round = 0;      ///< FaultPlan / Deliveries
  FaultPlan plan;            ///< FaultPlan
  std::uint64_t delivered = 0;  ///< Deliveries
  RunObservation end;        ///< RunEnd
  RunAbandoned abandoned;    ///< RunAbandoned
};

/// Which gated field groups a run's records carry, decided once from its
/// RunInfo: a non-zero omission (byzantine) budget or round cap adds the
/// omission (corruption) fields to run_begin, round and run_end. Writers
/// and readers of both formats latch one per run.
struct TraceGates {
  bool omissions = false;
  bool corruptions = false;

  static TraceGates of(const RunInfo& info) {
    return {info.omission_budget > 0 || info.omission_round_cap > 0,
            info.byzantine_budget > 0 || info.byzantine_round_cap > 0};
  }
};

/// Captures the callback stream into a borrowed vector (cleared on
/// construction), preserving callback order and every payload.
class TraceRecorder final : public EngineObserver {
 public:
  explicit TraceRecorder(std::vector<TraceRecord>& sink) : sink_(&sink) {
    sink_->clear();
  }

  void on_run_begin(const RunInfo& info) override;
  void on_round_begin(const RoundObservation& round) override;
  void on_fault_plan(Round round, const FaultPlan& plan) override;
  void on_deliveries(Round round, std::uint64_t delivered) override;
  void on_round_end(const RoundObservation& round) override;
  void on_run_end(const RunObservation& result) override;
  void on_run_abandoned(const RunAbandoned& failure) override;

 private:
  std::vector<TraceRecord>* sink_;
};

/// Re-fires one record as the corresponding callback on `to`.
void replay(const TraceRecord& record, EngineObserver& to);

/// Re-fires a captured stream in order.
void replay(const std::vector<TraceRecord>& records, EngineObserver& to);

}  // namespace synran::obs
