// JSONL run traces: one schema-versioned JSON event per line.
//
// Event stream per execution (schema "synran-trace/1"):
//
//   {"event":"run_begin","schema":"synran-trace/1","run":K,
//    "n":N,"t":T,"per_round_cap":C,"seed":S}
//   {"event":"round","run":K,"round":R,"alive":A,"halted":H,"senders":P,
//    "ones":O,"zeros":Z,"det":D,"decided":Q,"crashes":X,"budget_left":B,
//    "delivered":M}                       — one line per communication round
//   {"event":"run_end","run":K,"terminated":tf,"agreement":tf,
//    "decision":0|1|null,"rounds_to_decision":R1,"rounds_to_halt":R2,
//    "crashes":X,"delivered":M,"survivors":V}
//
// An execution that throws instead of completing is closed by the additive
//   {"event":"run_abandoned","run":K,"rep":I,"seed":S,"attempt":A,
//    "error":"..."}
// event (in place of run_end); when the failure happened before run_begin
// (setup threw) the event stands alone and "run" names the index the
// aborted execution would have used.
//
// "run" is a 0-based index so several executions (the reps of one
// experiment) can share a file. "budget_left" is the crash budget *before*
// the round's plan was applied. The stream is deterministic: identical
// seeds produce byte-identical files.
//
// Runs executed with a non-zero omission budget (or per-round omission cap)
// additionally carry, per event, the additive fields
//   run_begin: "omission_budget":OB, "omission_round_cap":OC
//   round:     "omissions":OM (directives), "omitted":OL (suppressed links)
//   run_end:   "omissions":OM, "omitted":OL (run totals)
// Runs executed with a non-zero byzantine budget (or per-round corruption
// cap) likewise carry the additive fields
//   run_begin: "byzantine_budget":BB, "byzantine_round_cap":BC
//   round:     "corruptions":CD (directives), "corrupted":CL (forged links)
//   run_end:   "corruptions":CD, "corrupted":CL (run totals)
// Runs under the fail-stop default (all limits zero) omit these fields
// entirely, so existing traces stay byte-identical. `round` and `run_end`
// thus carry the same FaultTally keys, and each run_end equals the sum of
// its rounds.
//
// The same event stream has a varint-packed binary twin, schema
// "synran-trace/2" (trace_format.hpp / trace_binary.hpp); both writers
// share the TraceWriter interface below so harnesses pick a format at
// runtime (`--trace-format=jsonl|bin`) and `synran trace convert`
// round-trips files byte-stably between the two.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/atomic_file.hpp"
#include "obs/io_error.hpp"
#include "obs/observer.hpp"
#include "obs/trace_format.hpp"
#include "obs/trace_record.hpp"

namespace synran::obs {

inline constexpr const char* kTraceSchema = "synran-trace/1";

/// A format-agnostic trace sink: an EngineObserver that persists the event
/// stream and accounts for what it wrote. Owning writers buffer into
/// `path + ".tmp"` and publish atomically in close(); see AtomicFileSink.
class TraceWriter : public EngineObserver {
 public:
  /// Finalizes an owning writer (flush, verify, atomic rename); throws
  /// IoError on failure. No-op for borrowed-stream and closed writers.
  virtual void close() = 0;

  /// Persisted events so far (run_begin/round/run_end/run_abandoned).
  virtual std::uint64_t events_written() const = 0;

  /// Payload bytes emitted so far (text bytes incl. newlines for JSONL,
  /// header + record bytes for binary).
  virtual std::uint64_t bytes_written() const = 0;

  virtual TraceFormat format() const = 0;
};

/// Writes the event stream to a borrowed ostream, or — with the path
/// constructor — to an owned file. The owning mode writes to `path + ".tmp"`
/// and atomically renames onto `path` in close(), so a crash or a full disk
/// never leaves a truncated artifact under the final name. close() verifies
/// the stream state and throws IoError on any failure; the destructor
/// finalizes best-effort without throwing. Lines are flushed per event only
/// when `flush_each` is set (useful while debugging a crash).
class JsonlTraceWriter final : public TraceWriter {
 public:
  explicit JsonlTraceWriter(std::ostream& out, bool flush_each = false);

  /// Owning mode: stream events into `path + ".tmp"`; close() renames the
  /// temp file onto `path`. Throws IoError if the temp file cannot be opened.
  explicit JsonlTraceWriter(const std::string& path, bool flush_each = false);

  void on_run_begin(const RunInfo& info) override;
  void on_round_end(const RoundObservation& round) override;
  void on_run_end(const RunObservation& result) override;
  void on_run_abandoned(const RunAbandoned& failure) override;

  /// Owning mode only: true until close() succeeded.
  bool is_open() const { return sink_.is_open(); }

  void close() override { sink_.close(); }

  std::uint64_t events_written() const override { return events_; }
  std::uint64_t bytes_written() const override { return bytes_; }
  std::uint64_t runs_written() const { return runs_; }
  TraceFormat format() const override { return TraceFormat::Jsonl; }

 private:
  void write_line(const class JsonValue& event);

  std::ostream* out_ = nullptr;
  bool flush_each_ = false;
  TraceGates gates_;     ///< latched per run from RunInfo
  bool in_run_ = false;  ///< run_begin seen, no run_end/run_abandoned yet
  std::uint64_t events_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t runs_ = 0;  ///< run_begin events so far; "run" = runs_ - 1

  AtomicFileSink sink_;  ///< disengaged for the borrowed-stream constructor
};

}  // namespace synran::obs
