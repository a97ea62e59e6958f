// Deterministic thread-pooled batch execution.
//
// BatchExecutor (sync runs) and AsyncBatchExecutor (exec/async_executor.hpp,
// async runs) run the repetitions of one batch across worker threads and
// produce statistics bit-identical to the serial run at any thread count.
// They are one loop with two rep bodies: exec/run_batch.hpp owns the loop,
// and each executor supplies only what one repetition is. Three design
// rules make that hold:
//
//  1. Static seed-indexed schedule. Repetition k always derives its inputs,
//     adversary (or scheduler and delay model), and engine seed from
//     per-rep streams of the master seed (seeding schema 2, exec/batch.hpp),
//     never from shared mutable state — so which worker runs a rep, and in
//     what order, cannot change what the rep computes. Worker w owns reps
//     {k : k mod threads == w}.
//  2. Per-worker state. Each sync worker drives one EngineWorkspace and
//     each async worker one AsyncWorkspace, so a worker's thousands of reps
//     reuse one set of buffers instead of reallocating per rep. The engines
//     reset a workspace at the start of every run, so what a rep computes
//     never depends on the reps the worker ran before it.
//  3. Rep-order aggregation. Workers record each rep's result into disjoint
//     slots of one pre-sized array; after the join, the results are folded
//     into the registry serially in rep order. Folding per-rep scalars in
//     rep order reproduces the serial run's floating-point operations
//     exactly — which a tree-merge of per-worker Welford accumulators would
//     not.
//
// Engine observers compose with all of this: a serial batch fires the
// configured observer live, while a parallel batch gives each rep a
// private obs::TraceRecorder, buffers every callback of the rep in its
// outcome slot, and replays the buffers into the real observer serially in
// rep order during the fold. The observer therefore sees the exact serial
// callback stream at any thread count — traces written through it are
// byte-identical to a 1-thread run (both trace formats; ctest-proven). The
// replay happens only for batches that complete: a FailFast abort or a stop
// request throws before the fold, so a parallel trace may then miss events
// a serial run would have flushed before its own throw.
//
// Failure domains (see exec/batch.hpp): a rep that throws is retried with
// its identical per-rep seeds up to the spec's max_rep_retries times, then
// either aborts the batch as a RepError (FailurePolicy::FailFast, the
// default) or is quarantined as a structured RepFailure while the
// survivors fold normally (FailurePolicy::Quarantine). Both policies
// produce thread-count-invariant results: a rep's outcome is a pure
// function of (master seed, rep), never of scheduling. The executor also
// polls the cooperative stop flag (exec/stopper.hpp) between reps —
// in-flight reps finish, then the batch throws Interrupted so callers can
// flush checkpoints and partial artifacts. A worker thread that fails to
// start stops the batch the same way and its error is rethrown.
//
// This subsystem is the one place in the repo allowed to use threading
// primitives (tools/synran_lint enforces the boundary with its `threads`
// rule).
#pragma once

#include <cstdint>
#include <optional>

#include "exec/batch.hpp"
#include "sim/process.hpp"

namespace synran::exec {

/// Reads environment variable `name` as a count: nullopt when unset or
/// empty, else its value. Anything but decimal digits within 32 bits — a
/// sign, trailing text, an overflow — throws ArgumentError naming the
/// variable.
std::optional<std::uint32_t> env_count(const char* name);

/// Resolves a requested thread count: N > 0 means N workers; 0 means auto —
/// the SYNRAN_THREADS environment variable when set (0 reads as 1), else 1
/// (serial, the deterministic default that never surprises a caller).
/// Throws ArgumentError when SYNRAN_THREADS is not a count (env_count).
unsigned resolve_threads(unsigned requested);

struct ExecOptions {
  /// Worker threads; interpreted by resolve_threads.
  unsigned threads = 0;
};

/// Runs batches of independent seeded executions. Stateless apart from its
/// options; one executor may run many batches.
class BatchExecutor {
 public:
  BatchExecutor() = default;
  explicit BatchExecutor(ExecOptions options) : options_(options) {}

  /// Runs spec.reps executions and returns the aggregate. spec.threads,
  /// when non-zero, overrides the executor's own thread option for this
  /// batch. A configured spec.engine.observer receives the serial callback
  /// stream at any thread count (buffered + rep-order replay when
  /// parallel).
  RepeatedRunStats run(const ProcessFactory& factory,
                       const AdversaryFactory& adversaries,
                       const RepeatSpec& spec) const;

  ExecOptions options() const { return options_; }

 private:
  ExecOptions options_;
};

}  // namespace synran::exec
