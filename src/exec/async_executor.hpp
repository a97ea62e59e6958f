// Deterministic thread-pooled batch execution for the asynchronous engine.
//
// The async rep body of the one batch loop (exec/run_batch.hpp) that also
// drives exec::BatchExecutor; exec/executor.hpp documents the shared
// contract. Repetition k derives its inputs, scheduler, delay model, and
// coin seed from per-rep streams of the master seed (schema 2 plus the
// async delay stream — exec/async_batch.hpp) and builds its own processes,
// scheduler, and delay model. Each worker keeps one AsyncWorkspace, which
// its reps reuse and which the engine resets at the start of every run, so
// nothing is shared between concurrent reps except the read-only spec (and
// fault timetable, if any). Statistics and observer streams are
// byte-identical to a 1-thread run.
#pragma once

#include "exec/async_batch.hpp"
#include "exec/executor.hpp"

namespace synran::exec {

/// Runs batches of independent seeded async executions. Stateless apart
/// from its options; one executor may run many batches.
class AsyncBatchExecutor {
 public:
  AsyncBatchExecutor() = default;
  explicit AsyncBatchExecutor(ExecOptions options) : options_(options) {}

  /// Runs spec.reps executions and returns the aggregate. spec.threads,
  /// when non-zero, overrides the executor's own thread option. `delays`
  /// may be null-valued (no factory) or return nullptr per rep — both mean
  /// the adversary-held default.
  AsyncRunStats run(const AsyncProcessFactory& factory,
                    const AsyncSchedulerFactory& schedulers,
                    const AsyncDelayFactory& delays,
                    const AsyncRepeatSpec& spec) const;

  ExecOptions options() const { return options_; }

 private:
  ExecOptions options_;
};

}  // namespace synran::exec
