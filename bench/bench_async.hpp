// Bench plumbing for the event-driven asynchronous engine: run_async_cell,
// the async adapter of bench_util.hpp's run_checkpointed_cell. A cell is
// one repeated async batch (protocol factory × scheduler factory × delay
// factory) and honors the same environment hooks as a sync cell —
// SYNRAN_FAIL_POLICY / SYNRAN_REP_RETRIES, SYNRAN_THREADS / --threads=N,
// per-batch traces under SYNRAN_TRACE_DIR (byte-identical at any thread
// count), checkpoint recording under SYNRAN_CKPT_DIR, and
// reload-instead-of-recompute under SYNRAN_RESUME=1. Async and sync cells
// share one ledger and one ordinal counter, so a mixed sweep (e.g. E16)
// resumes as a whole; the async cell key is prefixed "model=async" so the
// two families can never serve each other stale data even at a colliding
// ordinal.
#pragma once

#include "bench_util.hpp"

#include "async/benor.hpp"
#include "exec/async_executor.hpp"

namespace synran::bench {

/// An async grid cell through run_checkpointed_cell, at the binary's
/// thread count.
inline AsyncRunStats run_async_cell(const AsyncProcessFactory& factory,
                                    const AsyncSchedulerFactory& schedulers,
                                    const AsyncDelayFactory& delays,
                                    AsyncRepeatSpec spec,
                                    const std::string& tag) {
  spec.threads = bench_threads();
  return run_checkpointed_cell(
      std::move(spec), factory.name(), tag, [&](const AsyncRepeatSpec& s) {
        return exec::AsyncBatchExecutor().run(factory, schedulers, delays, s);
      });
}

/// Convenience wrapper mirroring attack_run: Ben-Or (optionally with
/// retransmission) at (n, t) under the given scheduler/delay factories.
inline AsyncRunStats async_run(std::uint32_t n, std::uint32_t t,
                               const AsyncSchedulerFactory& schedulers,
                               const AsyncDelayFactory& delays,
                               std::size_t reps, std::uint64_t seed,
                               const std::string& tag,
                               const BenOrOptions& protocol = {},
                               std::uint64_t max_steps = 0) {
  BenchReport::instance().note_grid(n, t);
  BenOrAsyncFactory factory(protocol);
  AsyncRepeatSpec spec;
  spec.n = n;
  spec.pattern = InputPattern::Half;
  spec.reps = reps;
  spec.seed = seed;
  spec.engine.t_budget = t;
  if (max_steps != 0) spec.engine.max_steps = max_steps;
  return run_async_cell(factory, schedulers, delays, std::move(spec), tag);
}

}  // namespace synran::bench
