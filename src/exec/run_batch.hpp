// The batch loop behind exec::BatchExecutor and exec::AsyncBatchExecutor.
//
// The two executors differ only in what one repetition is. Everything else
// lives here, once: the retry loop, static sharding across workers,
// fail-fast (FirstFailure) and quarantine, stop handling, and the rep-order
// fold with observer replay. exec/executor.hpp documents the contract this
// implements: statistics and observer streams bit-identical to the serial
// run at any thread count. Private to src/exec; only the two executors
// include it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exec/batch.hpp"
#include "exec/executor.hpp"
#include "exec/stopper.hpp"
#include "obs/observer.hpp"
#include "obs/trace_record.hpp"

namespace synran::exec::detail {

/// The earliest failed repetition of a fail-fast parallel batch, shared by
/// its workers. A worker skips only reps after it, so every rep before the
/// one finally reported has run: the batch reports the serial run's
/// failure, however the workers' failures interleave in wall time.
class FirstFailure {
 public:
  /// Records that `rep` failed; the earliest failure wins.
  void note(std::size_t rep) {
    std::size_t seen = rep_.load();
    while (rep < seen && !rep_.compare_exchange_weak(seen, rep)) {
    }
  }
  /// True once a rep before `rep` has failed: `rep` need not run.
  bool precedes(std::size_t rep) const { return rep_.load() < rep; }
  /// The earliest failed rep, if any (read after the workers have joined).
  std::optional<std::size_t> rep() const {
    const std::size_t r = rep_.load();
    if (r == kNone) return std::nullopt;
    return r;
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::atomic<std::size_t> rep_{kNone};
};

/// One repetition's terminal state: its result, or the failure that
/// exhausted the retry budget — plus, for observed parallel batches, the
/// rep's buffered callback stream awaiting its rep-order replay.
template <typename Result>
struct RepOutcome {
  bool ok = false;
  Result result;
  RepFailure failure;
  std::vector<obs::TraceRecord> records;
};

/// Runs repetition `rep` through `run_rep` with up to `attempts` attempts.
/// Every attempt re-derives the identical per-rep streams (schema 2 makes
/// them pure functions of the master seed and rep index), so a retry either
/// reproduces the one canonical result or fails again — determinism is
/// preserved either way. Abandoned attempts are reported to `observer` (the
/// configured observer when serial, a per-rep recorder when parallel) so
/// traces stay well formed.
template <typename Result, typename RunRep>
RepOutcome<Result> attempt_rep(RunRep& run_rep, std::uint32_t attempts,
                               std::uint64_t master_seed, std::size_t rep,
                               obs::EngineObserver* observer) {
  const std::uint64_t seed = engine_seed_for_rep(master_seed, rep);
  RepOutcome<Result> out;
  std::string last_error;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    try {
      out.result = run_rep(rep, observer);
      out.ok = true;
      return out;
    } catch (const std::exception& e) {
      last_error = e.what();
    } catch (...) {
      last_error = "unknown exception";
    }
    if (observer != nullptr) {
      observer->on_run_abandoned(
          obs::RunAbandoned{rep, seed, attempt, last_error});
    }
  }
  out.failure = RepFailure{rep, seed, attempts, last_error};
  return out;
}

[[noreturn]] inline void throw_interrupted(std::size_t completed,
                                           std::size_t reps) {
  throw Interrupted("stop requested: batch interrupted after " +
                    std::to_string(completed) + " of " + std::to_string(reps) +
                    " repetitions");
}

/// Runs spec.reps repetitions and folds them into a `Stats` in rep order.
/// `make_rep()` is called once per worker (once for a serial batch) and
/// returns that worker's rep body, `body(rep, observer) -> result`: the one
/// definition of what repetition `rep` is, so serial and parallel batches
/// compute identical results. A body may keep per-worker state (the
/// executors' EngineWorkspace and AsyncWorkspace), but everything a rep
/// computes must derive from (spec.seed, rep). `threads` is the executor's
/// own option; a non-zero spec.threads overrides it.
template <typename Stats, typename Spec, typename MakeRep>
Stats run_batch(const Spec& spec, unsigned threads, const MakeRep& make_rep) {
  using Body = std::invoke_result_t<const MakeRep&>;
  using Result =
      std::invoke_result_t<Body&, std::size_t, obs::EngineObserver*>;

  SYNRAN_REQUIRE(spec.reps >= 1, "need at least one repetition");
  // A rep gets retries + 1 attempts, counted in 32 bits.
  SYNRAN_REQUIRE(
      spec.max_rep_retries < std::numeric_limits<std::uint32_t>::max(),
      "max_rep_retries must be below 4294967295");
  threads = resolve_threads(spec.threads != 0 ? spec.threads : threads);
  if (threads > spec.reps) threads = static_cast<unsigned>(spec.reps);

  const std::uint32_t attempts = spec.max_rep_retries + 1;
  const bool quarantine = spec.policy == FailurePolicy::Quarantine;
  obs::EngineObserver* const observer = spec.engine.observer;
  Stats stats;
  // Folds one outcome: a result is added, a failure is quarantined or,
  // under fail-fast, thrown as the batch's RepError.
  const auto fold = [&](RepOutcome<Result>& out) {
    if (out.ok) {
      stats.add(out.result);
    } else if (quarantine) {
      stats.note_quarantined(std::move(out.failure));
    } else {
      throw RepError(out.failure.rep, out.failure.seed, out.failure.error);
    }
  };

  if (threads == 1) {
    // Serial: reps in order on the calling thread, observer fired live.
    Body run_rep = make_rep();
    for (std::size_t rep = 0; rep < spec.reps; ++rep) {
      if (stop_requested()) throw_interrupted(rep, spec.reps);
      RepOutcome<Result> out =
          attempt_rep<Result>(run_rep, attempts, spec.seed, rep, observer);
      fold(out);
    }
    return stats;
  }

  // Parallel: workers fill disjoint slots of `outcomes` and `errors`; the
  // only shared mutable state is the earliest failed rep, the halt flag
  // and the (monotonic) stop flag. A stop request lets every worker finish
  // its in-flight rep, then the batch throws after the join.
  std::vector<RepOutcome<Result>> outcomes(spec.reps);
  std::vector<unsigned char> done(spec.reps, 0);
  std::vector<std::exception_ptr> errors(threads);
  FirstFailure first_failure;
  std::atomic<bool> halt{false};

  auto worker = [&](unsigned w) {
    try {
      Body run_rep = make_rep();
      for (std::size_t rep = w; rep < spec.reps; rep += threads) {
        if (halt.load() || stop_requested()) return;
        if (!quarantine && first_failure.precedes(rep)) return;
        if (observer != nullptr) {
          // Buffer the rep's callback stream privately; the fold below
          // replays the buffers into the real observer in rep order, so
          // the observer sees the serial stream regardless of scheduling.
          std::vector<obs::TraceRecord> records;
          obs::TraceRecorder recorder(records);
          outcomes[rep] = attempt_rep<Result>(run_rep, attempts, spec.seed,
                                              rep, &recorder);
          outcomes[rep].records = std::move(records);
        } else {
          outcomes[rep] =
              attempt_rep<Result>(run_rep, attempts, spec.seed, rep, nullptr);
        }
        done[rep] = 1;
        if (!outcomes[rep].ok && !quarantine) {
          first_failure.note(rep);
          return;
        }
      }
    } catch (...) {
      // A failure outside a rep's attempts (e.g. no memory for the
      // worker's workspace) would end the process if it left the thread:
      // stop the batch and rethrow it after the join.
      errors[w] = std::current_exception();
      halt.store(true);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  try {
    for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  } catch (...) {
    // A worker failed to start (e.g. no address space left for its
    // stack), and destroying a joinable thread would end the process:
    // stop the started workers before their next rep, join them, and
    // rethrow.
    halt.store(true);
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  if (stop_requested()) {
    std::size_t completed = 0;
    for (const unsigned char d : done) completed += d;
    throw_interrupted(completed, spec.reps);
  }

  if (const auto rep = first_failure.rep()) {
    // Deterministic error selection: every rep before the earliest failure
    // ran, so it is the serial run's failure, whichever worker hit an error
    // first in wall time.
    fold(outcomes[*rep]);
  }

  // Fold in rep order — the serial run's exact floating-point sequence —
  // replaying each rep's buffered callbacks first, so an observer's event
  // stream interleaves with the fold exactly as a serial run's would.
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    SYNRAN_CHECK_MSG(done[rep] != 0, "worker skipped a repetition");
    if (observer != nullptr) obs::replay(outcomes[rep].records, *observer);
    fold(outcomes[rep]);
  }
  return stats;
}

}  // namespace synran::exec::detail
