#include "exec/async_executor.hpp"

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "exec/first_failure.hpp"
#include "exec/stopper.hpp"
#include "obs/observer.hpp"
#include "obs/trace_record.hpp"

namespace synran::exec {

namespace {

/// The single definition of one async repetition; serial and parallel
/// batches both call it, which is what makes their results identical.
AsyncRunResult run_rep(const AsyncProcessFactory& factory,
                       const AsyncSchedulerFactory& schedulers,
                       const AsyncDelayFactory& delays,
                       const AsyncRepeatSpec& spec, std::size_t rep,
                       obs::EngineObserver* observer) {
  Xoshiro256 input_rng = input_rng_for_rep(spec.seed, rep);
  const std::vector<Bit> inputs =
      make_inputs(spec.n, spec.pattern, input_rng);
  auto scheduler = schedulers(adversary_seed_for_rep(spec.seed, rep));
  std::unique_ptr<DelayModel> delay;
  if (delays) delay = delays(delay_seed_for_rep(spec.seed, rep));
  AsyncEngineOptions opts = spec.engine;
  opts.seed = engine_seed_for_rep(spec.seed, rep);
  if (delay != nullptr) opts.delay = delay.get();
  opts.observer = observer;
  return run_async(factory, inputs, *scheduler, opts);
}

struct RepOutcome {
  bool ok = false;
  AsyncRunResult result;
  RepFailure failure;
  std::vector<obs::TraceRecord> records;
};

/// Runs repetition `rep` with its retry budget; every attempt re-derives
/// the identical per-rep streams, so a retry reproduces the one canonical
/// result or fails again. Abandoned attempts are reported to the observer
/// so traces stay well formed.
RepOutcome attempt_rep(const AsyncProcessFactory& factory,
                       const AsyncSchedulerFactory& schedulers,
                       const AsyncDelayFactory& delays,
                       const AsyncRepeatSpec& spec, std::size_t rep,
                       obs::EngineObserver* observer) {
  const std::uint32_t attempts_allowed = spec.max_rep_retries + 1;
  const std::uint64_t seed = engine_seed_for_rep(spec.seed, rep);
  RepOutcome out;
  std::string last_error;
  for (std::uint32_t attempt = 0; attempt < attempts_allowed; ++attempt) {
    try {
      out.result =
          run_rep(factory, schedulers, delays, spec, rep, observer);
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
  out.failure = RepFailure{rep, seed, attempts_allowed, last_error};
  return out;
}

[[noreturn]] void throw_interrupted(std::size_t completed, std::size_t reps) {
  throw Interrupted("stop requested: batch interrupted after " +
                    std::to_string(completed) + " of " + std::to_string(reps) +
                    " repetitions");
}

}  // namespace

AsyncRunStats AsyncBatchExecutor::run(const AsyncProcessFactory& factory,
                                      const AsyncSchedulerFactory& schedulers,
                                      const AsyncDelayFactory& delays,
                                      const AsyncRepeatSpec& spec) const {
  SYNRAN_REQUIRE(spec.reps >= 1, "need at least one repetition");
  SYNRAN_REQUIRE(static_cast<bool>(schedulers),
                 "need a scheduler factory");
  unsigned threads =
      resolve_threads(spec.threads != 0 ? spec.threads : options_.threads);
  if (threads > spec.reps) threads = static_cast<unsigned>(spec.reps);

  const bool quarantine = spec.policy == FailurePolicy::Quarantine;
  AsyncRunStats stats;

  if (threads == 1) {
    // Serial fast path: reps in order, observer callbacks fired live.
    for (std::size_t rep = 0; rep < spec.reps; ++rep) {
      if (stop_requested()) throw_interrupted(rep, spec.reps);
      RepOutcome out = attempt_rep(factory, schedulers, delays, spec, rep,
                                   spec.engine.observer);
      if (out.ok) {
        stats.add(out.result);
      } else if (quarantine) {
        stats.note_quarantined(std::move(out.failure));
      } else {
        throw RepError(rep, out.failure.seed, out.failure.error);
      }
    }
    return stats;
  }

  // Parallel path: workers fill disjoint slots; the only shared mutable
  // state is the earliest failed rep and the monotone stop flag.
  std::vector<RepOutcome> outcomes(spec.reps);
  std::vector<unsigned char> done(spec.reps, 0);
  FirstFailure first_failure;

  const bool observed = spec.engine.observer != nullptr;

  auto worker = [&](unsigned w) {
    for (std::size_t rep = w; rep < spec.reps; rep += threads) {
      if (stop_requested()) return;
      if (!quarantine && first_failure.precedes(rep)) return;
      if (observed) {
        // Buffer privately; the fold replays in rep order so the observer
        // sees the serial callback stream at any thread count.
        std::vector<obs::TraceRecord> records;
        obs::TraceRecorder recorder(records);
        RepOutcome out =
            attempt_rep(factory, schedulers, delays, spec, rep, &recorder);
        out.records = std::move(records);
        outcomes[rep] = std::move(out);
      } else {
        outcomes[rep] =
            attempt_rep(factory, schedulers, delays, spec, rep, nullptr);
      }
      done[rep] = 1;
      if (!outcomes[rep].ok && !quarantine) {
        first_failure.note(rep);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (auto& t : pool) t.join();

  if (stop_requested()) {
    std::size_t completed = 0;
    for (const unsigned char d : done) completed += d;
    throw_interrupted(completed, spec.reps);
  }

  if (const auto rep = first_failure.rep()) {
    // Deterministic error selection: the earliest failing rep wins, and
    // every rep before it ran.
    const RepFailure& f = outcomes[*rep].failure;
    throw RepError(*rep, f.seed, f.error);
  }

  // Rep-order fold, replaying buffered callbacks first — the serial run's
  // exact observer stream and floating-point sequence.
  for (std::size_t rep = 0; rep < spec.reps; ++rep) {
    SYNRAN_CHECK_MSG(done[rep] != 0, "worker skipped a repetition");
    if (observed) obs::replay(outcomes[rep].records, *spec.engine.observer);
    if (outcomes[rep].ok) {
      stats.add(outcomes[rep].result);
    } else {
      stats.note_quarantined(std::move(outcomes[rep].failure));
    }
  }
  return stats;
}

}  // namespace synran::exec
