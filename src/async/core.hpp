// The asynchronous execution engine, rebuilt event-driven.
//
// One central time-ordered EventList drives everything: timed message
// deliveries (per-link DelayModel), deadline releases of adversary-held
// messages (partial synchrony), protocol timers, and Trigger-armed fault
// injections. The adversarial scheduler is consulted whenever held messages
// exist, so schedulers, delay models, and crash/omission injection compose
// instead of replacing each other.
//
// Reliability contract (unchanged from the step engine): a message is
// delivered unless its sender was crashed (crashing lets the adversary drop
// any subset of the sender's held traffic; a timetable crash drops all of
// the victim's undelivered traffic) or an omission injection suppressed it.
// Messages to crashed processes are discarded.
//
// Back compatibility: with no DelayModel configured every message is
// adversary-held with no deadline, and the run is step-for-step identical
// to the pre-event-loop engine — same scheduler consultation order, same
// swap-remove pending-pool semantics, same per-process coin streams.
//
// Reuse: every buffer a run needs — the EventList, the message arena, the
// held pool, the outbox buffers, the per-process coins, views and crash
// flags, and the auditor — lives in an AsyncWorkspace, which the engine
// resets in place at the start of each run. A worker that keeps one
// workspace across its repetitions allocates, once the buffers have grown,
// little beyond what the protocol processes, the scheduler and the delay
// model allocate themselves. The loop's termination test reads a count of the
// live processes whose view is undecided, kept current wherever a view
// changes or a process crashes, instead of asking every process.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "async/delay.hpp"
#include "async/event.hpp"
#include "async/process.hpp"
#include "async/scheduler.hpp"
#include "obs/observer.hpp"

namespace synran {

/// A crash injected at a fixed instant of simulated time, dropping all of
/// the victim's undelivered traffic. Composes with any delay model via a
/// Trigger on the central EventList (under the pure adversary-held model
/// time never advances past 0, so use scheduler crashes there instead).
struct AsyncCrashAt {
  SimTime at = 0;
  ProcessId victim = 0;
};

/// An omission burst injected at a fixed instant: up to `max_drops` of the
/// sender's in-flight messages (send order) are suppressed; the sender
/// stays alive. Each fired injection spends one omission directive against
/// AsyncEngineOptions::omission_budget.
struct AsyncOmitAt {
  SimTime at = 0;
  ProcessId sender = 0;
  std::uint64_t max_drops = 0;
};

struct AsyncFaultTimetable {
  std::vector<AsyncCrashAt> crashes;
  std::vector<AsyncOmitAt> omissions;
};

struct AsyncEngineOptions {
  std::uint32_t t_budget = 0;     ///< processes the adversary may crash
  std::uint64_t max_steps = 2000000;  ///< deliveries before giving up
  std::uint64_t seed = 1;
  /// Per-link delay policy; borrowed, nullptr = adversary-held everything
  /// (the strong asynchronous adversary, and the pre-event-loop behavior).
  DelayModel* delay = nullptr;
  /// Wall of simulated time: the run ends undecided when the next event
  /// lies beyond it. kNever = unbounded.
  SimTime max_time = kNever;
  /// Non-delivery events (timers, releases) before giving up; 0 derives
  /// 4 * max_steps. Guards against timer-only livelock.
  std::uint64_t max_events = 0;
  /// Timed fault injections; borrowed. Scheduler crashes share the same
  /// t_budget; omission injections spend omission_budget.
  const AsyncFaultTimetable* faults = nullptr;
  std::uint32_t omission_budget = 0;  ///< 0 = omissions forbidden
  /// Observer for run_begin / round-analog / run_end events (both trace
  /// formats work unchanged); borrowed, may be null.
  obs::EngineObserver* observer = nullptr;
};

struct AsyncRunResult {
  bool terminated = false;  ///< every live process decided
  /// Live processes that decided; agreement is vacuous when this is 0.
  std::uint32_t decided_live = 0;
  bool agreement = false;
  bool validity = true;  ///< unanimous-input runs decided the common input
  Bit decision = Bit::Zero;
  std::uint64_t steps = 0;  ///< deliveries (the scheduler-step count)
  std::uint32_t max_round = 0;   ///< highest protocol round reached
  std::uint64_t coin_flips = 0;  ///< total across processes
  /// Crashes, omission injections fired and the messages they suppressed,
  /// and `delivered`: messages handed to a recipient's on_message, the
  /// event the sync engine's `delivered` counts, so the two models' message
  /// complexities compare directly (examples/sync_vs_async.cpp). The async
  /// model has no value faults: the corruption pair stays 0.
  FaultTally faults;
  std::uint64_t timers_fired = 0;
  SimTime end_time = 0;       ///< simulated instant the run ended
  SimTime decision_time = 0;  ///< when the last live process decided
};

/// Reusable per-worker state for run_async, the async sibling of
/// EngineWorkspace: the buffers a run needs, kept across runs and reset in
/// place at the start of each. A run's result never depends on what the
/// workspace ran before, including a run that threw part-way. One
/// workspace serves one thread; workspaces are never shared concurrently.
class AsyncWorkspace {
 public:
  AsyncWorkspace();
  ~AsyncWorkspace();
  AsyncWorkspace(const AsyncWorkspace&) = delete;
  AsyncWorkspace& operator=(const AsyncWorkspace&) = delete;

 private:
  friend class detail::AsyncCore;
  struct Buffers;
  std::unique_ptr<Buffers> buffers_;
};

/// One execution on a fresh workspace.
AsyncRunResult run_async(const AsyncProcessFactory& factory,
                         const std::vector<Bit>& inputs,
                         AsyncScheduler& scheduler,
                         const AsyncEngineOptions& options);

/// One execution on `workspace`, reusing its buffers; returns exactly what
/// the overload above returns and fires the same observer stream.
AsyncRunResult run_async(const AsyncProcessFactory& factory,
                         const std::vector<Bit>& inputs,
                         AsyncScheduler& scheduler,
                         const AsyncEngineOptions& options,
                         AsyncWorkspace& workspace);

}  // namespace synran
