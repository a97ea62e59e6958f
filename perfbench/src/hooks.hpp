// Layer timing from outside the engines, for the traced run. Everything
// here wraps a public interface — obs::EngineObserver, Adversary,
// AsyncScheduler, DelayModel, AsyncProcessFactory — so the program under
// test is measured exactly as users build it, with no source change.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "async/delay.hpp"
#include "async/process.hpp"
#include "async/scheduler.hpp"
#include "common/rng.hpp"
#include "exec/async_batch.hpp"
#include "exec/batch.hpp"
#include "obs/observer.hpp"
#include "obs/trace_io.hpp"
#include "stats.hpp"

namespace perfbench {

// ------------------------------------------------------------- sync engine

/// One round captured for the deliver() replay: the traffic and active set
/// the engine handed to the fabric, and the delivery count it observed.
struct CapturedRound {
  std::uint32_t n = 0;
  std::vector<std::optional<synran::Payload>> payloads;
  synran::DynBitset alive;
  synran::DynBitset halted;
  synran::FaultPlan plan;
  std::uint64_t delivered = 0;
};

/// Timestamps every phase boundary the sync engine reports, plus rep and
/// batch boundaries from the adversary factory and the harness, and turns
/// them into spans:
///
///   exec.rep_setup       adversary-factory call → on_run_begin
///   protocols.phase_a    on_run_begin / on_round_end → on_round_begin
///   sim.plan             on_round_begin → on_fault_plan (self time is
///                        sim.audit_plan_s); child adversary.plan_round
///   net.deliver_phase    on_fault_plan → on_deliveries
///   sim.commit           on_deliveries → on_round_end
///   sim.harvest          last on_round_end → on_run_end
///   exec.fold            on_run_end → next rep start or batch end (and
///                        batch start → first rep start)
///   obs.trace_write      child of whichever span the trace writer's
///                        callback fell in (TraceWriteTimer deltas)
///   trace.capture        child spans of this tracer's own bookkeeping
///
/// Serial batches only: a parallel batch replays buffered callbacks after
/// the fact, so their timestamps would be meaningless.
class SyncTracer final : public synran::obs::EngineObserver {
 public:
  /// Keeps a uniform sample of `capture_cap` rounds (a seeded reservoir,
  /// so the same rounds every run) for the deliver() replay.
  SyncTracer(SpanLog& log, const TraceClock& clock, std::size_t capture_cap);

  /// Decorates every adversary the factory makes; the call marks rep start.
  synran::AdversaryFactory wrap(const synran::AdversaryFactory& inner);
  /// Trace-writer time to carve out of the spans (tournament only).
  void set_trace_timer(const synran::obs::TraceWriteTimer* timer) {
    timer_ = timer;
    last_write_ = timer != nullptr ? timer->write_seconds() : 0.0;
  }
  void batch_begin();
  void batch_end();
  /// The harness closed the trace writer over [t0, t1] (a top-level span).
  void trace_closed(double t0, double t1);

  void on_run_begin(const synran::obs::RunInfo& info) override;
  void on_round_begin(const synran::obs::RoundObservation& round) override;
  void on_fault_plan(synran::Round round,
                     const synran::FaultPlan& plan) override;
  void on_deliveries(synran::Round round, std::uint64_t delivered) override;
  void on_round_end(const synran::obs::RoundObservation& round) override;
  void on_run_end(const synran::obs::RunObservation& result) override;

  /// Called by the adversary decorator.
  void rep_start();
  void planned(double t0, double t1, const synran::WorldView& world);

  struct Counts {
    std::uint64_t senders = 0;
    std::uint64_t plan_calls = 0;
    std::uint64_t directives = 0;
    std::uint64_t deliver_calls = 0;
    std::uint64_t partial_links = 0;
    std::uint64_t rounds = 0;
    std::uint64_t reps = 0;
  };
  const Counts& counts() const { return counts_; }
  const std::vector<CapturedRound>& captured() const { return captured_; }
  const TraceClock& clock() const { return clock_; }

 private:
  /// Closes the span [last_, now) under `name`, carving out any trace-write
  /// time that accrued during it; returns the span index.
  std::int32_t close_span(std::uint16_t name, double now);

  SpanLog& log_;
  const TraceClock& clock_;
  const synran::obs::TraceWriteTimer* timer_ = nullptr;
  double last_write_ = 0;
  std::size_t capture_cap_;
  synran::Xoshiro256 reservoir_{0x5eed};
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::size_t slot_ = kNoSlot;  ///< where this round's capture goes

  std::uint16_t setup_, phase_a_, plan_, plan_round_, deliver_, commit_,
      harvest_, fold_, trace_write_, capture_;
  double last_ = 0;  ///< time of the previous boundary
  double plan_t0_ = 0, plan_t1_ = 0;
  std::optional<std::pair<double, double>> pending_capture_;
  Counts counts_;
  std::vector<CapturedRound> captured_;
};

/// Replays captured rounds through the public deliver() and returns the
/// mean seconds per call over the rounds, each round's cost being the
/// median of `repeat` calls interleaved with the other rounds' (so a burst
/// of interference lands on one sample of many rounds, not on all samples
/// of one). Sets `consistent` to false when a replay's delivery count
/// disagrees with the count the engine reported for that round.
double replay_deliver(const std::vector<CapturedRound>& rounds,
                      unsigned repeat, bool& consistent);

// ------------------------------------------------------------ async engine

/// Call counts and (sampled) busy time of one decorated async interface.
/// Calls are counted exactly; 1 in `kEvery` is timed and the total scaled,
/// because most calls take well under a microsecond.
struct SampledCalls {
  static constexpr std::uint64_t kEvery = 16;
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;
  double timed_seconds = 0;

  bool sample() { return calls++ % kEvery == 0; }
  void add(double seconds) {
    ++timed;
    timed_seconds += seconds;
  }
  double estimated_seconds() const {
    return timed == 0 ? 0.0
                      : timed_seconds * static_cast<double>(calls) /
                            static_cast<double>(timed);
  }
};

/// Rep spans of the async engine (exec.rep_setup, async.run, exec.fold)
/// plus the sampled decorators for the scheduler, the delay model and the
/// protocol's callbacks.
class AsyncTracer final : public synran::obs::EngineObserver {
 public:
  AsyncTracer(SpanLog& log, const TraceClock& clock);

  synran::AsyncSchedulerFactory wrap(const synran::AsyncSchedulerFactory& f);
  synran::AsyncDelayFactory wrap(const synran::AsyncDelayFactory& f);
  /// The returned factory borrows `inner` and this tracer.
  std::unique_ptr<synran::AsyncProcessFactory> wrap(
      const synran::AsyncProcessFactory& inner);

  void batch_begin();
  void batch_end();
  void rep_start();

  void on_run_begin(const synran::obs::RunInfo& info) override;
  void on_run_end(const synran::obs::RunObservation& result) override;

  SampledCalls scheduler, delay, protocol;
  std::uint64_t reps = 0;

  const TraceClock& clock() const { return clock_; }

 private:
  void close_span(std::uint16_t name, double now);

  SpanLog& log_;
  const TraceClock& clock_;
  std::uint16_t setup_, run_, fold_;
  double last_ = 0;
};

}  // namespace perfbench
