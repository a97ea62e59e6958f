// Round-granular observability hooks for the synchronous engine.
//
// The engine's correctness instrumentation (RunAuditor) throws on model
// violations; this layer is its non-judgmental sibling: it *reports* what
// happened — populations, traffic composition, fault plans, delivery counts
// — to any number of installed observers, so tracing, metrics, and future
// exporters compose without the engine knowing about any of them. Install
// one observer via EngineOptions::observer, or several via MultiObserver.
//
// Callback order per execution (mirroring the engine's phases):
//   on_run_begin
//   per round with traffic: on_round_begin (after phase A),
//                           on_fault_plan (adversary decided),
//                           on_deliveries (phase B done),
//                           on_round_end  (crashes committed)
//   on_run_end
// The final silent round (everyone halted, nothing sent) produces no round
// callbacks, matching the paper's round count.
//
// Observers must not mutate the execution and must stay deterministic: no
// wall-clock, no external randomness (the wall-clock ban is lint-enforced
// repo-wide outside src/obs/ and bench/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "net/types.hpp"

namespace synran::obs {

/// Static facts about one execution, delivered at on_run_begin.
struct RunInfo {
  std::uint32_t n = 0;
  std::uint32_t t_budget = 0;
  std::uint32_t per_round_cap = 0;  ///< 0 = uncapped
  std::uint64_t seed = 0;
  std::uint32_t omission_budget = 0;    ///< 0 = omissions forbidden
  std::uint32_t omission_round_cap = 0;  ///< 0 = uncapped
  std::uint32_t byzantine_budget = 0;    ///< 0 = corrupted values forbidden
  std::uint32_t byzantine_round_cap = 0;  ///< 0 = uncapped
};

/// One round's observables. At on_round_begin `faults` is still zero;
/// on_round_end re-delivers the same round with it filled.
struct RoundObservation {
  Round round = 0;
  std::uint32_t alive = 0;    ///< not crashed (halted included)
  std::uint32_t halted = 0;   ///< voluntarily stopped
  std::uint32_t senders = 0;  ///< broadcast a payload this round
  std::uint32_t ones = 0;     ///< senders supporting 1
  std::uint32_t zeros = 0;    ///< senders supporting 0
  std::uint32_t deterministic = 0;  ///< senders in SynRan's det stage
  std::uint32_t decided = 0;  ///< live processes with decided() true
  std::uint32_t budget_left = 0;    ///< crash budget before this round
  FaultTally faults;                ///< this round's plan and deliveries
};

/// Final verdicts of one execution (a flattened RunResult, kept here so the
/// observer layer does not depend on the engine headers).
struct RunObservation {
  bool terminated = false;
  bool agreement = false;
  bool has_decision = false;
  int decision = 0;
  std::uint32_t rounds_to_decision = 0;
  std::uint32_t rounds_to_halt = 0;
  FaultTally faults;  ///< the run total: the sum of its rounds'
  std::uint32_t survivors = 0;  ///< processes never crashed
};

/// One failed attempt at a repetition, delivered at on_run_abandoned when an
/// execution throws instead of reaching on_run_end. `attempt` is 0-based;
/// the executor may retry the same rep (identical seed) up to its retry
/// budget, so several abandonments can precede one successful run_end.
struct RunAbandoned {
  std::size_t rep = 0;        ///< repetition index within the batch
  std::uint64_t seed = 0;     ///< the rep's engine seed (schema-2 derived)
  std::uint32_t attempt = 0;  ///< which attempt failed (0 = first)
  std::string error;          ///< exception text
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void on_run_begin(const RunInfo& /*info*/) {}
  /// After phase A: populations and traffic composition are known; crash and
  /// delivery fields of `round` are still zero.
  virtual void on_round_begin(const RoundObservation& /*round*/) {}
  /// The adversary's decision for this round, before it is applied.
  virtual void on_fault_plan(Round /*round*/, const FaultPlan& /*plan*/) {}
  /// Phase B finished; `delivered` is this round's point-to-point total.
  virtual void on_deliveries(Round /*round*/, std::uint64_t /*delivered*/) {}
  /// Crashes committed; `round.faults` now carries the round's tally.
  virtual void on_round_end(const RoundObservation& /*round*/) {}
  virtual void on_run_end(const RunObservation& /*result*/) {}
  /// An execution threw before reaching on_run_end. May fire instead of —
  /// never in addition to — on_run_end for a given attempt, and may fire
  /// with no preceding on_run_begin when the failure happened during setup
  /// (e.g. the adversary factory threw).
  virtual void on_run_abandoned(const RunAbandoned& /*failure*/) {}
};

/// Fans every callback out to a list of observers, in installation order.
/// Borrows the observers; they must outlive the runs they watch.
class MultiObserver final : public EngineObserver {
 public:
  MultiObserver() = default;
  explicit MultiObserver(std::vector<EngineObserver*> observers)
      : observers_(std::move(observers)) {}

  void add(EngineObserver& observer) { observers_.push_back(&observer); }
  std::size_t size() const { return observers_.size(); }

  void on_run_begin(const RunInfo& info) override {
    for (auto* o : observers_) o->on_run_begin(info);
  }
  void on_round_begin(const RoundObservation& round) override {
    for (auto* o : observers_) o->on_round_begin(round);
  }
  void on_fault_plan(Round round, const FaultPlan& plan) override {
    for (auto* o : observers_) o->on_fault_plan(round, plan);
  }
  void on_deliveries(Round round, std::uint64_t delivered) override {
    for (auto* o : observers_) o->on_deliveries(round, delivered);
  }
  void on_round_end(const RoundObservation& round) override {
    for (auto* o : observers_) o->on_round_end(round);
  }
  void on_run_end(const RunObservation& result) override {
    for (auto* o : observers_) o->on_run_end(result);
  }
  void on_run_abandoned(const RunAbandoned& failure) override {
    for (auto* o : observers_) o->on_run_abandoned(failure);
  }

 private:
  std::vector<EngineObserver*> observers_;
};

}  // namespace synran::obs
