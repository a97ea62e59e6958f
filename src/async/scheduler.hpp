// Scheduler (adversary) interface for the asynchronous engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "async/process.hpp"
#include "common/rng.hpp"

namespace synran {

/// What the scheduler sees each step: the in-transit messages, the
/// processes' full state, and its remaining crash budget.
class AsyncWorld {
 public:
  AsyncWorld(std::span<const AsyncMessage> pending,
             std::span<const AsyncProcessView> views,
             const std::vector<bool>& crashed, std::uint32_t crash_budget,
             std::uint64_t step)
      : pending_(pending),
        views_(views),
        crashed_(crashed),
        crash_budget_(crash_budget),
        step_(step) {}

  std::span<const AsyncMessage> pending() const { return pending_; }
  const AsyncProcessView& view(ProcessId p) const { return views_[p]; }
  std::uint32_t n() const {
    return static_cast<std::uint32_t>(views_.size());
  }
  bool crashed(ProcessId p) const { return crashed_[p]; }
  std::uint32_t crash_budget() const { return crash_budget_; }
  std::uint64_t step() const { return step_; }

 private:
  std::span<const AsyncMessage> pending_;
  std::span<const AsyncProcessView> views_;
  const std::vector<bool>& crashed_;
  std::uint32_t crash_budget_;
  std::uint64_t step_;
};

/// One scheduling decision.
struct AsyncAction {
  enum class Kind : std::uint8_t {
    Deliver,  ///< deliver pending()[index]
    Crash,    ///< crash `victim`, dropping its in-transit messages listed
              ///< in drop (indices into pending(); each must belong to the
              ///< victim and appear at most once — the engine rejects
              ///< out-of-range or duplicate indices with InvariantError)
    Wait,     ///< decline to act; let simulated time advance to the next
              ///< scheduled event (a deadline, timer, or timed delivery).
              ///< Waiting with nothing scheduled ends the run undecided —
              ///< the adversary may starve a fully-asynchronous system.
  };
  Kind kind = Kind::Deliver;
  std::size_t index = 0;
  ProcessId victim = 0;
  std::vector<std::size_t> drop;
};

class AsyncScheduler {
 public:
  virtual ~AsyncScheduler() = default;
  virtual void begin(std::uint32_t /*n*/, std::uint32_t /*t*/) {}
  /// Must return a Deliver of a valid pending index (to a live process), a
  /// Crash within budget, or a Wait. Called only while held messages exist.
  virtual AsyncAction step(const AsyncWorld& world) = 0;
  virtual const char* name() const = 0;
};

/// Delivers in send order — the benign round-robin-ish schedule.
class FifoScheduler final : public AsyncScheduler {
 public:
  AsyncAction step(const AsyncWorld& world) override;
  const char* name() const override { return "fifo"; }
};

/// Delivers a uniformly random pending message.
class RandomScheduler final : public AsyncScheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}
  AsyncAction step(const AsyncWorld& world) override;
  const char* name() const override { return "random"; }

 private:
  // Scheduler randomness is *adversary-side*: it picks the schedule, not the
  // protocol's coins, so it is outside the CoinSource enumeration contract.
  Xoshiro256 rng_;  // synran-lint: allow(coin-source)
};

/// Adaptive: starves the messages of a rotating laggard set of up to t
/// processes (delivering their traffic only when nothing else is pending)
/// and, when a process is about to push the system toward unanimity, crashes
/// it. A budget-disciplined rendering of the classic async adversary.
///
/// Each step delivers the first non-laggard message in pending(), but scans
/// from `scan_from_`, not from 0, with the invariant that pending()[0,
/// scan_from_) holds laggard traffic only. It holds because this scheduler
/// never returns Wait: between two of its steps the engine changes the pool
/// only by applying the previous action (swap-remove at the delivered index,
/// or the crash's compaction) and by appending new sends. Events that could
/// reorder the pool (deadline releases, timetable faults) run only after a
/// Wait or while the pool is empty, and the pool empties only when
/// scan_from_ is 0. So: after delivering index i, every slot below i is
/// still laggard (scan_from_ = i); after the all-laggard fallback, every
/// remaining slot is (scan_from_ = the new pool size); after a crash the
/// scan restarts at 0. The chosen index, and so the run, is the full scan's.
class LaggardScheduler final : public AsyncScheduler {
 public:
  explicit LaggardScheduler(std::uint64_t seed) : rng_(seed) {}
  void begin(std::uint32_t n, std::uint32_t t) override;
  AsyncAction step(const AsyncWorld& world) override;
  const char* name() const override { return "laggard"; }

 private:
  // Adversary-side randomness, as above.
  Xoshiro256 rng_;  // synran-lint: allow(coin-source)
  std::uint32_t t_ = 0;
  std::vector<bool> lagging_;
  std::size_t scan_from_ = 0;  ///< pending()[0, scan_from_) is laggard-only
};

/// Maximally patient: always Waits, so every held message is delivered only
/// when a deadline forces it. Under GstDelay this is the extremal
/// partial-synchrony adversary — each message arrives exactly at
/// max(send, GST) + bound — and the run's decision time directly measures
/// the GST's cost. Under pure asynchrony (no deadlines) it starves the
/// system outright.
class StallScheduler final : public AsyncScheduler {
 public:
  AsyncAction step(const AsyncWorld& world) override;
  const char* name() const override { return "stall"; }
};

}  // namespace synran
