// Runtime invariant auditing for the asynchronous engine — the async
// sibling of sim/audit.hpp's RunAuditor. The engine drives it always-on;
// every violation throws InvariantError with a narrative naming the instant
// and the actor, because a silent model violation would quietly invalidate
// whatever experiment was running.
//
// Guards:
//   * event-time monotonicity — observable instants never decrease;
//   * crash accounting — budget respected, victims valid and crashed once;
//   * omission accounting — injection budget respected, dead senders can't
//     be "omitted";
//   * silence of the dead — no delivery to, or activation of, a crashed
//     process, and no sends attributed to one after its crash.
//
// note_time, on_send and on_deliver run on every event, so they are
// defined here, inline: each tests its predicates in a single branch and
// only a violation calls out of line, into a cold function that re-tests
// them in order and builds the message.
#pragma once

#include <cstdint>
#include <vector>

#include "async/event.hpp"
#include "async/process.hpp"

namespace synran {

class AsyncRunAuditor {
 public:
  void begin(std::uint32_t n, std::uint32_t t_budget,
             std::uint32_t omission_budget);

  /// Every observable instant flows through here first.
  void note_time(SimTime now) {
    if (now < last_time_) [[unlikely]]
      time_violation(now);
    last_time_ = now;
  }

  /// A crash is about to be committed at `now`.
  void on_crash(SimTime now, ProcessId victim);

  /// `msg` is about to be handed to its recipient's on_message at `now`.
  void on_deliver(SimTime now, const AsyncMessage& msg) {
    note_time(now);
    if (msg.to >= n_ || msg.from >= n_ || crashed_[msg.to]) [[unlikely]]
      deliver_violation(now, msg);
  }

  /// `msg` was just emitted by an activation of msg.from at `now`.
  void on_send(SimTime now, const AsyncMessage& msg) {
    note_time(now);
    if (msg.from >= n_ || msg.to >= n_ || crashed_[msg.from]) [[unlikely]]
      send_violation(now, msg);
  }

  /// An omission injection against `sender` fired at `now`, suppressing
  /// `dropped` in-flight messages.
  void on_omission(SimTime now, ProcessId sender, std::uint64_t dropped);

  /// End-of-run cross-check against the engine's own accounting.
  void on_end(std::uint32_t crashes_reported,
              std::uint32_t omissions_reported) const;

  std::uint32_t crashes() const { return crashes_; }
  std::uint32_t omissions() const { return omissions_; }

 private:
  [[noreturn, gnu::cold]] void time_violation(SimTime now) const;
  [[noreturn, gnu::cold]] void deliver_violation(SimTime now,
                                                 const AsyncMessage& msg) const;
  [[noreturn, gnu::cold]] void send_violation(SimTime now,
                                              const AsyncMessage& msg) const;

  std::uint32_t n_ = 0;
  std::uint32_t t_budget_ = 0;
  std::uint32_t omission_budget_ = 0;
  std::uint32_t crashes_ = 0;
  std::uint32_t omissions_ = 0;
  SimTime last_time_ = 0;
  std::vector<bool> crashed_;
};

}  // namespace synran
