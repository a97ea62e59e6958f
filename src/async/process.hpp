// The asynchronous message-passing substrate.
//
// The paper's §1.2 positions its synchronous bound against the asynchronous
// world: [FLP85] forbids deterministic solutions outright, Ben-Or's
// protocol [BO83] solves it in O(1) expected rounds for t = O(√n), and
// Aspnes [Asp97] lower-bounds the coin flips. This substrate lets the
// experiment suite reproduce that context: processes react to single
// message deliveries, and the adversary is the scheduler — it sees
// everything and picks which in-transit message arrives next, and which
// processes crash (dropping any subset of their in-transit messages).
//
// An activation's sends and timer requests go into an AsyncOutbox the
// engine hands it. The outbox writes into buffers the engine owns and
// reuses across activations and runs, so a broadcast allocates nothing
// once the buffers have grown; the engine reads them in place after the
// activation returns. Only the engine creates outboxes, and an outbox's
// sender id is fixed for its lifetime, so a protocol cannot send in
// another process's name.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "net/types.hpp"

namespace synran {

/// A message in transit.
struct AsyncMessage {
  ProcessId from = 0;
  ProcessId to = 0;
  Payload payload = 0;
};

/// A request to be woken `delay` ticks of simulated time from now; `id` is
/// echoed back through on_timer so one process can keep several timers
/// apart. Timer support is what partial synchrony buys the protocol layer:
/// after GST a bounded delivery delay makes timeouts meaningful.
struct AsyncTimerRequest {
  std::uint64_t delay = 0;
  std::uint64_t id = 0;
};

namespace detail {
class AsyncCore;
}  // namespace detail

/// Collects a process's sends (and timer requests) during one activation,
/// appending them to engine-owned buffers.
class AsyncOutbox {
 public:
  AsyncOutbox(const AsyncOutbox&) = delete;
  AsyncOutbox& operator=(const AsyncOutbox&) = delete;

  void send(ProcessId to, Payload p) { sends_.push_back({self_, to, p}); }
  void broadcast(Payload p) {
    for (ProcessId i = 0; i < n_; ++i) send(i, p);
  }

  /// Asks the engine to call on_timer(id) after `delay` ticks. Under the
  /// pure adversary-held model simulated time never advances, so timers
  /// set there simply never fire — protocols must not rely on them for
  /// safety, only liveness.
  void set_timer(std::uint64_t delay, std::uint64_t id = 0) {
    timers_.push_back({delay, id});
  }

 private:
  friend class detail::AsyncCore;

  AsyncOutbox(ProcessId self, std::uint32_t n,
              std::vector<AsyncMessage>& sends,
              std::vector<AsyncTimerRequest>& timers)
      : self_(self), n_(n), sends_(sends), timers_(timers) {}

  const ProcessId self_;
  const std::uint32_t n_;
  std::vector<AsyncMessage>& sends_;
  std::vector<AsyncTimerRequest>& timers_;
};

/// Scheduler-visible snapshot of a process (full information).
struct AsyncProcessView {
  Bit estimate = Bit::Zero;
  bool decided = false;
  std::uint32_t round = 0;  ///< the protocol's internal round counter
};

/// An asynchronous protocol participant. All randomness flows through the
/// CoinSource handed to each activation, as in the synchronous substrate.
class AsyncProcess {
 public:
  virtual ~AsyncProcess() = default;

  /// Called once before any delivery; emit the initial messages.
  virtual void start(AsyncOutbox& out, CoinSource& coins) = 0;

  /// Called per delivered message.
  virtual void on_message(const AsyncMessage& msg, AsyncOutbox& out,
                          CoinSource& coins) = 0;

  /// Called when a timer set via AsyncOutbox::set_timer expires. Default:
  /// ignore (message-driven protocols need no clock).
  virtual void on_timer(std::uint64_t /*id*/, AsyncOutbox& /*out*/,
                        CoinSource& /*coins*/) {}

  virtual bool decided() const = 0;
  virtual Bit decision() const = 0;
  /// The scheduler's snapshot. `view().decided` must equal decided(): the
  /// engine reads the view after every activation, and its termination
  /// test counts the live processes whose view is undecided.
  virtual AsyncProcessView view() const = 0;
};

class AsyncProcessFactory {
 public:
  virtual ~AsyncProcessFactory() = default;
  virtual std::unique_ptr<AsyncProcess> make(ProcessId id, std::uint32_t n,
                                             std::uint32_t t,
                                             Bit input) const = 0;
  virtual const char* name() const = 0;
};

}  // namespace synran
