#include "async/core.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "async/audit.hpp"
#include "common/check.hpp"

namespace synran {

namespace {

// Event tags: kind in the top bits, payload (arena index / packed timer)
// below. One EventSource — the core itself — serves every kind.
constexpr std::uint64_t kKindShift = 60;
constexpr std::uint64_t kPayloadMask = (1ULL << kKindShift) - 1;
constexpr std::uint64_t kTagFabric = 1;   ///< timed delivery of arena[i]
constexpr std::uint64_t kTagRelease = 2;  ///< deadline release of arena[i]
constexpr std::uint64_t kTagTimer = 3;    ///< (process, timer-id) expiry

std::uint64_t tag_of(std::uint64_t kind, std::uint64_t payload) {
  return (kind << kKindShift) | payload;
}

/// Held messages at once; InFlight::pool_pos is 32 bits wide.
constexpr std::size_t kMaxHeld = 0xffffffffULL;

[[noreturn]] void scheduler_violation(const std::string& what) {
  throw InvariantError("async scheduler: " + what);
}

}  // namespace

namespace detail {

/// Wraps a PRNG coin source and counts the flips it serves — the metric
/// Aspnes's lower bound is about.
class CountingRandomCoins final : public CoinSource {
 public:
  explicit CountingRandomCoins(std::uint64_t seed) : rng_(seed) {}
  bool flip() override {
    ++count_;
    return rng_.flip();
  }
  std::uint64_t count() const { return count_; }

  /// Restarts the stream and the count as if freshly constructed.
  void reseed(std::uint64_t seed) {
    rng_.reseed(seed);
    count_ = 0;
  }

 private:
  // This *is* a CoinSource implementation (the production-path PRNG behind
  // flip()), so the direct generator is the point, not a leak around it.
  Xoshiro256 rng_;  // synran-lint: allow(coin-source)
  std::uint64_t count_ = 0;
};

/// One message's lifetime in the fabric. Timed entries wait for their
/// fabric event; Held entries sit in the scheduler-visible pool (with
/// pool_pos tracking their index there); Done entries are spent —
/// delivered, dropped, or suppressed — and any still-queued event for
/// them dispatches as a no-op. An entry is 24 bytes, since the arena keeps
/// every message a run sends.
struct InFlight {
  AsyncMessage msg;
  std::uint32_t pool_pos = 0;  ///< route() keeps the pool below 2^32
  enum class State : std::uint8_t { Timed, Held, Done } state = State::Timed;
};

}  // namespace detail

/// A run's engine-side buffers, kept across runs. The core resets them in
/// place when a run starts, and the outbox buffers before each activation.
struct AsyncWorkspace::Buffers {
  EventList events;
  AsyncRunAuditor auditor;
  std::vector<std::unique_ptr<AsyncProcess>> procs;
  std::vector<detail::CountingRandomCoins> coins;
  std::vector<bool> crashed;
  std::vector<AsyncProcessView> views;
  std::vector<detail::InFlight> arena;
  std::vector<AsyncMessage> held_view;
  std::vector<std::size_t> held_ids;
  std::vector<AsyncMessage> sends;  ///< the open activation's outbox
  std::vector<AsyncTimerRequest> timers;
};

AsyncWorkspace::AsyncWorkspace() : buffers_(std::make_unique<Buffers>()) {}
AsyncWorkspace::~AsyncWorkspace() = default;

namespace detail {

/// The run-scoped engine. Keeps the EventList, the message arena, the
/// adversary-held pool and the auditor in the workspace it borrows, and
/// drives the observer; processes (owned by the workspace but rebuilt each
/// run), the scheduler, and the delay model are the run's.
class AsyncCore final : public EventSource {
 public:
  AsyncCore(const AsyncProcessFactory& factory, const std::vector<Bit>& inputs,
            AsyncScheduler& scheduler, const AsyncEngineOptions& options,
            AsyncWorkspace& workspace)
      : inputs_(inputs),
        scheduler_(scheduler),
        opt_(options),
        events_(workspace.buffers_->events),
        auditor_(workspace.buffers_->auditor),
        procs_(workspace.buffers_->procs),
        coins_(workspace.buffers_->coins),
        crashed_(workspace.buffers_->crashed),
        views_(workspace.buffers_->views),
        arena_(workspace.buffers_->arena),
        held_view_(workspace.buffers_->held_view),
        held_ids_(workspace.buffers_->held_ids),
        sends_(workspace.buffers_->sends),
        timers_(workspace.buffers_->timers) {
    n_ = static_cast<std::uint32_t>(inputs.size());
    SYNRAN_REQUIRE(n_ >= 1, "need at least one process");
    SYNRAN_REQUIRE(opt_.t_budget < n_, "t must leave a live process");
    delay_ = opt_.delay != nullptr ? opt_.delay : &default_delay_;
    max_events_ = opt_.max_events != 0
                      ? opt_.max_events
                      : (opt_.max_steps <= kNever / 4 ? opt_.max_steps * 4
                                                      : kNever - 1);
    // Nothing of an earlier run on this workspace survives, even one that
    // threw part-way: its queued events (which point at its core and its
    // Triggers) and its messages are dropped here, and every activation
    // starts from an empty outbox.
    events_.reset();
    arena_.clear();
    held_view_.clear();
    held_ids_.clear();
    SeedSequence seeds(opt_.seed);
    procs_.resize(n_);
    if (coins_.size() != n_) coins_.assign(n_, CountingRandomCoins(0));
    for (ProcessId i = 0; i < n_; ++i) {
      procs_[i] = factory.make(i, n_, opt_.t_budget, inputs[i]);
      coins_[i].reseed(seeds.stream(i));
    }
    crashed_.assign(n_, false);
    views_.assign(n_, AsyncProcessView{});
    undecided_live_ = n_;
  }

  AsyncRunResult run();

  void do_next_event(SimTime now, std::uint64_t tag) override;

 private:
  SimTime now() const { return events_.now(); }

  /// The crash budget left: the limit minus the run's spend so far.
  std::uint32_t crash_budget() const {
    return opt_.t_budget - res_.faults.crashes - interval_.crashes;
  }

  /// An outbox for one activation of `p`, over the cleared send and timer
  /// buffers; pump(p) reads them in place once the activation returns.
  AsyncOutbox open_outbox(ProcessId p) {
    sends_.clear();
    timers_.clear();
    return AsyncOutbox(p, n_, sends_, timers_);
  }

  /// Commits the crash of `victim`; it leaves the undecided-live count.
  void mark_crashed(ProcessId victim) {
    crashed_[victim] = true;
    if (!views_[victim].decided) --undecided_live_;
    ++interval_.crashes;
  }

  void route(const AsyncMessage& msg);
  void pump(ProcessId p);
  void deliver_activation(const AsyncMessage& msg);
  void pool_swap_remove(std::size_t pos);
  void compact_held_done();
  void apply_scheduler_crash(const AsyncAction& action);
  void inject_crash(SimTime at, ProcessId victim);
  void inject_omission(SimTime at, const AsyncOmitAt& omit);
  void flush_interval();
  void harvest();

  const std::vector<Bit>& inputs_;
  AsyncScheduler& scheduler_;
  AsyncEngineOptions opt_;
  AdversaryDelay default_delay_;
  DelayModel* delay_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint64_t max_events_ = 0;

  // The workspace's buffers.
  EventList& events_;
  AsyncRunAuditor& auditor_;
  std::vector<std::unique_ptr<AsyncProcess>>& procs_;
  std::vector<CountingRandomCoins>& coins_;
  std::vector<bool>& crashed_;
  std::vector<AsyncProcessView>& views_;
  std::vector<InFlight>& arena_;
  /// The adversary-held pool, mirrored as (message, arena-id) pairs kept in
  /// lockstep. Delivery removal is swap-remove — schedulers must not rely
  /// on stable pending order — exactly the step engine's semantics, which
  /// is what keeps the adversary-held configuration bit-compatible with it.
  /// LaggardScheduler's resumable scan relies on this discipline: a
  /// delivery swap-removes its index, crash removal compacts in order, and
  /// sends append.
  std::vector<AsyncMessage>& held_view_;
  std::vector<std::size_t>& held_ids_;
  std::vector<AsyncMessage>& sends_;
  std::vector<AsyncTimerRequest>& timers_;

  /// Live processes whose view is undecided: the loop's termination test.
  /// pump() moves it when a view's `decided` flips, mark_crashed() when an
  /// undecided process crashes.
  std::uint32_t undecided_live_ = 0;

  std::vector<std::unique_ptr<Trigger>> triggers_;

  AsyncRunResult res_;

  // Round-analog intervals: one per value of the live processes' maximum
  // protocol round, flushed when it advances and at run end. Every event
  // counts once, in `interval_`; the flush adds it to the run's tally and
  // hands it to the observer as one RoundObservation, so the records sum
  // to the run_end totals (the trace schema's cross-check invariant).
  std::uint32_t cur_round_ = 0;
  FaultTally interval_;
};

void AsyncCore::route(const AsyncMessage& msg) {
  auditor_.on_send(now(), msg);
  if (crashed_[msg.to]) return;  // discarded at send, as ever
  const LinkDelay d = delay_->classify(msg, now());
  const std::size_t id = arena_.size();
  if (!d.held) {
    SYNRAN_CHECK_MSG(d.deliver_at >= now(),
                     "delay model scheduled a delivery in the past");
    arena_.push_back(InFlight{msg, 0, InFlight::State::Timed});
    events_.schedule_at(*this, d.deliver_at, tag_of(kTagFabric, id));
  } else {
    SYNRAN_CHECK_MSG(held_view_.size() < kMaxHeld,
                     "held pool outgrew its 32-bit positions");
    const auto pos = static_cast<std::uint32_t>(held_view_.size());
    arena_.push_back(InFlight{msg, pos, InFlight::State::Held});
    held_view_.push_back(msg);
    held_ids_.push_back(id);
    if (d.deadline != kNever) {
      SYNRAN_CHECK_MSG(d.deadline >= now(),
                       "delay model set a deadline in the past");
      events_.schedule_at(*this, d.deadline, tag_of(kTagRelease, id));
    }
  }
}

void AsyncCore::pump(ProcessId p) {
  for (const AsyncMessage& m : sends_) route(m);
  for (const AsyncTimerRequest& t : timers_) {
    SYNRAN_REQUIRE(t.id < (1ULL << 32), "timer id must fit in 32 bits");
    events_.schedule_in(*this, t.delay,
                        tag_of(kTagTimer, (static_cast<std::uint64_t>(p) << 32) |
                                              t.id));
  }
  const bool was_decided = views_[p].decided;
  views_[p] = procs_[p]->view();
  if (views_[p].decided != was_decided) {
    if (was_decided) {
      ++undecided_live_;
    } else {
      --undecided_live_;
      res_.decision_time = now();
    }
  }
  // p is live (crashed processes are never activated), only its view
  // changed, and every view was already <= cur_round_: p alone can raise
  // the live processes' maximum round.
  if (views_[p].round > cur_round_) {
    flush_interval();
    cur_round_ = views_[p].round;
  }
}

void AsyncCore::deliver_activation(const AsyncMessage& msg) {
  auditor_.on_deliver(now(), msg);
  AsyncOutbox out = open_outbox(msg.to);
  procs_[msg.to]->on_message(msg, out, coins_[msg.to]);
  pump(msg.to);
  ++res_.steps;
  ++interval_.delivered;
}

void AsyncCore::pool_swap_remove(std::size_t pos) {
  held_view_[pos] = held_view_.back();
  held_view_.pop_back();
  held_ids_[pos] = held_ids_.back();
  held_ids_.pop_back();
  if (pos < held_ids_.size())
    arena_[held_ids_[pos]].pool_pos = static_cast<std::uint32_t>(pos);
}

/// Order-preserving removal of every pool entry whose arena record was
/// marked Done (crash drops, purges, omission suppressions).
void AsyncCore::compact_held_done() {
  std::size_t w = 0;
  for (std::size_t r = 0; r < held_ids_.size(); ++r) {
    if (arena_[held_ids_[r]].state == InFlight::State::Done) continue;
    held_view_[w] = held_view_[r];
    held_ids_[w] = held_ids_[r];
    arena_[held_ids_[w]].pool_pos = static_cast<std::uint32_t>(w);
    ++w;
  }
  held_view_.resize(w);
  held_ids_.resize(w);
}

void AsyncCore::apply_scheduler_crash(const AsyncAction& action) {
  auditor_.on_crash(now(), action.victim);
  mark_crashed(action.victim);
  // Validate the drop list before touching anything: each index must name a
  // held message, belong to the victim, and appear at most once.
  std::vector<bool> dropped(held_view_.size(), false);
  for (const std::size_t idx : action.drop) {
    if (idx >= held_view_.size()) {
      std::ostringstream os;
      os << "drop index " << idx << " out of range (pending pool holds "
         << held_view_.size() << " messages)";
      scheduler_violation(os.str());
    }
    if (dropped[idx]) {
      std::ostringstream os;
      os << "duplicate drop index " << idx << " in crash of process "
         << action.victim;
      scheduler_violation(os.str());
    }
    if (held_view_[idx].from != action.victim) {
      std::ostringstream os;
      os << "drop index " << idx << " names a message from live process "
         << held_view_[idx].from << ", not crash victim " << action.victim;
      scheduler_violation(os.str());
    }
    dropped[idx] = true;
  }
  // Drop the selected in-transit messages of the victim, keep the rest;
  // also purge everything held that is addressed to it.
  for (std::size_t i = 0; i < held_ids_.size(); ++i) {
    if (dropped[i] || held_view_[i].to == action.victim)
      arena_[held_ids_[i]].state = InFlight::State::Done;
  }
  compact_held_done();
}

void AsyncCore::inject_crash(SimTime at, ProcessId victim) {
  auditor_.on_crash(at, victim);
  SYNRAN_CHECK_MSG(crash_budget() > 0, "timetable crash past the budget");
  mark_crashed(victim);
  // A timetable crash is total: every undelivered message the victim sent
  // dies with it (timed or held), and held traffic addressed to it is
  // purged. Timed traffic addressed to it is discarded at its fabric event.
  for (auto& f : arena_) {
    if (f.state == InFlight::State::Done) continue;
    if (f.msg.from == victim)
      f.state = InFlight::State::Done;
    else if (f.state == InFlight::State::Held && f.msg.to == victim)
      f.state = InFlight::State::Done;
  }
  compact_held_done();
}

void AsyncCore::inject_omission(SimTime at, const AsyncOmitAt& omit) {
  std::uint64_t dropped = 0;
  for (auto& f : arena_) {
    if (dropped >= omit.max_drops) break;
    if (f.msg.from != omit.sender) continue;
    if (f.state == InFlight::State::Timed ||
        f.state == InFlight::State::Held) {
      f.state = InFlight::State::Done;
      ++dropped;
    }
  }
  auditor_.on_omission(at, omit.sender, dropped);
  compact_held_done();
  ++interval_.omissions;
  interval_.omitted += dropped;
}

void AsyncCore::flush_interval() {
  const std::uint32_t budget_open = opt_.t_budget - res_.faults.crashes;
  const FaultTally interval = std::exchange(interval_, FaultTally{});
  res_.faults += interval;
  if (opt_.observer == nullptr || interval == FaultTally{}) return;
  obs::RoundObservation round;
  round.round = cur_round_;
  round.alive = n_ - res_.faults.crashes;
  for (ProcessId i = 0; i < n_; ++i) {
    if (crashed_[i]) continue;
    if (views_[i].decided) ++round.decided;
    if (views_[i].estimate == Bit::One)
      ++round.ones;
    else
      ++round.zeros;
  }
  round.budget_left = budget_open;
  round.faults = interval;
  opt_.observer->on_round_end(round);
}

void AsyncCore::do_next_event(SimTime now_time, std::uint64_t tag) {
  auditor_.note_time(now_time);
  const std::uint64_t kind = tag >> kKindShift;
  const std::uint64_t payload = tag & kPayloadMask;
  switch (kind) {
    case kTagFabric: {
      InFlight& f = arena_[payload];
      if (f.state != InFlight::State::Timed) return;  // dropped meanwhile
      const AsyncMessage msg = f.msg;
      f.state = InFlight::State::Done;
      if (crashed_[msg.to]) return;  // died with its recipient
      deliver_activation(msg);
      return;
    }
    case kTagRelease: {
      InFlight& f = arena_[payload];
      if (f.state != InFlight::State::Held) return;  // already handled
      const AsyncMessage msg = f.msg;
      pool_swap_remove(f.pool_pos);
      f.state = InFlight::State::Done;
      deliver_activation(msg);
      return;
    }
    case kTagTimer: {
      const auto p = static_cast<ProcessId>(payload >> 32);
      const std::uint64_t id = payload & 0xffffffffULL;
      if (crashed_[p]) return;  // timers die with their process
      ++res_.timers_fired;
      AsyncOutbox out = open_outbox(p);
      procs_[p]->on_timer(id, out, coins_[p]);
      pump(p);
      return;
    }
    default:
      SYNRAN_CHECK_MSG(false, "unknown event tag kind");
  }
}

void AsyncCore::harvest() {
  bool first = true;
  bool agree = true;
  bool any = false;
  for (ProcessId i = 0; i < n_; ++i) {
    if (crashed_[i]) continue;
    res_.max_round = std::max(res_.max_round, procs_[i]->view().round);
    res_.coin_flips += coins_[i].count();
    if (!procs_[i]->decided()) continue;
    any = true;
    ++res_.decided_live;
    if (first) {
      res_.decision = procs_[i]->decision();
      first = false;
    } else if (procs_[i]->decision() != res_.decision) {
      agree = false;
    }
  }
  res_.agreement = any && agree;
  // Validity: a unanimous-input run must not decide the other value.
  if (any) {
    const bool all_zero =
        std::all_of(inputs_.begin(), inputs_.end(),
                    [](Bit b) { return b == Bit::Zero; });
    const bool all_one = std::all_of(inputs_.begin(), inputs_.end(),
                                     [](Bit b) { return b == Bit::One; });
    for (ProcessId i = 0; i < n_; ++i) {
      if (crashed_[i] || !procs_[i]->decided()) continue;
      const Bit d = procs_[i]->decision();
      if ((all_zero && d == Bit::One) || (all_one && d == Bit::Zero))
        res_.validity = false;
    }
  }
  res_.end_time = now();
  flush_interval();
  if (opt_.observer != nullptr) {
    obs::RunObservation end;
    end.terminated = res_.terminated;
    end.agreement = res_.agreement;
    end.has_decision = any;
    end.decision = res_.decision == Bit::One ? 1 : 0;
    end.rounds_to_decision = res_.max_round;
    end.rounds_to_halt = res_.max_round;
    end.faults = res_.faults;
    end.survivors = n_ - res_.faults.crashes;
    opt_.observer->on_run_end(end);
  }
  auditor_.on_end(res_.faults.crashes, res_.faults.omissions);
}

AsyncRunResult AsyncCore::run() {
  auditor_.begin(n_, opt_.t_budget, opt_.omission_budget);
  delay_->begin(n_);
  scheduler_.begin(n_, opt_.t_budget);
  if (opt_.observer != nullptr) {
    obs::RunInfo info;
    info.n = n_;
    info.t_budget = opt_.t_budget;
    info.per_round_cap = 0;
    info.seed = opt_.seed;
    info.omission_budget = opt_.omission_budget;
    info.omission_round_cap = 0;
    opt_.observer->on_run_begin(info);
  }

  // Arm the fault timetable as Triggers on the shared clock, so injections
  // interleave deterministically with deliveries and timers.
  if (opt_.faults != nullptr) {
    for (const auto& c : opt_.faults->crashes) {
      triggers_.push_back(std::make_unique<Trigger>(
          events_, [this, victim = c.victim](SimTime t, std::uint64_t) {
            if (!crashed_[victim]) inject_crash(t, victim);
          }));
      triggers_.back()->arm_at(c.at);
    }
    for (const auto& o : opt_.faults->omissions) {
      triggers_.push_back(std::make_unique<Trigger>(
          events_, [this, omit = o](SimTime t, std::uint64_t) {
            inject_omission(t, omit);
          }));
      triggers_.back()->arm_at(o.at);
    }
  }

  for (ProcessId i = 0; i < n_; ++i) {
    AsyncOutbox out = open_outbox(i);
    procs_[i]->start(out, coins_[i]);
    pump(i);
  }

  for (;;) {
    if (res_.steps >= opt_.max_steps) break;  // gave up (capped)
    if (undecided_live_ == 0) {
      res_.terminated = true;
      break;
    }
    if (events_.dispatched() >= max_events_) break;  // timer livelock guard

    if (!held_view_.empty()) {
      AsyncWorld world(held_view_, views_, crashed_, crash_budget(),
                       res_.steps);
      const AsyncAction action = scheduler_.step(world);
      if (action.kind == AsyncAction::Kind::Crash) {
        apply_scheduler_crash(action);
        continue;
      }
      if (action.kind == AsyncAction::Kind::Wait) {
        // The adversary yields to the clock. With nothing scheduled the
        // system is starved for good: end the run undecided.
        if (events_.empty()) break;
        if (events_.next_time() > opt_.max_time) break;  // out of time
        events_.run_next();
        continue;
      }
      SYNRAN_CHECK_MSG(action.index < held_view_.size(),
                       "scheduler delivered an invalid message");
      const AsyncMessage msg = held_view_[action.index];
      // O(1) removal; schedulers must not rely on stable pending order (the
      // adversary model only cares which message is picked, not how the
      // engine stores the rest).
      arena_[held_ids_[action.index]].state = InFlight::State::Done;
      pool_swap_remove(action.index);
      deliver_activation(msg);
      continue;
    }

    if (!events_.empty()) {
      if (events_.next_time() > opt_.max_time) break;  // out of time
      events_.run_next();
      continue;
    }
    break;  // nothing in transit or scheduled and undecided: stuck
  }

  harvest();
  return res_;
}

}  // namespace detail

AsyncRunResult run_async(const AsyncProcessFactory& factory,
                         const std::vector<Bit>& inputs,
                         AsyncScheduler& scheduler,
                         const AsyncEngineOptions& options) {
  AsyncWorkspace workspace;
  return run_async(factory, inputs, scheduler, options, workspace);
}

AsyncRunResult run_async(const AsyncProcessFactory& factory,
                         const std::vector<Bit>& inputs,
                         AsyncScheduler& scheduler,
                         const AsyncEngineOptions& options,
                         AsyncWorkspace& workspace) {
  detail::AsyncCore core(factory, inputs, scheduler, options, workspace);
  return core.run();
}

}  // namespace synran
