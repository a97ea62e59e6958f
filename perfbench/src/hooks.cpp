#include "hooks.hpp"

#include <type_traits>

#include "net/fabric.hpp"

namespace perfbench {

using synran::FaultPlan;
using synran::WorldView;

namespace {

class TimedAdversary final : public synran::Adversary {
 public:
  TimedAdversary(std::unique_ptr<synran::Adversary> inner, SyncTracer& tracer,
                 const TraceClock& clock)
      : inner_(std::move(inner)), tracer_(tracer), clock_(clock) {}

  void begin(std::uint32_t n, std::uint32_t t) override { inner_->begin(n, t); }
  FaultPlan plan_round(const WorldView& world) override {
    const double t0 = clock_.now();
    FaultPlan plan = inner_->plan_round(world);
    const double t1 = clock_.now();
    tracer_.planned(t0, t1, world);
    return plan;
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<synran::Adversary> inner_;
  SyncTracer& tracer_;
  const TraceClock& clock_;
};

}  // namespace

SyncTracer::SyncTracer(SpanLog& log, const TraceClock& clock,
                       std::size_t capture_cap)
    : log_(log),
      clock_(clock),
      capture_cap_(capture_cap),
      setup_(log.name_id("exec.rep_setup")),
      phase_a_(log.name_id("protocols.phase_a")),
      plan_(log.name_id("sim.plan")),
      plan_round_(log.name_id("adversary.plan_round")),
      deliver_(log.name_id("net.deliver_phase")),
      commit_(log.name_id("sim.commit")),
      harvest_(log.name_id("sim.harvest")),
      fold_(log.name_id("exec.fold")),
      trace_write_(log.name_id("obs.trace_write")),
      capture_(log.name_id("trace.capture")) {}

synran::AdversaryFactory SyncTracer::wrap(
    const synran::AdversaryFactory& inner) {
  return [this, inner](std::uint64_t seed) -> std::unique_ptr<synran::Adversary> {
    rep_start();
    return std::make_unique<TimedAdversary>(inner(seed), *this, clock_);
  };
}

std::int32_t SyncTracer::close_span(std::uint16_t name, double now) {
  const std::int32_t id = log_.add(name, last_, now, -1, counts_.reps);
  if (timer_ != nullptr) {
    const double w = timer_->write_seconds();
    const double delta = w - last_write_;
    last_write_ = w;
    // The writer runs first in the MultiObserver, so its time for this
    // boundary sits at the very end of the span.
    if (delta > 0) log_.add(trace_write_, now - delta, now, id, counts_.reps);
  }
  last_ = now;
  return id;
}

void SyncTracer::batch_begin() { last_ = clock_.now(); }

void SyncTracer::batch_end() { close_span(fold_, clock_.now()); }

void SyncTracer::trace_closed(double t0, double t1) {
  log_.add(trace_write_, t0, t1, -1, counts_.reps);
  if (timer_ != nullptr) last_write_ = timer_->write_seconds();
}

void SyncTracer::rep_start() { close_span(fold_, clock_.now()); }

void SyncTracer::on_run_begin(const synran::obs::RunInfo&) {
  close_span(setup_, clock_.now());
}

void SyncTracer::on_round_begin(const synran::obs::RoundObservation& round) {
  close_span(phase_a_, clock_.now());
  counts_.senders += round.senders;
}

void SyncTracer::planned(double t0, double t1, const WorldView& world) {
  plan_t0_ = t0;
  plan_t1_ = t1;
  // Reservoir sampling (Algorithm R): round i replaces a kept one with
  // probability cap / (i + 1), so the sample is uniform over the pass.
  const std::uint64_t i = counts_.plan_calls++;
  slot_ = kNoSlot;
  if (i < capture_cap_) {
    captured_.emplace_back();
    slot_ = captured_.size() - 1;
  } else if (const std::uint64_t j = reservoir_.below(i + 1); j < capture_cap_) {
    slot_ = static_cast<std::size_t>(j);
  }
  if (slot_ == kNoSlot) return;
  CapturedRound& c = captured_[slot_];
  c.n = world.n();
  c.payloads.assign(world.payloads().begin(), world.payloads().end());
  c.alive = world.alive();
  c.halted = world.halted();
  pending_capture_ = std::make_pair(t1, clock_.now());
}

void SyncTracer::on_fault_plan(synran::Round, const FaultPlan& plan) {
  // Bookkeeping first, then the boundary timestamp, so the tracer's own
  // work is a child span carved out of sim.plan's self time.
  const double c0 = clock_.now();
  ++counts_.deliver_calls;
  counts_.directives +=
      plan.crash_count() + plan.omission_count() + plan.corruption_count();
  for (const auto& c : plan.crashes) counts_.partial_links += c.deliver_to.count();
  for (const auto& o : plan.omissions) counts_.partial_links += o.drop_for.count();
  for (const auto& c : plan.corruptions) counts_.partial_links += c.forgeries.size();
  if (slot_ != kNoSlot) captured_[slot_].plan = plan;
  const double now = clock_.now();

  const std::int32_t id = close_span(plan_, now);
  log_.add(plan_round_, plan_t0_, plan_t1_, id, counts_.reps);
  if (pending_capture_) {
    log_.add(capture_, pending_capture_->first, pending_capture_->second, id,
             counts_.reps);
    pending_capture_.reset();
  }
  log_.add(capture_, c0, now, id, counts_.reps);
}

void SyncTracer::on_deliveries(synran::Round, std::uint64_t delivered) {
  close_span(deliver_, clock_.now());
  if (slot_ != kNoSlot) captured_[slot_].delivered = delivered;
}

void SyncTracer::on_round_end(const synran::obs::RoundObservation&) {
  close_span(commit_, clock_.now());
  ++counts_.rounds;
}

void SyncTracer::on_run_end(const synran::obs::RunObservation&) {
  close_span(harvest_, clock_.now());
  ++counts_.reps;
}

double replay_deliver(const std::vector<CapturedRound>& rounds,
                      unsigned repeat, bool& consistent) {
  consistent = true;
  if (rounds.empty()) return 0.0;
  std::vector<synran::DynBitset> active;
  for (const CapturedRound& c : rounds) {
    // The engine's receivers: alive, minus this round's victims and the
    // halted.
    synran::DynBitset a = c.alive;
    for (const auto& cd : c.plan.crashes) a.reset(cd.victim);
    c.halted.for_each_set([&](std::size_t i) { a.reset(i); });
    active.push_back(std::move(a));
  }
  std::vector<std::vector<double>> seconds(rounds.size());
  for (unsigned r = 0; r < repeat; ++r) {
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      const CapturedRound& c = rounds[k];
      const synran::RoundTraffic traffic{c.payloads, &c.plan};
      const auto t0 = Clock::now();
      const auto receipts = synran::deliver(c.n, traffic, active[k]);
      seconds[k].push_back(seconds_between(t0, Clock::now()));
      if (r > 0) continue;
      std::uint64_t delivered = 0;
      active[k].for_each_set(
          [&](std::size_t i) { delivered += receipts[i].count; });
      if (delivered != c.delivered) consistent = false;
    }
  }
  double total = 0.0;
  for (auto& s : seconds) total += median(std::move(s));
  return total / static_cast<double>(rounds.size());
}

// ------------------------------------------------------------ async engine

namespace {

template <typename F>
auto timed_call(SampledCalls& calls, const TraceClock& clock, F&& f) {
  if (!calls.sample()) return f();
  const double t0 = clock.now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    calls.add(clock.now() - t0);
  } else {
    auto out = f();
    calls.add(clock.now() - t0);
    return out;
  }
}

class TimedScheduler final : public synran::AsyncScheduler {
 public:
  TimedScheduler(std::unique_ptr<synran::AsyncScheduler> inner,
                 AsyncTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void begin(std::uint32_t n, std::uint32_t t) override { inner_->begin(n, t); }
  synran::AsyncAction step(const synran::AsyncWorld& world) override {
    return timed_call(tracer_.scheduler, tracer_.clock(),
                      [&] { return inner_->step(world); });
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<synran::AsyncScheduler> inner_;
  AsyncTracer& tracer_;
};

class TimedDelay final : public synran::DelayModel {
 public:
  TimedDelay(std::unique_ptr<synran::DelayModel> inner, AsyncTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void begin(std::uint32_t n) override { inner_->begin(n); }
  synran::LinkDelay classify(const synran::AsyncMessage& msg,
                             synran::SimTime now) override {
    return timed_call(tracer_.delay, tracer_.clock(),
                      [&] { return inner_->classify(msg, now); });
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<synran::DelayModel> inner_;
  AsyncTracer& tracer_;
};

class TimedProcess final : public synran::AsyncProcess {
 public:
  TimedProcess(std::unique_ptr<synran::AsyncProcess> inner, AsyncTracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  void start(synran::AsyncOutbox& out, synran::CoinSource& coins) override {
    timed_call(tracer_.protocol, tracer_.clock(),
               [&] { inner_->start(out, coins); });
  }
  void on_message(const synran::AsyncMessage& msg, synran::AsyncOutbox& out,
                  synran::CoinSource& coins) override {
    timed_call(tracer_.protocol, tracer_.clock(),
               [&] { inner_->on_message(msg, out, coins); });
  }
  void on_timer(std::uint64_t id, synran::AsyncOutbox& out,
                synran::CoinSource& coins) override {
    timed_call(tracer_.protocol, tracer_.clock(),
               [&] { inner_->on_timer(id, out, coins); });
  }
  bool decided() const override { return inner_->decided(); }
  synran::Bit decision() const override { return inner_->decision(); }
  synran::AsyncProcessView view() const override { return inner_->view(); }

 private:
  std::unique_ptr<synran::AsyncProcess> inner_;
  AsyncTracer& tracer_;
};

class TimedProcessFactory final : public synran::AsyncProcessFactory {
 public:
  TimedProcessFactory(const synran::AsyncProcessFactory& inner,
                      AsyncTracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  std::unique_ptr<synran::AsyncProcess> make(synran::ProcessId id,
                                             std::uint32_t n, std::uint32_t t,
                                             synran::Bit input) const override {
    return std::make_unique<TimedProcess>(inner_.make(id, n, t, input),
                                          tracer_);
  }
  const char* name() const override { return inner_.name(); }

 private:
  const synran::AsyncProcessFactory& inner_;
  AsyncTracer& tracer_;
};

}  // namespace

AsyncTracer::AsyncTracer(SpanLog& log, const TraceClock& clock)
    : log_(log),
      clock_(clock),
      setup_(log.name_id("exec.rep_setup")),
      run_(log.name_id("async.run")),
      fold_(log.name_id("exec.fold")) {}

synran::AsyncSchedulerFactory AsyncTracer::wrap(
    const synran::AsyncSchedulerFactory& f) {
  return [this, f](std::uint64_t seed)
             -> std::unique_ptr<synran::AsyncScheduler> {
    rep_start();
    return std::make_unique<TimedScheduler>(f(seed), *this);
  };
}

synran::AsyncDelayFactory AsyncTracer::wrap(const synran::AsyncDelayFactory& f) {
  // A null model means "adversary-held"; the engine then uses its own
  // AdversaryDelay, so wrapping a fresh one keeps the behaviour identical.
  return [this, f](std::uint64_t seed) -> std::unique_ptr<synran::DelayModel> {
    std::unique_ptr<synran::DelayModel> inner = f ? f(seed) : nullptr;
    if (inner == nullptr) inner = std::make_unique<synran::AdversaryDelay>();
    return std::make_unique<TimedDelay>(std::move(inner), *this);
  };
}

std::unique_ptr<synran::AsyncProcessFactory> AsyncTracer::wrap(
    const synran::AsyncProcessFactory& inner) {
  return std::make_unique<TimedProcessFactory>(inner, *this);
}

void AsyncTracer::close_span(std::uint16_t name, double now) {
  log_.add(name, last_, now, -1, reps);
  last_ = now;
}

void AsyncTracer::batch_begin() { last_ = clock_.now(); }
void AsyncTracer::batch_end() { close_span(fold_, clock_.now()); }
void AsyncTracer::rep_start() { close_span(fold_, clock_.now()); }

void AsyncTracer::on_run_begin(const synran::obs::RunInfo&) {
  close_span(setup_, clock_.now());
}

void AsyncTracer::on_run_end(const synran::obs::RunObservation&) {
  close_span(run_, clock_.now());
  ++reps;
}

}  // namespace perfbench
