// The batch workloads: `attack`, `tournament` and `async`. Each repeats its
// cells over a seeded sequence of master seeds through the executors users
// call (run_repeated, exec::AsyncBatchExecutor). One pass runs every cell
// of the workload once; runs stop only between passes, so every run has
// the same mix of cells. One pass is the unit of latency, because cells
// differ several-fold in cost and a per-call percentile would follow the
// seed's draw of slow calls in whichever cell it falls:
//
//   miss  the pass's batch calls — results computed from scratch;
//   hit   the same results restored from their checkpoint_json() bytes
//         (the path --resume and the serve cache take instead of
//         recomputing), re-serialized, and compared byte for byte.
#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/omission.hpp"
#include "async/benor.hpp"
#include "exec/async_executor.hpp"
#include "hooks.hpp"
#include "obs/trace_binary.hpp"
#include "pinned.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/kfloodmin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "serve/cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace synran;

/// Warm-up passes use their own fixed seed, so set-up does the same work on
/// every run whatever --seed is.
constexpr std::uint64_t kSetupSeed = 0x5e7;
constexpr int kSetups = 5;
constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

struct Hooks {
  SyncTracer* sync = nullptr;
  AsyncTracer* async = nullptr;
};

struct CallOutput {
  std::uint64_t reps = 0;    ///< attempted
  std::uint64_t failed = 0;  ///< quarantined, or every rep of a call that threw
  bool safe = true;          ///< agreement, validity and termination held
  std::string checkpoint;    ///< checkpoint_json().dump()
  std::string trace;         ///< trace/2 bytes (tournament)
  std::uint64_t trace_events = 0;
  double miss_ms = 0;
  double hit_ms = 0;
  bool restored_equal = true;
  std::string error;
};

double ms_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e3;
}

/// Fills the output fields every call shares, including the timed restore.
template <typename Stats>
void finish_call(const Stats& stats, std::uint64_t reps, CallOutput& out) {
  out.reps = reps;
  out.failed = stats.reps_quarantined();
  out.safe = stats.all_safe();
  out.checkpoint = stats.checkpoint_json().dump();
  const auto t0 = Clock::now();
  const auto parsed = obs::JsonValue::parse(out.checkpoint);
  out.restored_equal =
      parsed.has_value() &&
      Stats::from_checkpoint(*parsed).checkpoint_json().dump() ==
          out.checkpoint;
  out.hit_ms = ms_since(t0);
}

class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  virtual std::size_t cells() const = 0;
  /// Workers of the traced run's parallel share, which measures
  /// exec.speedup; 0 = none. Timed runs are serial, so their speed depends
  /// on one vCPU of a shared machine, not two.
  virtual unsigned speedup_threads() const { return 0; }
  virtual bool checks_safety() const { return false; }
  virtual CallOutput call(std::size_t cell, std::uint64_t seed,
                          unsigned threads, const Hooks& hooks) = 0;
};

/// Runs one sync batch, with the tracer wrapped around it when tracing.
template <typename Body>
RepeatedRunStats traced_sync_batch(const Hooks& hooks, Body&& body) {
  if (hooks.sync != nullptr) hooks.sync->batch_begin();
  RepeatedRunStats stats = body();
  if (hooks.sync != nullptr) hooks.sync->batch_end();
  return stats;
}

// E1b's largest cell: SynRan against the adaptive crash adversary at the
// paper's t = n - 1, one rep per call (a rep is ~36 rounds).
class Attack final : public BatchWorkload {
 public:
  std::size_t cells() const override { return 1; }
  bool checks_safety() const override { return true; }

  CallOutput call(std::size_t, std::uint64_t seed, unsigned threads,
                  const Hooks& hooks) override {
    RepeatSpec spec;
    spec.n = 4096;
    spec.pattern = InputPattern::Half;
    spec.reps = 1;
    spec.seed = seed;
    spec.threads = threads;
    spec.policy = FailurePolicy::Quarantine;
    spec.engine.t_budget = spec.n - 1;
    spec.engine.max_rounds = 200000;
    spec.engine.observer = hooks.sync;
    const AdversaryFactory adversaries =
        hooks.sync != nullptr ? hooks.sync->wrap(coinbias_) : coinbias_;

    CallOutput out;
    const auto t0 = Clock::now();
    const auto stats = traced_sync_batch(
        hooks, [&] { return run_repeated(synran_, adversaries, spec); });
    out.miss_ms = ms_since(t0);
    finish_call(stats, spec.reps, out);
    return out;
  }

 private:
  SynRanFactory synran_;
  AdversaryFactory coinbias_ = [](std::uint64_t s) {
    return std::make_unique<CoinBiasAdversary>(CoinBiasOptions{0.55, true, s});
  };
};

// The E17a grid: {SynRan, FloodMin, hardened k-FloodMin} x {chaos 0.15,
// targeted omission, byzantine 0.2, coin attack 0.65}, n = 48, crashes off,
// 416 reps per cell, 2 directives per round at most. Every batch writes its
// trace/2 (in memory) through obs::TraceWriteTimer.
class Tournament final : public BatchWorkload {
 public:
  static constexpr std::uint32_t kN = 48;
  static constexpr std::size_t kReps = 416;
  static constexpr std::uint32_t kRoundCap = 2;
  static constexpr std::uint32_t kUnlimited = 0xffffffffu;

  std::size_t cells() const override { return 12; }
  unsigned speedup_threads() const override { return 2; }

  CallOutput call(std::size_t cell, std::uint64_t seed, unsigned threads,
                  const Hooks& hooks) override {
    const ProcessFactory& protocol = *protocols_[cell / 4];
    const bool corrupts = cell % 4 >= 2;
    RepeatSpec spec;
    spec.n = kN;
    spec.pattern = InputPattern::Half;
    spec.reps = kReps;
    spec.seed = seed;
    spec.threads = threads;
    spec.policy = FailurePolicy::Quarantine;
    spec.engine.t_budget = 0;
    spec.engine.max_rounds = 200000;
    if (corrupts) {
      spec.engine.byzantine_budget = kUnlimited;
      spec.engine.byzantine_round_cap = kRoundCap;
    } else {
      spec.engine.omission_budget = kUnlimited;
      spec.engine.omission_round_cap = kRoundCap;
    }
    const AdversaryFactory& inner = adversaries_[cell % 4];
    const AdversaryFactory adversaries =
        hooks.sync != nullptr ? hooks.sync->wrap(inner) : inner;

    std::ostringstream trace;
    obs::BinaryTraceWriter writer(
        trace, obs::Trace2Header{static_cast<std::uint16_t>(kSeedSchemaVersion),
                                 "perfbench"});
    obs::TraceWriteTimer timer(writer);
    obs::MultiObserver both;
    spec.engine.observer = &timer;
    if (hooks.sync != nullptr) {
      // The writer goes first, so the tracer's timestamps follow its work.
      both.add(timer);
      both.add(*hooks.sync);
      spec.engine.observer = &both;
      hooks.sync->set_trace_timer(&timer);
    }

    CallOutput out;
    const auto t0 = Clock::now();
    const auto stats = traced_sync_batch(
        hooks, [&] { return run_repeated(protocol, adversaries, spec); });
    const double c0 = hooks.sync != nullptr ? hooks.sync->clock().now() : 0.0;
    timer.close();
    if (hooks.sync != nullptr) {
      hooks.sync->trace_closed(c0, hooks.sync->clock().now());
      hooks.sync->set_trace_timer(nullptr);
    }
    out.miss_ms = ms_since(t0);
    out.trace = trace.str();
    out.trace_events = timer.events_written();
    finish_call(stats, spec.reps, out);
    return out;
  }

 private:
  SynRanFactory synran_;
  FloodMinFactory floodmin_{FloodMinOptions{4, false}};
  KFloodMinFactory hardened_{KFloodMinOptions{4, 2, kRoundCap}};
  const ProcessFactory* protocols_[3] = {&synran_, &floodmin_, &hardened_};
  AdversaryFactory adversaries_[4] = {
      [](std::uint64_t s) {
        ChaosOptions o;
        o.drop_rate = 0.15;
        o.seed = s;
        return std::make_unique<ChaosAdversary>(o);
      },
      [](std::uint64_t s) {
        return std::make_unique<OmissionAdversary>(
            OmissionAttackOptions{0.55, s});
      },
      [](std::uint64_t s) {
        ByzantineOptions o;
        o.corrupt_rate = 0.2;
        o.seed = s;
        return std::make_unique<ByzantineAdversary>(o);
      },
      [](std::uint64_t s) {
        CoinAttackOptions o;
        o.push_ratio = 0.65;
        o.seed = s;
        return std::make_unique<AdaptiveCoinAttacker>(o);
      }};
};

// E11/E16's Ben-Or, n = 64, t = 8, in three async regimes.
class Async final : public BatchWorkload {
 public:
  static constexpr std::size_t kReps = 4;

  std::size_t cells() const override { return 3; }
  unsigned speedup_threads() const override { return 2; }

  CallOutput call(std::size_t cell, std::uint64_t seed, unsigned threads,
                  const Hooks& hooks) override {
    const AsyncProcessFactory& protocol = cell == 2 ? retransmit_ : plain_;
    AsyncRepeatSpec spec;
    spec.n = 64;
    spec.pattern = InputPattern::Half;
    spec.reps = kReps;
    spec.seed = seed;
    spec.threads = threads;
    spec.policy = FailurePolicy::Quarantine;
    spec.engine.t_budget = 8;

    AsyncSchedulerFactory schedulers = schedulers_[cell];
    AsyncDelayFactory delays = delays_[cell];
    std::unique_ptr<AsyncProcessFactory> timed_protocol;
    if (hooks.async != nullptr) {
      schedulers = hooks.async->wrap(schedulers);
      delays = hooks.async->wrap(delays);
      timed_protocol = hooks.async->wrap(protocol);
      spec.engine.observer = hooks.async;
      hooks.async->batch_begin();
    }

    CallOutput out;
    const auto t0 = Clock::now();
    const auto stats = exec::AsyncBatchExecutor().run(
        timed_protocol != nullptr ? *timed_protocol : protocol, schedulers,
        delays, spec);
    if (hooks.async != nullptr) hooks.async->batch_end();
    out.miss_ms = ms_since(t0);
    finish_call(stats, spec.reps, out);
    return out;
  }

 private:
  BenOrAsyncFactory plain_;
  BenOrAsyncFactory retransmit_{BenOrOptions{16}};
  AsyncSchedulerFactory schedulers_[3] = {laggard_scheduler_factory(),
                                          random_scheduler_factory(),
                                          stall_scheduler_factory()};
  AsyncDelayFactory delays_[3] = {held_delay_factory(),
                                  uniform_delay_factory(1, 10),
                                  gst_delay_factory(50, 8)};
};

std::unique_ptr<BatchWorkload> make_workload(const std::string& name) {
  if (name == "attack") return std::make_unique<Attack>();
  if (name == "tournament") return std::make_unique<Tournament>();
  return std::make_unique<Async>();
}

/// What a sequence of passes produced.
struct PassLog {
  std::size_t passes = 0;
  std::uint64_t reps = 0;
  std::uint64_t failed_reps = 0;
  double wall = 0;
  WindowRate rate;
  LatencySample miss, hit;
  std::vector<std::string> call_digests;  ///< per call, in order
  Digest pinned;                          ///< the pinned leading passes
  std::uint64_t pinned_reps = 0;
  std::uint64_t unsafe_reps = 0;
  std::uint64_t unrestored_reps = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t trace_events = 0;
  std::vector<std::string> errors;
};

/// Runs passes first_pass, first_pass+1, ... until `max_passes` have run or
/// `seconds` have elapsed (checked between passes, so passes are whole).
/// Call j of the sequence runs cell j mod cells with master seed
/// SeedSequence(seed).stream(j).
void run_passes(BatchWorkload& w, std::uint64_t seed, unsigned threads,
                const Hooks& hooks, std::size_t first_pass,
                std::size_t max_passes, double seconds,
                std::size_t pinned_passes, PassLog& log) {
  const SeedSequence seeds(seed);
  const auto start = Clock::now();
  log.rate.start(start);
  for (std::size_t p = first_pass; p - first_pass < max_passes; ++p) {
    const std::uint64_t reps_before = log.reps;
    double miss_ms = 0, hit_ms = 0;
    for (std::size_t c = 0; c < w.cells(); ++c) {
      const std::size_t j = p * w.cells() + c;
      CallOutput out;
      try {
        out = w.call(c, seeds.stream(j), threads, hooks);
      } catch (const std::exception& e) {
        out.failed = out.reps = 1;
        out.error = e.what();
      }
      miss_ms += out.miss_ms;
      hit_ms += out.hit_ms;
      log.reps += out.reps;
      log.failed_reps += out.failed;
      if (!out.error.empty()) log.errors.push_back(out.error);
      if (!out.safe) log.unsafe_reps += out.reps;
      if (!out.restored_equal) log.unrestored_reps += out.reps;
      log.call_digests.push_back(serve::cache_file_stem(out.checkpoint) +
                                 serve::cache_file_stem(out.trace));
      if (p < pinned_passes) {
        log.pinned.add(out.checkpoint);
        if (!out.trace.empty()) log.pinned.add(out.trace);
        log.pinned_reps += out.reps;
      }
      log.trace_bytes += out.trace.size();
      log.trace_events += out.trace_events;
    }
    ++log.passes;
    log.miss.ms.push_back(miss_ms);
    log.hit.ms.push_back(hit_ms);
    const auto now = Clock::now();
    log.rate.add(static_cast<double>(log.reps - reps_before), now);
    if (seconds_between(start, now) >= seconds) break;
  }
  log.wall += seconds_between(start, Clock::now());
}

/// Applies the checks every pass log is subject to.
void check_passes(const PassLog& log, bool safety, Result& r) {
  r.attempted += log.reps;
  if (log.failed_reps > 0)
    r.fail(std::to_string(log.failed_reps) + " reps quarantined or thrown" +
               (log.errors.empty() ? "" : ": " + log.errors.front()),
           log.failed_reps);
  if (log.unrestored_reps > 0)
    r.fail("a checkpoint did not restore byte-identically",
           log.unrestored_reps);
  if (safety && log.unsafe_reps > 0)
    r.fail("agreement, validity or termination failed", log.unsafe_reps);
}

/// Peak resident set of this process, MiB.
double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Result timed_run(const Options& o) {
  Result r;
  std::vector<double> setups;
  std::unique_ptr<BatchWorkload> w;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    w = make_workload(o.workload);
    PassLog warm;
    run_passes(*w, kSetupSeed, 1, {}, 0, 1, 0, 0, warm);
    setups.push_back(seconds_between(t0, Clock::now()));
    check_passes(warm, w->checks_safety(), r);
  }

  const Pin& pin = pin_for(o.workload);
  PassLog log;
  run_passes(*w, o.seed, 1, {}, 0, kNoLimit, o.seconds, pin.passes, log);
  const double rps = log.rate.median_rate();
  const double mean_rps = static_cast<double>(log.reps) / log.wall;
  const LatencySample miss = log.miss;
  const LatencySample hit = log.hit;
  // A slow machine may finish fewer passes than the pin covers; the rest
  // run untimed so the check always sees the same outputs.
  if (log.passes < pin.passes)
    run_passes(*w, o.seed, 1, {}, log.passes, pin.passes - log.passes, 1e300,
               pin.passes, log);
  check_passes(log, w->checks_safety(), r);
  const DigestVerdict v =
      check_pinned(log.pinned, o.seed == kDefaultSeed, pin.hex);
  r.notes.push_back("digest of the first " + std::to_string(pin.passes) +
                    " passes: " + v.describe());
  if (!v.matches) r.fail("pinned output digest differs", log.pinned_reps);

  const std::string passes = std::to_string(miss.ms.size()) + " passes";
  r.notes.push_back("timed phase: " + std::to_string(log.passes) + " passes, " +
                    std::to_string(log.reps) + " reps in " + fmt(log.wall) +
                    " s, serial; " + fmt(mean_rps) +
                    " reps/s over the whole phase");
  r.notes.push_back("miss latency (compute one pass): " + miss.describe());
  r.notes.push_back("hit latency (restore one pass): " + hit.describe());
  r.add("reps_per_s", rps, "reps/s",
        "median of " + std::to_string(log.rate.windows()) + " windows");
  r.add("miss_ms_p50", miss.p50(), "ms", passes);
  r.add("hit_ms_p50", hit.p50(), "ms", passes);
  r.add("setup_s", median(setups), "s",
        "median of " + std::to_string(kSetups) + " set-ups");
  r.unbounded = {{"miss_ms_p90", miss.p90(), "ms", passes + "; not bounded"},
                 {"hit_ms_p90", hit.p90(), "ms", passes + "; not bounded"},
                 {"peak_rss_mb", self_peak_rss_mb(), "MiB",
                  "this process; not bounded"}};
  return r;
}

Result traced_run(const Options& o) {
  Result r;
  auto w = make_workload(o.workload);
  PassLog warm;
  run_passes(*w, kSetupSeed, 1, {}, 0, 1, 0, 0, warm);
  check_passes(warm, w->checks_safety(), r);

  // A fixed pass count for a given --seconds, so a parent and a change
  // trace the same work and their layer times compare directly; the rates
  // fill about two thirds of the run at the speed measured on a 4-core
  // Xeon VM.
  const bool parallel = w->speedup_threads() > 1;
  const double per_second = o.workload == "attack"       ? 8.0
                            : o.workload == "tournament" ? 1.2
                                                         : 0.9;
  const auto passes = static_cast<std::size_t>(
      std::max(1.0, std::round(per_second * o.seconds)));

  SpanLog spans;
  const bool is_async = o.workload == "async";
  // Attack rounds carry up to ~2000 crash directives of n bits each (about
  // 1 MB); keep their sample small. Tournament rounds are tiny.
  const std::size_t cap = o.workload == "attack" ? 48 : 4096;
  PassLog par, ser, traced;
  std::vector<Metric> v;
  double wall = 0;
  {
    TraceClock clock;
    SyncTracer sync(spans, clock, cap);
    AsyncTracer async(spans, clock);
    Hooks hooks;
    if (is_async)
      hooks.async = &async;
    else
      hooks.sync = &sync;
    // Pass by pass, so a drift in the machine's speed lands on every share
    // alike; untraced and traced swap places each pass so neither always
    // runs second, on warm caches.
    for (std::size_t p = 0; p < passes; ++p) {
      if (parallel)
        run_passes(*w, o.seed, w->speedup_threads(), {}, p, 1, 1e300, 0, par);
      for (int k = 0; k < 2; ++k) {
        if ((p + k) % 2 == 0)
          run_passes(*w, o.seed, 1, {}, p, 1, 1e300, 0, ser);
        else
          run_passes(*w, o.seed, 1, hooks, p, 1, 1e300, 0, traced);
      }
    }
    wall = traced.wall;

    // A span layer's self time, with its span count; a count as measured.
    const auto span = [&](const char* metric, const char* name) {
      return Metric{metric, spans.self_seconds(name), "",
                    std::to_string(spans.count(name)) + " spans"};
    };
    const auto count = [](const char* metric, std::uint64_t n) {
      return Metric{metric, static_cast<double>(n), "", ""};
    };
    v = {span("exec.rep_setup_s", "exec.rep_setup"),
         span("exec.fold_s", "exec.fold"),
         {"residual_s", spans.residual_seconds(wall), "",
          "of " + fmt(wall) + " s traced"},
         {"trace_overhead", traced.wall / ser.wall, "",
          fmt(traced.wall) + " s / " + fmt(ser.wall) + " s"}};
    if (parallel)
      v.push_back({"exec.speedup",
                   (static_cast<double>(par.reps) / par.wall) /
                       (static_cast<double>(ser.reps) / ser.wall),
                   "", std::to_string(w->speedup_threads()) + " threads"});
    if (is_async) {
      // The sampled decorators' scaled totals, each with its exact count.
      const auto sampled = [](const char* metric, const SampledCalls& calls) {
        return Metric{metric, calls.estimated_seconds(), "",
                      std::to_string(calls.timed) + " of " +
                          std::to_string(calls.calls) + " calls timed"};
      };
      const double sched = async.scheduler.estimated_seconds();
      const double delay = async.delay.estimated_seconds();
      const double proto = async.protocol.estimated_seconds();
      v.insert(v.end(),
               {count("exec.reps", async.reps),
                sampled("async.scheduler_s", async.scheduler),
                count("async.scheduler_steps", async.scheduler.calls),
                sampled("async.delay_s", async.delay),
                count("async.delay_calls", async.delay.calls),
                sampled("async.protocol_s", async.protocol),
                count("async.protocol_calls", async.protocol.calls),
                {"async.core_s", spans.self_seconds("async.run") - sched - delay - proto,
                 "", std::to_string(spans.count("async.run")) +
                         " runs minus the three above"}});
      r.notes.push_back("sampled: 1 in " + std::to_string(SampledCalls::kEvery) +
                        " AsyncScheduler::step, DelayModel::classify and "
                        "AsyncProcess callbacks are timed and the totals "
                        "scaled; counts are exact");
    } else {
      const auto& c = sync.counts();
      bool consistent = true;
      const double per_call = replay_deliver(sync.captured(), 9, consistent);
      if (!consistent)
        r.fail("a replayed deliver() disagreed with the engine's count", 1);
      v.insert(v.end(),
               {span("protocols.phase_a_s", "protocols.phase_a"),
                count("protocols.senders", c.senders),
                span("adversary.plan_round_s", "adversary.plan_round"),
                count("adversary.plan_calls", c.plan_calls),
                count("adversary.directives", c.directives),
                span("sim.audit_plan_s", "sim.plan"),
                span("net.deliver_phase_s", "net.deliver_phase"),
                {"net.deliver_s", per_call * static_cast<double>(c.deliver_calls),
                 "", std::to_string(sync.captured().size()) +
                         " rounds replayed, scaled to every call"},
                count("net.deliver_calls", c.deliver_calls),
                count("net.partial_links", c.partial_links),
                span("sim.commit_s", "sim.commit"),
                span("sim.harvest_s", "sim.harvest"),
                count("sim.rounds", c.rounds),
                count("exec.reps", c.reps),
                span("obs.trace_write_s", "obs.trace_write"),
                count("obs.trace_bytes", traced.trace_bytes),
                count("obs.trace_events", traced.trace_events)});
      r.notes.push_back(
          "sampled: net.deliver_s replays a uniform sample of " +
          std::to_string(sync.captured().size()) +
          " rounds 9 times each through deliver() and scales the mean of "
          "their medians by net.deliver_calls; the other spans time every "
          "call");
      if (o.workload == "attack")
        r.notes.push_back(
            "note: adversary.plan_round_s includes CoinBias's own deliver() "
            "call, so the fabric's share of a round is larger than "
            "net.deliver_phase_s alone");
    }
    r.notes.push_back("tracer bookkeeping (trace.capture, excluded from "
                      "every layer): " +
                      fmt(spans.self_seconds("trace.capture")) + " s");
  }

  check_passes(par, w->checks_safety(), r);
  check_passes(ser, w->checks_safety(), r);
  check_passes(traced, w->checks_safety(), r);
  if (traced.call_digests != ser.call_digests)
    r.fail("the traced passes computed different outputs", traced.reps);
  if (parallel && par.call_digests != ser.call_digests)
    r.fail("the 2-thread passes computed different outputs", par.reps);
  r.notes.push_back(
      "traced: " + std::to_string(traced.passes) + " passes serial, " +
      fmt(wall) + " s wall vs " + fmt(ser.wall) +
      " s for the same passes untraced, interleaved pass by pass; " +
      std::to_string(spans.size()) + " spans");

  const std::string path = o.work_dir + "/spans-" + o.workload + ".tsv";
  std::ofstream out(path);
  spans.write(out);
  r.notes.push_back("span file: " + path);
  emit_layers(r, v);
  return r;
}

}  // namespace

Result run_batch_workload(const Options& options) {
  return options.trace ? traced_run(options) : timed_run(options);
}

}  // namespace perfbench
