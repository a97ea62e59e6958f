// synran — command-line front end to the library.
//
//   synran run      --protocol synran --adversary coinbias --n 256 --t 128
//   synran coin     --game majority --n 1024 --budget 300 --samples 500
//   synran valency  --n 3 --t 1 --depth 14
//   synran narrate  --n 96 --t 95 --adversary coinbias --seed 11
//   synran trace    convert|stats|head --in FILE [...]
//
// `run` and `narrate` accept --trace-out=FILE to write a round trace in
// the format picked by --trace-format=jsonl|bin (JSONL "synran-trace/1" or
// binary "synran-trace/2" — see EXPERIMENTS.md); tracing works at any
// --threads count, byte-identical to the serial run. `trace` operates on
// existing trace files: `convert` round-trips between the formats
// byte-stably, `stats` streams a file into the RepeatedRunStats-shaped
// aggregate, `head` prints the first events as JSONL.
// `run` additionally accepts --faults=omit:RATE[,BUDGET] to layer seeded
// i.i.d. link drops (ChaosAdversary) on top of the chosen crash adversary —
// or --faults=byz:RATE[,BUDGET] to layer seeded equivocating value
// corruption (ByzantineAdversary) instead —
// --fail-policy/--retries to quarantine failing reps instead of aborting,
// and --resume=FILE to checkpoint the batch (synran-ckpt/1) and reload it
// on a rerun instead of recomputing.
//
// Exit codes (also in --help and README.md):
//   0  safe, successful run
//   1  safety or runtime failure (agreement/validity violations, reps that
//      hit --max-rounds, quarantined reps, I/O errors)
//   2  usage error (unknown names, malformed or out-of-range flag values)
//   3  interrupted (SIGINT/SIGTERM honored between repetitions)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "async/benor.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/nonadaptive.hpp"
#include "adversary/omission.hpp"
#include "coin/forcing.hpp"
#include "coin/games.hpp"
#include "coin/recursive_games.hpp"
#include "common/table.hpp"
#include "exec/stopper.hpp"
#include "lowerbound/valency.hpp"
#include "obs/checkpoint.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"

namespace {

using namespace synran;

/// A malformed invocation: unknown names, unparsable or out-of-range flag
/// values. Caught in main() and turned into a one-line message + exit 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict whole-string unsigned parse: rejects empty strings, signs, trailing
/// junk ("0x", "12a"), and overflow, with the flag name in the message.
std::uint64_t parse_u64(const std::string& key, const std::string& text) {
  std::uint64_t v = 0;
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e) {
    throw UsageError("invalid value for --" + key + ": '" + text +
                     "' (expected a non-negative integer)");
  }
  return v;
}

std::uint32_t parse_u32(const std::string& key, const std::string& text) {
  const std::uint64_t v = parse_u64(key, text);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw UsageError("value for --" + key + " is out of range: '" + text +
                     "'");
  }
  return static_cast<std::uint32_t>(v);
}

/// Strict whole-string double parse (for rates).
double parse_f64(const std::string& key, const std::string& text) {
  double v = 0.0;
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e) {
    throw UsageError("invalid value for --" + key + ": '" + text +
                     "' (expected a number)");
  }
  return v;
}

/// Minimal argument parser: accepts both "--key value" and "--key=value".
/// Names listed in `flags` are booleans — they take no value and read back
/// as "1" (get("name", "") != "" tests presence).
class Args {
 public:
  Args(int argc, char** argv, int first,
       const std::set<std::string>& flags = {}) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw UsageError("expected --key value pairs, got '" +
                         std::string(argv[i]) + "'");
      }
      const std::string arg = argv[i] + 2;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
        continue;
      }
      if (flags.count(arg) != 0) {
        kv_[arg] = "1";
        continue;
      }
      if (i + 1 >= argc) {
        throw UsageError("missing value for '--" + arg + "'");
      }
      kv_[arg] = argv[++i];
    }
  }

  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  std::uint64_t num(const std::string& key, std::uint64_t dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : parse_u64(key, it->second);
  }
  std::uint32_t num32(const std::string& key, std::uint32_t dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : parse_u32(key, it->second);
  }

 private:
  std::map<std::string, std::string> kv_;
};

std::unique_ptr<ProcessFactory> make_protocol(const std::string& name,
                                              std::uint32_t t) {
  if (name == "synran") return std::make_unique<SynRanFactory>();
  if (name == "benor-sym") {
    SynRanOptions o;
    o.coin_rule = CoinRule::Symmetric;
    return std::make_unique<SynRanFactory>(o);
  }
  if (name == "synran-nodet") {
    SynRanOptions o;
    o.det_handoff = false;
    return std::make_unique<SynRanFactory>(o);
  }
  if (name == "floodmin")
    return std::make_unique<FloodMinFactory>(FloodMinOptions{t, false});
  if (name == "floodmin-early")
    return std::make_unique<FloodMinFactory>(FloodMinOptions{t, true});
  if (name == "leadercoin") return std::make_unique<LeaderCoinFactory>();
  return nullptr;
}

AdversaryFactory make_adversary(const std::string& name) {
  if (name == "none") return no_adversary_factory();
  if (name == "random")
    return [](std::uint64_t s) {
      return std::make_unique<RandomCrashAdversary>(
          RandomCrashAdversary::Options{2, 0.6, s});
    };
  if (name == "chain")
    return [](std::uint64_t) {
      return std::make_unique<ChainHidingAdversary>();
    };
  if (name == "coinbias")
    return [](std::uint64_t s) {
      return std::make_unique<CoinBiasAdversary>(
          CoinBiasOptions{0.55, true, s});
    };
  if (name == "oblivious")
    return [](std::uint64_t s) {
      return std::make_unique<ObliviousAdversary>(ObliviousOptions{64, s});
    };
  if (name == "leader-killer")
    return [](std::uint64_t) {
      return std::make_unique<LeaderKillerAdversary>();
    };
  return nullptr;
}

InputPattern parse_pattern(const std::string& name) {
  if (name == "all-0") return InputPattern::AllZero;
  if (name == "all-1") return InputPattern::AllOne;
  if (name == "half") return InputPattern::Half;
  if (name == "single-0") return InputPattern::SingleZero;
  if (name == "random") return InputPattern::Random;
  throw UsageError("invalid --pattern '" + name +
                   "' (expected all-0, all-1, half, single-0, or random)");
}

/// The engines' own limits, checked before any run starts: n >= 1, and
/// t <= n for the sync engine. --model=async runs Ben-Or, which needs
/// t < n/2.
void check_budget(std::uint32_t n, std::uint32_t t, bool async) {
  if (n == 0) throw UsageError("invalid --n 0: a run needs a process");
  if (async ? 2 * static_cast<std::uint64_t>(t) >= n : t > n)
    throw UsageError("invalid --t " + std::to_string(t) + " for --n " +
                     std::to_string(n) + ": " +
                     (async ? "Ben-Or on the async engine needs t < n/2"
                            : "the sync engine needs t <= n"));
}

/// --reps, checked before any run starts: a batch needs a repetition.
std::uint64_t reps_flag(const Args& args) {
  const std::uint64_t reps = args.num("reps", 50);
  if (reps == 0)
    throw UsageError("invalid --reps 0: a batch needs at least one "
                     "repetition");
  return reps;
}

/// Parsed --faults. `omit:RATE[,BUDGET]` layers seeded i.i.d. link drops
/// (ChaosAdversary); `byz:RATE[,BUDGET]` layers seeded equivocating value
/// corruption (ByzantineAdversary). Both stay off without the flag.
struct FaultFlag {
  bool enabled = false;
  /// Corrupted-value regime (byz:) instead of link drops (omit:).
  bool byzantine = false;
  double rate = 0.0;
  /// Directive budget (omission or corruption, per the regime); defaults to
  /// "effectively unlimited" so a bare --faults=omit:p / byz:p studies the
  /// pure rate regime.
  std::uint32_t budget = std::numeric_limits<std::uint32_t>::max();
};

/// Parsed --trace-format (default jsonl, the human-readable schema).
obs::TraceFormat parse_format_flag(const Args& args) {
  const std::string name = args.get("trace-format", "jsonl");
  const auto format = obs::parse_trace_format(name);
  if (!format.has_value()) {
    throw UsageError("invalid --trace-format '" + name +
                     "' (expected jsonl or bin)");
  }
  return *format;
}

/// Header metadata for binary traces the CLI produces: the current seeding
/// schema, provenance unknown (the CLI has no build id baked in).
obs::Trace2Header cli_trace_header() {
  obs::Trace2Header header;
  header.seed_schema = static_cast<std::uint16_t>(kSeedSchemaVersion);
  return header;
}

FaultFlag parse_faults(const std::string& text) {
  FaultFlag f;
  if (text.empty()) return f;
  std::string rest;
  if (text.rfind("omit:", 0) == 0) {
    rest = text.substr(5);
  } else if (text.rfind("byz:", 0) == 0) {
    f.byzantine = true;
    rest = text.substr(4);
  } else {
    throw UsageError("invalid --faults '" + text +
                     "': expected omit:RATE[,BUDGET] or byz:RATE[,BUDGET]");
  }
  if (const auto comma = rest.find(','); comma != std::string::npos) {
    f.budget = parse_u32("faults", rest.substr(comma + 1));
    rest = rest.substr(0, comma);
  }
  f.rate = parse_f64("faults", rest);
  if (f.rate < 0.0 || f.rate > 1.0) {
    throw UsageError("invalid --faults rate '" + rest +
                     "': must lie in [0, 1]");
  }
  f.enabled = true;
  return f;
}

/// Parsed --scheduler for --model=async.
AsyncSchedulerFactory make_scheduler(const std::string& name) {
  if (name == "fifo") return fifo_scheduler_factory();
  if (name == "random") return random_scheduler_factory();
  if (name == "laggard") return laggard_scheduler_factory();
  if (name == "stall") return stall_scheduler_factory();
  throw UsageError("invalid --scheduler '" + name +
                   "' (expected fifo, random, laggard, or stall)");
}

/// Parsed --delay held|fixed:D|uniform:LO,HI for --model=async.
AsyncDelayFactory make_delay(const std::string& text) {
  if (text.empty() || text == "held") return held_delay_factory();
  if (text.rfind("fixed:", 0) == 0) {
    return fixed_delay_factory(parse_u64("delay", text.substr(6)));
  }
  if (text.rfind("uniform:", 0) == 0) {
    const std::string rest = text.substr(8);
    const auto comma = rest.find(',');
    if (comma == std::string::npos) {
      throw UsageError("invalid --delay '" + text +
                       "': uniform needs LO,HI");
    }
    const auto lo = parse_u64("delay", rest.substr(0, comma));
    const auto hi = parse_u64("delay", rest.substr(comma + 1));
    if (lo > hi) {
      throw UsageError("invalid --delay '" + text + "': LO must be <= HI");
    }
    return uniform_delay_factory(lo, hi);
  }
  throw UsageError("invalid --delay '" + text +
                   "' (expected held, fixed:D, or uniform:LO,HI)");
}

/// The async branch of `run` (--model=async): repeated event-driven
/// executions of Ben-Or under a scheduler + delay model, optionally in
/// partial synchrony (--gst/--delta).
int cmd_run_async(const Args& args) {
  exec::install_stop_handlers();

  const auto n = args.num32("n", 32);
  const auto t = args.num32("t", n >= 2 ? (n - 1) / 2 : 0);
  check_budget(n, t, true);
  const auto reps = reps_flag(args);
  const auto proto = args.get("protocol", "benor");
  if (proto != "benor") {
    throw UsageError("--model=async supports --protocol benor only");
  }
  // Sync-only machinery is rejected loudly rather than ignored.
  for (const char* flag : {"adversary", "faults", "resume", "fail-policy",
                           "retries", "max-rounds"}) {
    if (!args.get(flag, "").empty()) {
      throw UsageError(std::string("--") + flag +
                       " does not apply to --model=async" +
                       (std::string(flag) == "adversary"
                            ? " (use --scheduler)"
                            : ""));
    }
  }

  AsyncSchedulerFactory schedulers =
      make_scheduler(args.get("scheduler", "random"));
  AsyncDelayFactory delays = make_delay(args.get("delay", "held"));
  const auto gst = args.num("gst", 0);
  const auto delta = args.num("delta", 0);
  if ((gst != 0 || delta != 0)) {
    // Partial synchrony: adversary-held before GST, forced delivery within
    // --delta after. Composes with the scheduler, not the timed delays.
    if (args.get("delay", "held") != "held") {
      throw UsageError("--gst/--delta require --delay held (they bound the "
                       "adversary, not a timed link model)");
    }
    if (delta == 0) {
      throw UsageError("--gst needs --delta >= 1 (the post-GST bound)");
    }
    delays = gst_delay_factory(gst, delta);
  }

  BenOrOptions protocol_options;
  protocol_options.retransmit_every = args.num("retransmit", 0);
  const BenOrAsyncFactory factory(protocol_options);

  AsyncRepeatSpec spec;
  spec.n = n;
  spec.pattern = parse_pattern(args.get("pattern", "random"));
  spec.reps = reps;
  spec.seed = args.num("seed", 1);
  spec.threads = static_cast<unsigned>(args.num("threads", 0));
  spec.engine.t_budget = t;
  spec.engine.max_steps = args.num("max-steps", 2000000);
  if (const auto max_time = args.num("max-time", 0); max_time != 0) {
    spec.engine.max_time = max_time;
  }

  std::unique_ptr<obs::TraceWriter> tracer;
  if (const auto path = args.get("trace-out", ""); !path.empty()) {
    try {
      tracer = obs::make_trace_writer(parse_format_flag(args), path,
                                      cli_trace_header());
    } catch (const obs::IoError& e) {
      throw UsageError(e.what());
    }
    spec.engine.observer = tracer.get();
  }
  const AsyncRunStats stats =
      run_repeated_async(factory, schedulers, delays, spec);
  if (tracer != nullptr) tracer->close();

  Table table("benor-async vs " + args.get("scheduler", "random"));
  table.header({"metric", "value"});
  table.row({std::string("n / t / reps"),
             std::to_string(n) + " / " + std::to_string(t) + " / " +
                 std::to_string(stats.reps())});
  table.row({std::string("rounds to decision (mean)"),
             stats.rounds_to_decision().mean()});
  table.row({std::string("ticks to decision (mean)"),
             stats.ticks_to_decision().mean()});
  table.row({std::string("messages delivered (mean)"),
             stats.messages_delivered().mean()});
  table.row({std::string("coin flips (mean)"), stats.coin_flips().mean()});
  table.row({std::string("timers fired (mean)"),
             stats.timers_fired().mean()});
  table.row({std::string("crashes used (mean)"), stats.crashes_used().mean()});
  table.row({std::string("decided 1 / reps"),
             std::to_string(stats.decided_one()) + " / " +
                 std::to_string(stats.reps())});
  table.row({std::string("agreement failures"),
             static_cast<long long>(stats.agreement_failures())});
  table.row({std::string("validity failures"),
             static_cast<long long>(stats.validity_failures())});
  table.row({std::string("non-terminated"),
             static_cast<long long>(stats.non_terminated())});
  table.print(std::cout);
  if (stats.non_terminated() > 0) {
    std::cerr << "WARNING: " << stats.non_terminated() << " of "
              << stats.reps()
              << " repetitions did not terminate (starved, capped, or out of "
                 "simulated time); their aggregates are truncated\n";
  }
  return stats.all_safe() ? 0 : 1;
}

int cmd_run(const Args& args) {
  // Long-running batches honor SIGINT/SIGTERM between repetitions: the
  // executor finishes in-flight reps, then throws exec::Interrupted, which
  // main() turns into exit code 3.
  exec::install_stop_handlers();

  const auto n = args.num32("n", 128);
  const auto t = args.num32("t", n / 2);
  check_budget(n, t, false);
  const auto reps = reps_flag(args);
  const auto proto = args.get("protocol", "synran");
  const auto adv = args.get("adversary", "coinbias");
  const auto faults = parse_faults(args.get("faults", ""));

  const auto policy_name = args.get("fail-policy", "fail_fast");
  FailurePolicy policy;
  if (policy_name == "fail_fast") {
    policy = FailurePolicy::FailFast;
  } else if (policy_name == "quarantine") {
    policy = FailurePolicy::Quarantine;
  } else {
    throw UsageError("invalid --fail-policy '" + policy_name +
                     "' (expected fail_fast or quarantine)");
  }

  const auto factory = make_protocol(proto, t);
  AdversaryFactory adversaries = make_adversary(adv);
  if (!factory || !adversaries) {
    throw UsageError("unknown protocol or adversary");
  }
  if (faults.enabled) {
    // Layer seeded link faults over the chosen crash adversary. The fault
    // coins use their own derived stream so they never perturb the inner
    // adversary's randomness (stream 1 = omission chaos, 2 = corruption).
    if (faults.byzantine) {
      adversaries = [inner = std::move(adversaries),
                     faults](std::uint64_t s) -> std::unique_ptr<Adversary> {
        ByzantineOptions byz;
        byz.corrupt_rate = faults.rate;
        byz.seed = SeedSequence(s).stream(2);
        return std::make_unique<ByzantineAdversary>(byz, inner(s));
      };
    } else {
      adversaries = [inner = std::move(adversaries),
                     faults](std::uint64_t s) -> std::unique_ptr<Adversary> {
        ChaosOptions chaos;
        chaos.drop_rate = faults.rate;
        chaos.seed = SeedSequence(s).stream(1);
        return std::make_unique<ChaosAdversary>(chaos, inner(s));
      };
    }
  }

  RepeatSpec spec;
  spec.n = n;
  spec.pattern = parse_pattern(args.get("pattern", "random"));
  spec.reps = reps;
  spec.seed = args.num("seed", 1);
  spec.threads = static_cast<unsigned>(args.num("threads", 0));
  spec.engine.t_budget = t;
  spec.engine.max_rounds = args.num32("max-rounds", 100000);
  spec.max_rep_retries = args.num32("retries", 0);
  spec.policy = policy;
  if (faults.enabled) {
    if (faults.byzantine)
      spec.engine.byzantine_budget = faults.budget;
    else
      spec.engine.omission_budget = faults.budget;
  }

  // --resume=FILE binds a synran-ckpt/1 ledger keyed by the full spec (plus
  // the adversary/fault flags, which shape results but not the spec). A key
  // hit reloads the exact accumulator state instead of re-running; schema-2
  // seed streams make the restored report identical to a fresh one.
  const std::string resume_path = args.get("resume", "");
  std::unique_ptr<obs::CheckpointLedger> ledger;
  std::string cell_key;
  if (!resume_path.empty()) {
    cell_key = spec_cell_key(
        spec, proto, "cli:" + adv + ":faults=" + args.get("faults", ""));
    ledger = std::make_unique<obs::CheckpointLedger>(resume_path, "synran-run",
                                                     spec.seed);
  }

  RepeatedRunStats stats;
  bool restored = false;
  if (ledger != nullptr) {
    if (const obs::CheckpointCell* hit = ledger->find(0, cell_key)) {
      stats = RepeatedRunStats::from_checkpoint(hit->data);
      restored = true;
      std::cerr << "[resume: batch restored from " << resume_path << "]\n";
    }
  }

  std::unique_ptr<obs::TraceWriter> tracer;
  if (!restored) {
    if (const auto path = args.get("trace-out", ""); !path.empty()) {
      // Any thread count: the executor buffers per-rep callbacks and
      // replays them in rep order, so the trace bytes match a serial run.
      try {
        tracer =
            obs::make_trace_writer(parse_format_flag(args), path,
                                   cli_trace_header());
      } catch (const obs::IoError& e) {
        throw UsageError(e.what());
      }
      spec.engine.observer = tracer.get();
    }
    stats = run_repeated(*factory, adversaries, spec);
    if (tracer != nullptr) tracer->close();
    // Record after a completed batch only; an interrupt above never leaves
    // a half-written cell. obs::IoError propagates to main() → exit 1.
    if (ledger != nullptr) {
      ledger->record(obs::CheckpointCell{0, cell_key, stats.checkpoint_json()});
    }
  } else if (!args.get("trace-out", "").empty()) {
    std::cerr << "[resume: --trace-out skipped — batch was not re-executed]\n";
  }

  Table table(proto + " vs " + adv);
  table.header({"metric", "value"});
  table.row({std::string("n / t / reps"),
             std::to_string(n) + " / " + std::to_string(t) + " / " +
                 std::to_string(stats.reps())});
  table.row({std::string("rounds to decision (mean)"),
             stats.rounds_to_decision().mean()});
  table.row({std::string("rounds to decision (sd)"),
             stats.rounds_to_decision().stddev()});
  table.row({std::string("rounds to halt (mean)"),
             stats.rounds_to_halt().mean()});
  table.row({std::string("crashes used (mean)"), stats.crashes_used().mean()});
  if (faults.enabled && !faults.byzantine) {
    table.row({std::string("omissions used (mean)"),
               stats.omissions_used().mean()});
    table.row({std::string("messages omitted (mean)"),
               stats.messages_omitted().mean()});
  }
  if (faults.enabled && faults.byzantine) {
    table.row({std::string("corruptions used (mean)"),
               stats.corruptions_used().mean()});
    table.row({std::string("messages corrupted (mean)"),
               stats.messages_corrupted().mean()});
  }
  table.row({std::string("decided 1 / reps"),
             std::to_string(stats.decided_one()) + " / " +
                 std::to_string(stats.reps())});
  table.row({std::string("agreement failures"),
             static_cast<long long>(stats.agreement_failures())});
  table.row({std::string("validity failures"),
             static_cast<long long>(stats.validity_failures())});
  table.row({std::string("non-terminated"),
             static_cast<long long>(stats.non_terminated())});
  if (policy == FailurePolicy::Quarantine) {
    table.row({std::string("reps quarantined"),
               static_cast<long long>(stats.reps_quarantined())});
  }
  table.print(std::cout);
  if (stats.reps_quarantined() > 0) {
    std::cerr << "WARNING: " << stats.reps_quarantined()
              << " repetitions were quarantined after exhausting their retry "
                 "budget; every aggregate above covers survivors only\n";
    for (const auto& f : stats.failures()) {
      std::cerr << "  rep " << f.rep << " (engine seed " << f.seed << ", "
                << f.attempts << " attempts): " << f.error << "\n";
    }
  }
  if (stats.non_terminated() > 0) {
    std::cerr << "WARNING: " << stats.non_terminated() << " of "
              << stats.reps() << " repetitions hit --max-rounds ("
              << spec.engine.max_rounds
              << ") without terminating; their round counts are truncated "
                 "and every aggregate above is suspect\n";
  }
  return stats.all_safe() && stats.reps_quarantined() == 0 ? 0 : 1;
}

int cmd_coin(const Args& args) {
  const auto n = args.num32("n", 256);
  const auto game_name = args.get("game", "majority");
  std::unique_ptr<CoinGame> game;
  if (game_name == "majority")
    game = std::make_unique<MajorityPresentGame>(n);
  else if (game_name == "majority0")
    game = std::make_unique<MajorityDefaultZeroGame>(n);
  else if (game_name == "parity")
    game = std::make_unique<ParityPresentGame>(n);
  else if (game_name == "leader")
    game = std::make_unique<LeaderBitGame>(n);
  else if (game_name == "tribes")
    game = std::make_unique<TribesGame>(n / 8 ? n / 8 : 1, 8);
  if (!game) {
    throw UsageError("unknown game (majority|majority0|parity|leader|tribes)");
  }

  const auto budget = args.num32("budget", 0);
  const auto samples = args.num("samples", 400);
  const auto est =
      estimate_control(*game, budget, samples, args.num("seed", 1));

  Table table(std::string(game->name()) + " control");
  table.header({"outcome", "Pr(U^v)", "< 1/n?"});
  table.precision(4);
  for (std::uint32_t v = 0; v < game->outcomes(); ++v)
    table.row({static_cast<long long>(v), est.pr_unforceable[v],
               std::string(est.pr_unforceable[v] <
                                   1.0 / game->players() + 0.01
                               ? "yes"
                               : "no")});
  table.print(std::cout);
  return 0;
}

int cmd_valency(const Args& args) {
  const auto n = args.num32("n", 3);
  ValencyOptions opts;
  opts.t_budget = args.num32("t", 1);
  // Checked before the 2^n loop below shifts by n.
  if (n == 0 || n > kValencyMaxN)
    throw UsageError("invalid --n " + std::to_string(n) +
                     ": valency needs 1 <= n <= " +
                     std::to_string(kValencyMaxN));
  if (opts.t_budget >= n)
    throw UsageError("invalid --t " + std::to_string(opts.t_budget) +
                     " for --n " + std::to_string(n) +
                     ": valency needs t < n");
  opts.max_depth = args.num32("depth", 14);
  SynRanFactory factory;

  Table table("SynRan initial-state valencies");
  table.header({"inputs", "min r", "max r", "classes"});
  table.precision(3);
  for (std::uint32_t x = 0; x < (1u << n); ++x) {
    std::vector<Bit> inputs;
    std::string label;
    for (std::uint32_t i = 0; i < n; ++i) {
      inputs.push_back((x >> i) & 1 ? Bit::One : Bit::Zero);
      label += (x >> i) & 1 ? '1' : '0';
    }
    const auto v = evaluate_initial_state(factory, inputs, opts);
    std::string classes;
    for (int c = 0; c < 4; ++c)
      if (v.classes & (1u << c)) {
        if (!classes.empty()) classes += "|";
        classes += to_string(static_cast<Valency>(c));
      }
    table.row({label,
               "[" + std::to_string(v.min_r.lo).substr(0, 5) + "," +
                   std::to_string(v.min_r.hi).substr(0, 5) + "]",
               "[" + std::to_string(v.max_r.lo).substr(0, 5) + "," +
                   std::to_string(v.max_r.hi).substr(0, 5) + "]",
               classes});
  }
  table.print(std::cout);
  return 0;
}

int cmd_narrate(const Args& args) {
  const auto n = args.num32("n", 96);
  const auto t = args.num32("t", n - 1);
  check_budget(n, t, false);
  const auto seed = args.num("seed", 11);
  const auto adversaries = make_adversary(args.get("adversary", "coinbias"));
  if (!adversaries) {
    throw UsageError("unknown adversary");
  }
  auto inner = adversaries(seed);
  SynRanFactory factory;
  std::vector<obs::TraceRecord> records;
  obs::TraceRecorder recorder(records);
  obs::MultiObserver observers;
  observers.add(recorder);
  EngineOptions opts;
  opts.t_budget = t;
  opts.seed = seed;
  opts.max_rounds = 100000;
  opts.observer = &observers;
  std::unique_ptr<obs::TraceWriter> trace_out;
  if (const auto path = args.get("trace-out", ""); !path.empty()) {
    try {
      trace_out = obs::make_trace_writer(parse_format_flag(args), path,
                                         cli_trace_header());
    } catch (const obs::IoError& e) {
      throw UsageError(e.what());
    }
    observers.add(*trace_out);
  }
  Xoshiro256 rng(seed);
  const auto inputs =
      make_inputs(n, parse_pattern(args.get("pattern", "half")), rng);
  const auto res = run_once(factory, inputs, *inner, opts);
  if (trace_out != nullptr) trace_out->close();
  narrate(records, std::cout);
  std::cout << "decision "
            << (res.has_decision ? std::to_string(to_int(res.decision)) : "-")
            << " @ round " << res.rounds_to_decision << ", agreement "
            << (res.agreement ? "yes" : "NO") << "\n";
  return res.agreement ? 0 : 1;
}

/// `synran trace convert`: re-encode a trace file in the other format (or
/// an explicit --to). Conversion replays records through a fresh writer, so
/// jsonl→bin→jsonl and bin→jsonl→bin are byte-stable for CLI-produced
/// files; --seed-schema/--git-rev reproduce a foreign binary header.
int cmd_trace_convert(const Args& args) {
  const std::string in = args.get("in", "");
  const std::string out = args.get("out", "");
  if (in.empty() || out.empty()) {
    throw UsageError("trace convert needs --in FILE and --out FILE");
  }
  const obs::TraceFormat from = obs::sniff_trace_format(in);
  obs::TraceFormat to = from == obs::TraceFormat::Binary
                            ? obs::TraceFormat::Jsonl
                            : obs::TraceFormat::Binary;
  if (const auto name = args.get("to", ""); !name.empty()) {
    const auto parsed = obs::parse_trace_format(name);
    if (!parsed.has_value()) {
      throw UsageError("invalid --to '" + name + "' (expected jsonl or bin)");
    }
    to = *parsed;
  }
  obs::Trace2Header header = cli_trace_header();
  header.seed_schema = static_cast<std::uint16_t>(
      args.num("seed-schema", header.seed_schema));
  header.git_rev = args.get("git-rev", header.git_rev);
  const auto reader = obs::open_trace_reader(in);
  const auto writer = obs::make_trace_writer(to, out, std::move(header));
  const std::uint64_t events = obs::convert_trace(*reader, *writer);
  std::cout << "converted " << events << " events: " << in << " ("
            << obs::to_string(from) << ") -> " << out << " ("
            << obs::to_string(to) << ", " << writer->bytes_written()
            << " bytes)\n";
  return 0;
}

/// `synran trace stats`: stream a trace (either format) into the
/// RepeatedRunStats-shaped aggregate. --format=json prints the raw metrics
/// snapshot — byte-identical across the two trace encodings of one run.
int cmd_trace_stats(const Args& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) throw UsageError("trace stats needs --in FILE");
  const auto reader = obs::open_trace_reader(in);
  obs::TraceAggregator agg;
  obs::aggregate_trace(*reader, agg);

  const std::string format = args.get("format", "table");
  if (format == "json") {
    std::cout << agg.metrics().to_json().dump() << "\n";
    return 0;
  }
  if (format != "table") {
    throw UsageError("invalid --format '" + format +
                     "' (expected table or json)");
  }
  const auto& m = agg.metrics();
  Table table("trace stats: " + in);
  table.header({"metric", "value"});
  table.row({std::string("runs completed"),
             static_cast<long long>(agg.runs())});
  table.row({std::string("rounds"), static_cast<long long>(agg.rounds())});
  table.row({std::string("attempts abandoned"),
             static_cast<long long>(agg.abandoned())});
  table.row({std::string("rounds to decision (mean)"),
             m.summary_at("rounds_to_decision").mean()});
  table.row({std::string("rounds to halt (mean)"),
             m.summary_at("rounds_to_halt").mean()});
  table.row({std::string("crashes used (mean)"),
             m.summary_at("crashes_used").mean()});
  table.row({std::string("messages delivered (mean)"),
             m.summary_at("messages_delivered").mean()});
  table.row({std::string("omissions used (mean)"),
             m.summary_at("omissions_used").mean()});
  table.row({std::string("corruptions used (mean)"),
             m.summary_at("corruptions_used").mean()});
  table.row({std::string("messages corrupted (mean)"),
             m.summary_at("messages_corrupted").mean()});
  table.row({std::string("decided 1 / runs"),
             std::to_string(m.counter_at("decided_one").value()) + " / " +
                 std::to_string(m.counter_at("reps").value())});
  table.row({std::string("agreement failures"),
             static_cast<long long>(
                 m.counter_at("agreement_failures").value())});
  table.row({std::string("non-terminated"),
             static_cast<long long>(m.counter_at("non_terminated").value())});
  table.print(std::cout);
  return 0;
}

/// `synran trace head`: decode the first --count events (either format) and
/// print them as JSONL — the binary format's inspection hatch.
int cmd_trace_head(const Args& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) throw UsageError("trace head needs --in FILE");
  const std::uint64_t count = args.num("count", 10);
  const auto reader = obs::open_trace_reader(in);
  obs::JsonlTraceWriter writer(std::cout);
  obs::TraceRecord record;
  for (std::uint64_t shown = 0; shown < count && reader->next(record);
       ++shown) {
    obs::replay(record, writer);
  }
  return 0;
}

/// `synran serve`: the fault-tolerant batch-request daemon (synran-req/1
/// over stdio or a Unix socket, content-addressed result cache, bounded
/// queue with shedding, per-request deadlines, graceful drain). See
/// EXPERIMENTS.md "Serving batches" and README.md "Serving".
int cmd_serve(const Args& args) {
  exec::install_stop_handlers();

  serve::ServerOptions opts;
  opts.socket_path = args.get("socket", "");
  if (!args.get("stdio", "").empty() && !opts.socket_path.empty()) {
    throw UsageError("--stdio and --socket are mutually exclusive");
  }
  opts.cache_dir = args.get("cache-dir", ".synran-cache");
  opts.max_queue = args.num("max-queue", 64);
  if (opts.max_queue == 0) {
    throw UsageError("--max-queue must be >= 1");
  }
  opts.deadline_ms = args.num("deadline-ms", 0);
  opts.threads = static_cast<unsigned>(args.num("threads", 0));
  opts.max_cache_entries = args.num("max-cache-entries", 0);
  opts.backoff_ms = static_cast<unsigned>(args.num("backoff-ms", 10));
  // Cache keys embed the build identity so a rebuilt binary never serves
  // results computed by different code. SYNRAN_GIT_REV (env) overrides.
  opts.git_rev = args.get("git-rev", "");
  if (opts.git_rev.empty()) {
    const char* env = std::getenv("SYNRAN_GIT_REV");
    opts.git_rev = env != nullptr && *env != '\0' ? env : "unknown";
  }
  opts.log = &std::cerr;

  serve::Server server(std::move(opts));
  return server.run();
}

/// `synran request`: minimal client for the daemon's socket mode. Reads
/// frames (or anything else) from stdin, ships the bytes to --socket,
/// half-closes, and streams the responses to stdout. Stdin is consumed
/// fully before sending, so pipe scripts of smoke-test size — not bulk
/// transfers — are the intended use.
int cmd_request(const Args& args) {
  const std::string path = args.get("socket", "");
  if (path.empty()) {
    throw UsageError("request needs --socket PATH");
  }

  std::string input;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(STDIN_FILENO, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("stdin read failed: ") +
                               std::strerror(errno));
    }
    if (got == 0) break;
    input.append(chunk, static_cast<std::size_t>(got));
  }

  const int sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (sock < 0) {
    throw std::runtime_error(std::string("socket failed: ") +
                             std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(sock);
    throw UsageError("--socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(sock);
    throw std::runtime_error("cannot connect to " + path + ": " +
                             std::strerror(errno));
  }

  std::size_t off = 0;
  while (off < input.size()) {
    const ssize_t put = ::write(sock, input.data() + off, input.size() - off);
    if (put < 0) {
      if (errno == EINTR) continue;
      ::close(sock);
      throw std::runtime_error(std::string("socket write failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(put);
  }
  ::shutdown(sock, SHUT_WR);

  for (;;) {
    const ssize_t got = ::read(sock, chunk, sizeof chunk);
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(sock);
      throw std::runtime_error(std::string("socket read failed: ") +
                               std::strerror(errno));
    }
    if (got == 0) break;
    std::cout.write(chunk, got);
  }
  std::cout.flush();
  ::close(sock);
  return 0;
}

int cmd_trace(const std::string& sub, const Args& args) {
  if (sub == "convert") return cmd_trace_convert(args);
  if (sub == "stats") return cmd_trace_stats(args);
  if (sub == "head") return cmd_trace_head(args);
  throw UsageError("unknown trace subcommand '" + sub +
                   "' (expected convert, stats, or head)");
}

void usage() {
  std::cout <<
      "synran <command> [--key value ...]\n"
      "\n"
      "commands:\n"
      "  run      repeated executions: --protocol synran|benor-sym|\n"
      "           synran-nodet|floodmin|floodmin-early|leadercoin\n"
      "           --adversary none|random|chain|coinbias|oblivious|\n"
      "           leader-killer --n --t --reps --seed --pattern\n"
      "           --threads N (0 = SYNRAN_THREADS or serial; statistics\n"
      "           are identical at any thread count)\n"
      "           --trace-out=FILE --trace-format=jsonl|bin (round trace,\n"
      "           schema synran-trace/1 or /2; byte-identical at any\n"
      "           --threads count)\n"
      "           --faults=omit:RATE[,BUDGET] (seeded i.i.d. link drops at\n"
      "           RATE in [0,1]; BUDGET caps omission directives, default\n"
      "           unlimited)\n"
      "           --faults=byz:RATE[,BUDGET] (seeded equivocating value\n"
      "           corruption: each live sender is corrupted with prob.\n"
      "           RATE per round; BUDGET caps corruption directives,\n"
      "           default unlimited)\n"
      "           --fail-policy fail_fast|quarantine (quarantine records a\n"
      "           failing rep and keeps going instead of aborting the batch)\n"
      "           --retries N (same-seed retries per failing rep before it\n"
      "           is quarantined or aborts the batch; default 0)\n"
      "           --resume=FILE (synran-ckpt/1 ledger: a completed batch is\n"
      "           recorded, and a rerun with the same flags reloads it\n"
      "           instead of recomputing)\n"
      "           --model sync|async (default sync). --model=async runs\n"
      "           Ben-Or on the event-driven core (needs t < n/2;\n"
      "           default t = (n-1)/2):\n"
      "             --scheduler fifo|random|laggard|stall (the async\n"
      "             adversary; default random)\n"
      "             --delay held|fixed:D|uniform:LO,HI (link delay model;\n"
      "             default held = pure asynchrony)\n"
      "             --gst G --delta B (partial synchrony: adversary-held\n"
      "             before G, delivery forced within B after; needs\n"
      "             --delay held)\n"
      "             --retransmit N (rebroadcast latest phase message every\n"
      "             N ticks; 0 = off)\n"
      "             --max-steps N --max-time T (per-rep caps)\n"
      "           Sync-only flags (--adversary, --faults, --resume,\n"
      "           --fail-policy, --retries, --max-rounds) are rejected.\n"
      "  coin     one-round game control: --game majority|majority0|\n"
      "           parity|leader|tribes --n --budget --samples\n"
      "  valency  exact initial-state valencies (tiny n): --n --t --depth\n"
      "  narrate  round-by-round story of one run: --n --t --seed\n"
      "           --adversary --pattern --trace-out=FILE\n"
      "           --trace-format=jsonl|bin\n"
      "  trace    operate on trace files (format sniffed from the bytes):\n"
      "           convert --in FILE --out FILE [--to jsonl|bin]\n"
      "                   [--seed-schema N --git-rev REV] (byte-stable\n"
      "                   round-trips between the formats)\n"
      "           stats   --in FILE [--format table|json] (streaming\n"
      "                   aggregation; json matches across formats)\n"
      "           head    --in FILE [--count N] (first events as JSONL)\n"
      "  serve    batch-request daemon (schema synran-req/1 over\n"
      "           length-prefixed frames; see EXPERIMENTS.md):\n"
      "           --stdio (default) | --socket PATH (Unix socket)\n"
      "           --cache-dir DIR (content-addressed result cache,\n"
      "           default .synran-cache) --max-cache-entries N (0 = no\n"
      "           LRU eviction) --max-queue N (default 64; excess\n"
      "           requests get a structured 'overloaded' error)\n"
      "           --deadline-ms N (default per-request deadline; 0 =\n"
      "           none) --threads N --git-rev REV (cache-key build id;\n"
      "           default $SYNRAN_GIT_REV or 'unknown')\n"
      "  request  client for serve's socket mode: frames from stdin to\n"
      "           --socket PATH, responses to stdout\n"
      "\n"
      "exit codes:\n"
      "  0  safe, successful run\n"
      "  1  safety or runtime failure (agreement/validity violations,\n"
      "     non-terminated or quarantined reps, I/O errors)\n"
      "  2  usage error (unknown names, malformed flag values)\n"
      "  3  interrupted (SIGINT/SIGTERM; in-flight reps finish first)\n"
      "  4  serve drained (SIGINT/SIGTERM: queued requests answered\n"
      "     'shutting_down', cache left consistent, then exit)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "-h" || cmd == "--help" || cmd == "help") {
    usage();
    return 0;
  }
  try {
    if (cmd == "trace") {
      if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
        throw UsageError(
            "trace needs a subcommand: convert, stats, or head");
      }
      return cmd_trace(argv[2], Args(argc, argv, 3));
    }
    // serve parses its own Args: --stdio is a value-less flag the generic
    // --key value parser would misread as a pair.
    if (cmd == "serve") return cmd_serve(Args(argc, argv, 2, {"stdio"}));
    Args args(argc, argv, 2);
    if (cmd == "run") {
      const std::string model = args.get("model", "sync");
      if (model == "async") return cmd_run_async(args);
      if (model != "sync") {
        throw UsageError("invalid --model '" + model +
                         "' (expected sync or async)");
      }
      return cmd_run(args);
    }
    if (cmd == "coin") return cmd_coin(args);
    if (cmd == "valency") return cmd_valency(args);
    if (cmd == "narrate") return cmd_narrate(args);
    if (cmd == "request") return cmd_request(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const synran::exec::Interrupted& e) {
    std::cerr << "interrupted: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
  return 2;
}
