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
//   2  usage error (unknown flags or names, malformed or out-of-range flag
//      values, a budget the engine cannot run)
//   3  interrupted (SIGINT/SIGTERM honored between repetitions)
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "coin/forcing.hpp"
#include "coin/games.hpp"
#include "coin/recursive_games.hpp"
#include "common/table.hpp"
#include "exec/stopper.hpp"
#include "lowerbound/valency.hpp"
#include "obs/checkpoint.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_writer.hpp"
#include "protocols/synran.hpp"
#include "runner/experiment.hpp"
#include "runner/narrate.hpp"
#include "runner/run_config.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"

namespace {

using namespace synran;

/// A malformed invocation: unknown flags or names, unparsable or
/// out-of-range flag values, a budget the engines cannot run. Caught in
/// main() and turned into a one-line message + exit 2. Run configs raise it
/// from runner/run_config, which owns the flags `run` shares with serve.
using UsageError = ConfigError;

/// Header metadata for binary traces the CLI produces: the current seeding
/// schema, provenance unknown (the CLI has no build id baked in).
obs::Trace2Header cli_trace_header() {
  obs::Trace2Header header;
  header.seed_schema = static_cast<std::uint16_t>(kSeedSchemaVersion);
  return header;
}

/// Parsed --trace-format (default jsonl, the human-readable schema).
obs::TraceFormat parse_format_flag(const ArgvSource& args) {
  const std::string name = args.get("trace-format", "jsonl");
  const auto format = obs::parse_trace_format(name);
  if (!format.has_value()) {
    throw UsageError("invalid --trace-format '" + name +
                     "' (expected jsonl or bin)");
  }
  return *format;
}

/// The --trace-out writer, in the --trace-format format; null without
/// --trace-out. A path that cannot be opened is a usage error.
std::unique_ptr<obs::TraceWriter> open_trace(const ArgvSource& args) {
  const std::string path = args.get("trace-out", "");
  if (path.empty()) return nullptr;
  try {
    return obs::make_trace_writer(parse_format_flag(args), path,
                                  cli_trace_header());
  } catch (const obs::IoError& e) {
    throw UsageError(e.what());
  }
}

/// Flags `run` reads itself; every other flag must be a key of the run's
/// model (runner/run_config).
constexpr std::string_view kRunFlags[] = {"threads", "trace-out",
                                          "trace-format", "resume"};

/// The async branch of `run` (--model=async): repeated event-driven
/// executions of Ben-Or under a scheduler + delay model, optionally in
/// partial synchrony (--gst/--delta).
int cmd_run_async(const ArgvSource& args, const RunConfig& config,
                  RunPlan& plan) {
  if (args.has("resume")) {
    throw UsageError("--resume does not apply to --model=async");
  }
  const BenOrAsyncFactory factory(plan.benor);
  const std::unique_ptr<obs::TraceWriter> tracer = open_trace(args);
  plan.aspec.engine.observer = tracer.get();
  const AsyncRunStats stats =
      run_repeated_async(factory, plan.schedulers, plan.delays, plan.aspec);
  if (tracer != nullptr) tracer->close();

  Table table("benor-async vs " + config.scheduler);
  table.header({"metric", "value"});
  table.row({std::string("n / t / reps"),
             std::to_string(config.n) + " / " + std::to_string(config.t) +
                 " / " + std::to_string(stats.reps())});
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

int cmd_run_sync(const ArgvSource& args, const RunConfig& config,
                 RunPlan& plan) {
  const FaultSpec faults = parse_faults(config.faults, "--faults");
  RepeatSpec& spec = plan.spec;

  // --resume=FILE binds a synran-ckpt/1 ledger keyed by the full spec (plus
  // the adversary/fault flags, which shape results but not the spec). A key
  // hit reloads the exact accumulator state instead of re-running; schema-2
  // seed streams make the restored report identical to a fresh one.
  const std::string resume_path = args.get("resume", "");
  std::unique_ptr<obs::CheckpointLedger> ledger;
  std::string cell_key;
  if (!resume_path.empty()) {
    cell_key = spec_cell_key(
        spec, config.protocol,
        "cli:" + config.adversary + ":faults=" + config.faults);
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

  if (!restored) {
    // Any thread count: the executor buffers per-rep callbacks and replays
    // them in rep order, so the trace bytes match a serial run.
    const std::unique_ptr<obs::TraceWriter> tracer = open_trace(args);
    spec.engine.observer = tracer.get();
    stats = run_repeated(*plan.factory, plan.adversaries, spec);
    if (tracer != nullptr) tracer->close();
    // Record after a completed batch only; an interrupt above never leaves
    // a half-written cell. obs::IoError propagates to main() → exit 1.
    if (ledger != nullptr) {
      ledger->record(obs::CheckpointCell{0, cell_key, stats.checkpoint_json()});
    }
  } else if (!args.get("trace-out", "").empty()) {
    std::cerr << "[resume: --trace-out skipped — batch was not re-executed]\n";
  }

  Table table(config.protocol + " vs " + config.adversary);
  table.header({"metric", "value"});
  table.row({std::string("n / t / reps"),
             std::to_string(config.n) + " / " + std::to_string(config.t) +
                 " / " + std::to_string(stats.reps())});
  table.row({std::string("rounds to decision (mean)"),
             stats.rounds_to_decision().mean()});
  table.row({std::string("rounds to decision (sd)"),
             stats.rounds_to_decision().stddev()});
  table.row({std::string("rounds to halt (mean)"),
             stats.rounds_to_halt().mean()});
  table.row({std::string("crashes used (mean)"), stats.crashes_used().mean()});
  if (faults.family == FaultFamily::Omit) {
    table.row({std::string("omissions used (mean)"),
               stats.omissions_used().mean()});
    table.row({std::string("messages omitted (mean)"),
               stats.messages_omitted().mean()});
  }
  if (faults.family == FaultFamily::Byz) {
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
  if (spec.policy == FailurePolicy::Quarantine) {
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

/// `synran run`: one run config, read from the flags by runner/run_config,
/// built into a plan and executed on the sync or the async engine.
int cmd_run(const ArgvSource& args) {
  // Long-running batches honor SIGINT/SIGTERM between repetitions: the
  // executor finishes in-flight reps, then throws exec::Interrupted, which
  // main() turns into exit code 3.
  exec::install_stop_handlers();
  const RunConfig config = read_run_config(args, kRunFlags);
  RunPlan plan =
      build_plan(config, static_cast<unsigned>(args.u64("threads", 0)));
  return config.is_async() ? cmd_run_async(args, config, plan)
                           : cmd_run_sync(args, config, plan);
}

int cmd_coin(const ArgvSource& args) {
  const auto n = args.u32("n", 256);
  if (n == 0) throw UsageError("invalid --n 0: coin needs n >= 1 players");
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

  const auto budget = args.u32("budget", 0);
  const auto samples = args.u64("samples", 400);
  if (samples == 0)
    throw UsageError("invalid --samples 0: coin needs samples >= 1");
  const auto est =
      estimate_control(*game, budget, samples, args.u64("seed", 1));

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

int cmd_valency(const ArgvSource& args) {
  const auto n = args.u32("n", 3);
  ValencyOptions opts;
  opts.t_budget = args.u32("t", 1);
  // Checked before the 2^n loop below shifts by n.
  if (n == 0 || n > kValencyMaxN)
    throw UsageError("invalid --n " + std::to_string(n) +
                     ": valency needs 1 <= n <= " +
                     std::to_string(kValencyMaxN));
  if (opts.t_budget >= n)
    throw UsageError("invalid --t " + std::to_string(opts.t_budget) +
                     " for --n " + std::to_string(n) +
                     ": valency needs t < n");
  opts.max_depth = args.u32("depth", 14);
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

int cmd_narrate(const ArgvSource& args) {
  const auto n = args.u32("n", 96);
  const auto t = args.u32("t", n - 1);
  check_budget(n, t, false, args);
  const auto seed = args.u64("seed", 11);
  auto inner = adversary_factory(args.get("adversary", "coinbias"),
                                 args.name("adversary"))(seed);
  const InputPattern pattern =
      input_pattern(args.get("pattern", "half"), args.name("pattern"));
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
  const std::unique_ptr<obs::TraceWriter> trace_out = open_trace(args);
  if (trace_out != nullptr) observers.add(*trace_out);
  Xoshiro256 rng(seed);
  const auto inputs = make_inputs(n, pattern, rng);
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
int cmd_trace_convert(const ArgvSource& args) {
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
      args.u64("seed-schema", header.seed_schema));
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
int cmd_trace_stats(const ArgvSource& args) {
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
int cmd_trace_head(const ArgvSource& args) {
  const std::string in = args.get("in", "");
  if (in.empty()) throw UsageError("trace head needs --in FILE");
  const std::uint64_t count = args.u64("count", 10);
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
int cmd_serve(const ArgvSource& args) {
  exec::install_stop_handlers();

  serve::ServerOptions opts;
  opts.socket_path = args.get("socket", "");
  if (args.has("stdio") && !opts.socket_path.empty()) {
    throw UsageError("--stdio and --socket are mutually exclusive");
  }
  opts.cache_dir = args.get("cache-dir", ".synran-cache");
  opts.max_queue = args.u64("max-queue", 64);
  if (opts.max_queue == 0) {
    throw UsageError("--max-queue must be >= 1");
  }
  opts.deadline_ms = args.u64("deadline-ms", 0);
  opts.threads = static_cast<unsigned>(args.u64("threads", 0));
  opts.max_cache_entries = args.u64("max-cache-entries", 0);
  opts.backoff_ms = static_cast<unsigned>(args.u64("backoff-ms", 10));
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
int cmd_request(const ArgvSource& args) {
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

int cmd_trace(const std::string& sub, const ArgvSource& args) {
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
      "           Flags of the other model (--adversary, --faults,\n"
      "           --resume, --fail-policy, --retries, --max-rounds on\n"
      "           async; --scheduler, --delay, ... on sync) and unknown\n"
      "           flags are rejected.\n"
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
      "  2  usage error (unknown flags or names, malformed flag values)\n"
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
      return cmd_trace(argv[2], ArgvSource(argc, argv, 3));
    }
    // serve reads --stdio as a switch: a value-less flag the generic
    // --key value reader would misread as a pair.
    if (cmd == "serve") return cmd_serve(ArgvSource(argc, argv, 2, {"stdio"}));
    const ArgvSource args(argc, argv, 2);
    if (cmd == "run") return cmd_run(args);
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
