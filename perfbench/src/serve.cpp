// The `serve` workload: a closed loop over one connection to a
// `synran serve --stdio --threads 1` daemon. The campaign is a seeded
// sequence of small sync cells; the daemon starts over a cache pre-warmed
// with the first kWarm of them, and the timed phase mixes fresh configs
// (misses: plan, compute, fsync'd store) with repeats of warm ones (hits:
// framing, validation, lookup, result_from_payload) in a seeded order.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>

#include "common/rng.hpp"
#include "frame_client.hpp"
#include "obs/json.hpp"
#include "pinned.hpp"
#include "serve/cache.hpp"
#include "serve/plan.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using synran::obs::JsonValue;

constexpr const char* kProtocols[] = {"synran", "floodmin"};
constexpr const char* kAdversaries[] = {"coinbias", "random", "none"};
constexpr const char* kFaults[] = {"", "omit:0.1,8", "byz:0.1,4"};
/// Config types: protocol x adversary x fault family. Their misses take
/// from ~5 to ~18 ms, so the campaign is balanced over them, and every run
/// sees the same mix whatever its seed: each block of kTypes consecutive
/// configs holds every type once, in a seeded order, and each timed round
/// repeats every type once.
constexpr std::uint64_t kTypes = 18;
constexpr std::size_t kWarm = 6 * kTypes;
/// Large enough that compute, not the fsync'd store, dominates a miss.
constexpr std::uint64_t kRepsPerConfig = 128;
constexpr int kSetups = 21;
constexpr std::uint64_t kOrderStream = 0x4f52444552;  // "ORDER"
const std::string kGitRev = "perfbench";

/// The types in an order drawn from `rng` (Fisher-Yates).
std::array<std::uint64_t, kTypes> shuffled_types(synran::Xoshiro256& rng) {
  std::array<std::uint64_t, kTypes> order;
  std::iota(order.begin(), order.end(), 0);
  for (std::uint64_t k = kTypes - 1; k > 0; --k)
    std::swap(order[k], order[rng.below(k + 1)]);
  return order;
}

/// Types of block b (configs b*kTypes ... b*kTypes + kTypes - 1).
std::array<std::uint64_t, kTypes> block_types(std::uint64_t seed,
                                              std::uint64_t b) {
  synran::Xoshiro256 rng(synran::SeedSequence(seed).stream(b));
  return shuffled_types(rng);
}

/// Config i of the campaign seeded by `seed`: n = 48, its block's type, and
/// a distinct batch seed so no two configs share a cache entry.
std::string request_body(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t type = block_types(seed, i / kTypes)[i % kTypes];
  JsonValue config = JsonValue::object();
  config.set("model", "sync");
  config.set("protocol", kProtocols[type / 9]);
  config.set("adversary", kAdversaries[type / 3 % 3]);
  config.set("faults", kFaults[type % 3]);
  config.set("n", JsonValue(std::uint64_t{48}));
  config.set("pattern", "half");
  config.set("reps", JsonValue(kRepsPerConfig));
  config.set("seed", JsonValue(i + 1));
  JsonValue req = JsonValue::object();
  req.set("schema", synran::serve::kRequestSchema);
  req.set("id", "c" + std::to_string(i));
  req.set("cmd", "run");
  req.set("config", std::move(config));
  return req.dump();
}

std::string ok_prefix(const std::string& id) {
  return std::string("{\"schema\":\"") + synran::serve::kResponseSchema +
         "\",\"id\":\"" + id + "\",\"ok\":true";
}

bool is_ok(const std::string& reply, std::uint64_t i) {
  return reply.rfind(ok_prefix("c" + std::to_string(i)), 0) == 0;
}

/// One request of a timed phase, as sent and answered.
struct Exchange {
  std::uint64_t config = 0;
  bool hit = false;
  std::string body;
  std::string reply;
  double ms = 0;
};

struct Campaign {
  std::uint64_t seed = 0;
  std::string dir;
  std::string cache;
  std::string log;
  std::string bin;
  std::map<std::uint64_t, std::string> replies;  ///< first reply per config
  Digest warm_digest;
};

void expect_clean_exit(const ChildExit& exit, const std::string& what,
                       Result& r) {
  if (exit.code != 0)
    r.fail(what + ": daemon exited " + std::to_string(exit.code) +
               " on clean EOF (want 0)",
           1);
}

/// Fills a fresh cache with the campaign's first kWarm configs.
void prewarm(Campaign& c, Result& r) {
  Daemon d(c.bin, c.cache, c.log);
  for (std::uint64_t i = 0; i < kWarm; ++i) {
    std::string reply;
    d.client().request(request_body(c.seed, i), reply);
    ++r.attempted;
    if (!is_ok(reply, i)) r.fail("pre-warm reply not ok: " + reply.substr(0, 200), 1);
    c.warm_digest.add(reply);
    c.replies[i] = std::move(reply);
  }
  expect_clean_exit(d.finish(), "pre-warm", r);
}

/// Spawn → first pong over the warm cache, in seconds.
double setup_once(const Campaign& c, Result& r) {
  const auto t0 = Clock::now();
  Daemon d(c.bin, c.cache, c.log);
  std::string reply;
  d.client().request(
      R"({"schema":"synran-req/1","id":"ready","cmd":"ping"})", reply);
  const double s = seconds_between(t0, Clock::now());
  if (reply.find("\"pong\":true") == std::string::npos)
    r.fail("no pong from a fresh daemon", 1);
  expect_clean_exit(d.finish(), "set-up", r);
  return s;
}

struct Phase {
  std::vector<Exchange> exchanges;
  double wall = 0;
  std::uint64_t reps = 0;
  WindowRate rate;
  double ping_ms = 0;
  JsonValue stats;  ///< the daemon's `stats` reply
  ChildExit exit;
};

/// The requests of timed round `round`: the round's block of fresh configs
/// (misses) and one repeat of each type (hits, each from a random block
/// answered before the round), shuffled together. Every round is the same
/// mix of work, so rates are taken over whole rounds.
std::vector<std::pair<bool, std::uint64_t>> round_requests(
    std::uint64_t seed, std::uint64_t round, synran::Xoshiro256& order) {
  const std::uint64_t fresh = kWarm + round * kTypes;
  std::vector<std::pair<bool, std::uint64_t>> out;
  for (std::uint64_t k = 0; k < kTypes; ++k) out.emplace_back(false, fresh + k);
  for (const std::uint64_t type : shuffled_types(order)) {
    const std::uint64_t b = order.below(fresh / kTypes);
    const auto types = block_types(seed, b);
    const auto at = std::find(types.begin(), types.end(), type) - types.begin();
    out.emplace_back(true, b * kTypes + static_cast<std::uint64_t>(at));
  }
  for (std::size_t k = out.size() - 1; k > 0; --k)
    std::swap(out[k], out[order.below(k + 1)]);
  return out;
}

/// The closed loop: one daemon, rounds of requests in the campaign's seeded
/// order until `seconds` pass or `max_rounds` are answered. Hit replies
/// must equal the config's first reply byte for byte.
Phase timed_phase(Campaign& c, double seconds, std::uint64_t max_rounds,
                  bool keep_bodies, Result& r) {
  Phase ph;
  Daemon d(c.bin, c.cache, c.log);
  std::string reply;
  ph.ping_ms = d.client().request(
      R"({"schema":"synran-req/1","id":"ready","cmd":"ping"})", reply);

  synran::Xoshiro256 order(synran::SeedSequence(c.seed).stream(kOrderStream));
  const auto start = Clock::now();
  ph.rate.start(start);
  for (std::uint64_t round = 0; round < max_rounds; ++round) {
    std::uint64_t reps = 0;
    for (const auto& [hit, config] : round_requests(c.seed, round, order)) {
      Exchange x;
      x.hit = hit;
      x.config = config;
      x.body = request_body(c.seed, x.config);
      x.ms = d.client().request(x.body, x.reply);
      ++r.attempted;
      const bool ok = is_ok(x.reply, x.config);
      if (!ok) {
        r.fail("reply not ok: " + x.reply.substr(0, 200), 1);
      } else if (x.hit) {
        const auto first = c.replies.find(x.config);
        if (first == c.replies.end() || x.reply != first->second)
          r.fail("hit reply for c" + std::to_string(x.config) +
                     " differs from its miss reply",
                 1);
      } else {
        c.replies[x.config] = x.reply;
      }
      if (ok) reps += kRepsPerConfig;
      if (!keep_bodies) {
        x.body.clear();
        x.reply.clear();
      }
      ph.exchanges.push_back(std::move(x));
    }
    ph.reps += reps;
    const auto now = Clock::now();
    ph.rate.add(static_cast<double>(reps), now);
    if (seconds_between(start, now) >= seconds) break;
  }
  ph.wall = seconds_between(start, Clock::now());

  d.client().request(R"({"schema":"synran-req/1","id":"stats","cmd":"stats"})",
                     reply);
  if (auto parsed = JsonValue::parse(reply)) ph.stats = *parsed;
  ph.exit = d.finish();
  expect_clean_exit(ph.exit, "timed phase", r);
  return ph;
}

Campaign open_campaign(const Options& o) {
  Campaign c;
  c.seed = o.seed;
  c.bin = o.synran_bin;
  c.dir = o.work_dir + "/serve";
  fs::remove_all(c.dir);
  fs::create_directories(c.dir);
  c.cache = c.dir + "/cache";
  c.log = c.dir + "/daemon.log";
  return c;
}

Result timed_run(const Options& o) {
  Result r;
  Campaign c = open_campaign(o);
  prewarm(c, r);
  const Pin& pin = pin_for("serve");
  const DigestVerdict v =
      check_pinned(c.warm_digest, o.seed == kDefaultSeed, pin.hex);
  r.notes.push_back("digest of the " + std::to_string(kWarm) +
                    " pre-warm replies: " + v.describe());
  if (!v.matches) r.fail("pinned reply digest differs", kWarm);

  std::vector<double> setups;
  for (int k = 0; k < kSetups; ++k) setups.push_back(setup_once(c, r));

  const Phase ph = timed_phase(c, o.seconds, UINT64_MAX, false, r);
  LatencySample hit, miss;
  for (const Exchange& x : ph.exchanges) (x.hit ? hit : miss).ms.push_back(x.ms);

  r.notes.push_back("timed phase: " + std::to_string(ph.exchanges.size()) +
                    " requests in " + fmt(ph.wall) +
                    " s, closed loop, one connection; daemon exit " +
                    std::to_string(ph.exit.code) + "; " +
                    fmt(static_cast<double>(ph.reps) / ph.wall) +
                    " reps/s over the whole phase");
  r.notes.push_back("miss latency: " + miss.describe());
  r.notes.push_back("hit latency: " + hit.describe());
  r.add("reps_per_s", ph.rate.median_rate(), "reps/s",
        "reps delivered in ok replies, median of " +
            std::to_string(ph.rate.windows()) + " windows");
  const std::string misses = "n=" + std::to_string(miss.ms.size());
  const std::string hits = "n=" + std::to_string(hit.ms.size());
  r.add("miss_ms_p50", miss.p50(), "ms", misses);
  r.add("hit_ms_p50", hit.p50(), "ms", hits);
  r.add("setup_s", median(setups), "s",
        "spawn to first pong, median of " + std::to_string(kSetups));
  r.unbounded = {{"miss_ms_p90", miss.p90(), "ms", misses + "; not bounded"},
                 {"hit_ms_p90", hit.p90(), "ms", hits + "; not bounded"},
                 {"peak_rss_mb", ph.exit.peak_rss_mb, "MiB",
                  "the timed daemon; not bounded"}};
  return r;
}

/// One request replayed in-process through the src/serve functions, in
/// Server::handle_run order. With a log each step is a span of request `k`.
std::string serve_one(const Exchange& x, synran::serve::ResultCache& cache,
                      const TraceClock& clock, SpanLog* log, std::uint64_t k) {
  namespace sv = synran::serve;
  const auto span = [&](const char* name, double t0, double t1) {
    if (log != nullptr) log->add(log->name_id(name), t0, t1, -1, k);
  };
  double t0 = clock.now();
  const sv::ServeRequest req = sv::parse_request(x.body);
  double t1 = clock.now();
  span("serve.parse", t0, t1);

  t0 = t1;
  const std::string key = sv::cache_key_string(req.config, kGitRev);
  const bool is_async = req.config.find("model")->as_string() == "async";
  std::optional<JsonValue> payload = cache.lookup(key);
  t1 = clock.now();
  span("serve.cache_lookup", t0, t1);

  if (!payload.has_value()) {
    t0 = t1;
    const sv::RunPlan plan = sv::build_plan(req.config, 1);
    t1 = clock.now();
    span("serve.plan", t0, t1);
    t0 = t1;
    payload = sv::execute_plan(plan);
    t1 = clock.now();
    span("serve.execute", t0, t1);
    t0 = t1;
    cache.store(key, *payload);
    t1 = clock.now();
    span("serve.cache_store", t0, t1);
  }
  t0 = t1;
  std::string reply =
      sv::ok_response(req.id, sv::result_from_payload(is_async, *payload))
          .dump();
  span("serve.respond", t0, clock.now());
  return reply;
}

struct ReplayWalls {
  double untraced = 0;
  double traced = 0;  ///< every traced span lies inside it
};

/// Replays the daemon phase's requests in-process twice, over two fresh
/// copies of the warm cache: untraced, and with every step a span in `log`.
/// The two go request by request, swapping places each time, so a drift in
/// the machine's speed lands on both alike. Replies must equal the daemon's.
ReplayWalls replay(const std::vector<Exchange>& xs, const std::string& warm,
                   const std::string& dir, SpanLog& log, Result& r) {
  namespace sv = synran::serve;
  const std::string plain_dir = dir + "/untraced";
  const std::string traced_dir = dir + "/traced";
  for (const std::string& d : {plain_dir, traced_dir}) {
    fs::remove_all(d);
    fs::create_directories(fs::path(d).parent_path());
    fs::copy(warm, d, fs::copy_options::recursive);
  }
  // The daemon's cache settings: unbounded, 3 I/O attempts, 10 ms backoff.
  const auto options = [](const std::string& d) {
    return sv::ResultCache::Options{d, 0, 3, 10};
  };
  // One untimed computation first, so neither side pays the process's
  // first-run costs (page faults, lazy initialisation).
  for (const Exchange& x : xs)
    if (!x.hit) {
      sv::execute_plan(sv::build_plan(sv::parse_request(x.body).config, 1));
      break;
    }
  const TraceClock clock;
  ReplayWalls walls;

  double t0 = clock.now();
  sv::ResultCache plain(options(plain_dir));
  double t1 = clock.now();
  walls.untraced += t1 - t0;
  sv::ResultCache traced(options(traced_dir));
  t0 = clock.now();
  log.add(log.name_id("serve.recover"), t1, t0, -1, 0);
  walls.traced += t0 - t1;

  for (std::size_t k = 0; k < xs.size(); ++k) {
    std::string replies[2];
    for (int side = 0; side < 2; ++side) {
      const bool trace = (k + static_cast<std::size_t>(side)) % 2 == 1;
      t0 = clock.now();
      replies[trace] = serve_one(xs[k], trace ? traced : plain, clock,
                                 trace ? &log : nullptr, k);
      (trace ? walls.traced : walls.untraced) += clock.now() - t0;
    }
    for (const std::string& reply : replies)
      if (reply != xs[k].reply) {
        r.fail("in-process replay of c" + std::to_string(xs[k].config) +
                   " differs from the daemon's reply",
               1);
        break;
      }
  }
  return walls;
}

Result traced_run(const Options& o) {
  Result r;
  Campaign c = open_campaign(o);
  prewarm(c, r);
  const std::string warm = c.dir + "/warm";
  fs::copy(c.cache, warm, fs::copy_options::recursive);

  // A fixed round count for a given --seconds, so a parent and a change
  // replay the same sequence; about two thirds of the run on a 4-core Xeon
  // VM.
  const auto rounds = static_cast<std::uint64_t>(
      std::max(1.0, std::round(o.seconds)));
  const Phase ph = timed_phase(c, 1e300, rounds, true, r);
  double client_ms = ph.ping_ms;
  for (const Exchange& x : ph.exchanges) client_ms += x.ms;
  client_ms /= static_cast<double>(ph.exchanges.size() + 1);

  SpanLog spans;
  const ReplayWalls walls =
      replay(ph.exchanges, warm, c.dir + "/replay", spans, r);

  double hits = 0, misses = 0, server_ms = 0;
  if (const JsonValue* res = ph.stats.find("result")) {
    const JsonValue* counters = res->find("counters");
    const JsonValue* lat = res->find("summaries");
    if (counters != nullptr && counters->find("cache_hits") != nullptr) {
      hits = counters->find("cache_hits")->as_double();
      misses = counters->find("cache_misses")->as_double();
    }
    if (lat != nullptr && lat->find("request_latency_ms") != nullptr)
      server_ms = lat->find("request_latency_ms")->find("mean")->as_double();
  }
  if (hits + misses == 0) r.fail("the daemon's stats reply had no cache counters", 1);

  const auto span = [&](const char* metric, const char* name) {
    return Metric{metric, spans.self_seconds(name), "",
                  std::to_string(spans.count(name)) + " spans"};
  };
  r.notes.push_back("replayed " + std::to_string(ph.exchanges.size()) +
                    " requests in-process: " + fmt(walls.traced) +
                    " s traced vs " + fmt(walls.untraced) +
                    " s untraced, interleaved request by request (daemon "
                    "phase " + fmt(ph.wall) + " s)");
  const std::string path = o.work_dir + "/spans-serve.tsv";
  std::ofstream out(path);
  spans.write(out);
  r.notes.push_back("span file: " + path);
  const std::string stats = "the daemon's stats reply";
  emit_layers(r, {span("serve.recover_s", "serve.recover"),
                  span("serve.parse_s", "serve.parse"),
                  span("serve.cache_lookup_s", "serve.cache_lookup"),
                  span("serve.respond_s", "serve.respond"),
                  span("serve.plan_s", "serve.plan"),
                  span("serve.execute_s", "serve.execute"),
                  span("serve.cache_store_s", "serve.cache_store"),
                  {"serve.hit_ratio", hits / std::max(1.0, hits + misses), "",
                   fmt(hits) + " hits, " + fmt(misses) + " misses; " + stats},
                  {"serve.server_ms_mean", server_ms, "", stats},
                  {"serve.transport_ms", client_ms - server_ms, "",
                   "client mean " + fmt(client_ms) + " ms minus the server's"},
                  {"residual_s", spans.residual_seconds(walls.traced), "",
                   "of " + fmt(walls.traced) + " s traced"},
                  {"trace_overhead", walls.traced / walls.untraced, "",
                   fmt(walls.traced) + " s / " + fmt(walls.untraced) + " s"}});
  return r;
}

}  // namespace

Result run_serve_workload(const Options& options) {
  return options.trace ? traced_run(options) : timed_run(options);
}

}  // namespace perfbench
