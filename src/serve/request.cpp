#include "serve/request.hpp"

#include <charconv>
#include <limits>
#include <set>

#include "exec/batch.hpp"
#include "serve/frame.hpp"

namespace synran::serve {

namespace {

using obs::JsonValue;

/// Longest client id we echo back; anything longer is hostile padding.
constexpr std::size_t kMaxIdBytes = 256;

std::uint64_t get_u64(const JsonValue& config, const std::string& key,
                      std::uint64_t dflt) {
  const JsonValue* v = config.find(key);
  if (v == nullptr) return dflt;
  if (!v->is_int() || v->as_int() < 0) {
    throw BadRequest("invalid value for config." + key +
                     " (expected a non-negative integer)");
  }
  return static_cast<std::uint64_t>(v->as_int());
}

std::uint32_t get_u32(const JsonValue& config, const std::string& key,
                      std::uint32_t dflt) {
  const std::uint64_t v = get_u64(config, key, dflt);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw BadRequest("value for config." + key + " is out of range");
  }
  return static_cast<std::uint32_t>(v);
}

std::string get_string(const JsonValue& config, const std::string& key,
                       const std::string& dflt) {
  const JsonValue* v = config.find(key);
  if (v == nullptr) return dflt;
  if (!v->is_string()) {
    throw BadRequest("invalid value for config." + key +
                     " (expected a string)");
  }
  return v->as_string();
}

void require_one_of(const std::string& key, const std::string& value,
                    std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (value == a) return;
  }
  std::string msg = "invalid config." + key + " '" + value + "' (expected ";
  bool first = true;
  for (const char* a : allowed) {
    if (!first) msg += ", ";
    msg += a;
    first = false;
  }
  msg += ")";
  throw BadRequest(msg);
}

/// Strict whole-string double parse for fault rates.
double parse_rate(const std::string& key, const std::string& text) {
  double v = 0.0;
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e) {
    throw BadRequest("invalid " + key + " rate '" + text +
                     "' (expected a number)");
  }
  return v;
}

std::uint64_t parse_uint(const std::string& key, const std::string& text) {
  std::uint64_t v = 0;
  const char* b = text.data();
  const char* e = b + text.size();
  const auto [p, ec] = std::from_chars(b, e, v);
  if (text.empty() || ec != std::errc() || p != e) {
    throw BadRequest("invalid " + key + " value '" + text +
                     "' (expected a non-negative integer)");
  }
  return v;
}

/// Validates a --faults-style spec: "", omit:RATE[,BUDGET], byz:RATE[,BUDGET].
void check_faults(const std::string& text) {
  if (text.empty()) return;
  std::string rest;
  if (text.rfind("omit:", 0) == 0) {
    rest = text.substr(5);
  } else if (text.rfind("byz:", 0) == 0) {
    rest = text.substr(4);
  } else {
    throw BadRequest("invalid config.faults '" + text +
                     "': expected omit:RATE[,BUDGET] or byz:RATE[,BUDGET]");
  }
  if (const auto comma = rest.find(','); comma != std::string::npos) {
    const std::uint64_t budget =
        parse_uint("config.faults budget", rest.substr(comma + 1));
    if (budget > std::numeric_limits<std::uint32_t>::max()) {
      throw BadRequest("config.faults budget is out of range");
    }
    rest = rest.substr(0, comma);
  }
  const double rate = parse_rate("config.faults", rest);
  if (rate < 0.0 || rate > 1.0) {
    throw BadRequest("invalid config.faults rate '" + rest +
                     "': must lie in [0, 1]");
  }
}

/// Validates a --delay-style spec: held, fixed:D, uniform:LO,HI.
void check_delay(const std::string& text) {
  if (text == "held") return;
  if (text.rfind("fixed:", 0) == 0) {
    parse_uint("config.delay", text.substr(6));
    return;
  }
  if (text.rfind("uniform:", 0) == 0) {
    const std::string rest = text.substr(8);
    const auto comma = rest.find(',');
    if (comma == std::string::npos) {
      throw BadRequest("invalid config.delay '" + text +
                       "': uniform needs LO,HI");
    }
    const auto lo = parse_uint("config.delay", rest.substr(0, comma));
    const auto hi = parse_uint("config.delay", rest.substr(comma + 1));
    if (lo > hi) {
      throw BadRequest("invalid config.delay '" + text +
                       "': LO must be <= HI");
    }
    return;
  }
  throw BadRequest("invalid config.delay '" + text +
                   "' (expected held, fixed:D, or uniform:LO,HI)");
}

/// config.reps, default 50; a batch needs at least one repetition.
std::uint64_t get_reps(const JsonValue& config) {
  const std::uint64_t reps = get_u64(config, "reps", 50);
  if (reps == 0) throw BadRequest("config.reps must be >= 1");
  return reps;
}

void reject_unknown_keys(const JsonValue& object, const char* where,
                         const std::set<std::string>& known) {
  for (const auto& [key, value] : object.as_object()) {
    if (known.count(key) == 0) {
      throw BadRequest(std::string("unknown ") + where + " key '" + key +
                       "'");
    }
  }
}

/// Validates a sync run config and rebuilds it in canonical form.
JsonValue canonicalize_sync(const JsonValue& config) {
  reject_unknown_keys(config, "config",
                      {"model", "protocol", "adversary", "faults", "n", "t",
                       "pattern", "reps", "seed", "max_rounds", "fail_policy",
                       "retries"});
  const std::string protocol = get_string(config, "protocol", "synran");
  require_one_of("protocol", protocol,
                 {"synran", "benor-sym", "synran-nodet", "floodmin",
                  "floodmin-early", "leadercoin"});
  const std::string adversary = get_string(config, "adversary", "coinbias");
  require_one_of("adversary", adversary,
                 {"none", "random", "chain", "coinbias", "oblivious",
                  "leader-killer"});
  const std::string faults = get_string(config, "faults", "");
  check_faults(faults);
  const std::uint32_t n = get_u32(config, "n", 128);
  if (n == 0) throw BadRequest("config.n must be >= 1");
  const std::uint32_t t = get_u32(config, "t", n / 2);
  if (t > n)
    throw BadRequest("config.t " + std::to_string(t) + " exceeds config.n " +
                     std::to_string(n));
  const std::string pattern = get_string(config, "pattern", "random");
  require_one_of("pattern", pattern,
                 {"all-0", "all-1", "half", "single-0", "random"});
  const std::string policy = get_string(config, "fail_policy", "fail_fast");
  require_one_of("fail_policy", policy, {"fail_fast", "quarantine"});
  const std::uint64_t reps = get_reps(config);

  JsonValue canon = JsonValue::object();
  canon.set("model", "sync");
  canon.set("protocol", protocol);
  canon.set("adversary", adversary);
  canon.set("faults", faults);
  canon.set("n", JsonValue(n));
  canon.set("t", JsonValue(t));
  canon.set("pattern", pattern);
  canon.set("reps", JsonValue(reps));
  canon.set("seed", JsonValue(get_u64(config, "seed", 1)));
  canon.set("max_rounds", JsonValue(get_u32(config, "max_rounds", 100000)));
  canon.set("fail_policy", policy);
  canon.set("retries", JsonValue(get_u32(config, "retries", 0)));
  return canon;
}

/// Validates an async run config and rebuilds it in canonical form. The
/// sync-only machinery is rejected loudly rather than ignored, mirroring
/// `synran run --model=async`.
JsonValue canonicalize_async(const JsonValue& config) {
  for (const char* key : {"adversary", "faults", "max_rounds", "fail_policy",
                          "retries"}) {
    if (config.find(key) != nullptr) {
      throw BadRequest(std::string("config.") + key +
                       " does not apply to model 'async'" +
                       (std::string(key) == "adversary"
                            ? " (use config.scheduler)"
                            : ""));
    }
  }
  reject_unknown_keys(config, "config",
                      {"model", "protocol", "scheduler", "delay", "gst",
                       "delta", "retransmit", "n", "t", "pattern", "reps",
                       "seed", "max_steps", "max_time"});
  const std::string protocol = get_string(config, "protocol", "benor");
  require_one_of("protocol", protocol, {"benor"});
  const std::string scheduler = get_string(config, "scheduler", "random");
  require_one_of("scheduler", scheduler,
                 {"fifo", "random", "laggard", "stall"});
  const std::string delay = get_string(config, "delay", "held");
  check_delay(delay);
  const std::uint64_t gst = get_u64(config, "gst", 0);
  const std::uint64_t delta = get_u64(config, "delta", 0);
  if (gst != 0 || delta != 0) {
    if (delay != "held") {
      throw BadRequest("config.gst/config.delta require config.delay 'held' "
                       "(they bound the adversary, not a timed link model)");
    }
    if (delta == 0) {
      throw BadRequest("config.gst needs config.delta >= 1 (the post-GST "
                       "bound)");
    }
  }
  const std::uint32_t n = get_u32(config, "n", 32);
  if (n == 0) throw BadRequest("config.n must be >= 1");
  const std::uint32_t t = get_u32(config, "t", n >= 2 ? (n - 1) / 2 : 0);
  if (2 * static_cast<std::uint64_t>(t) >= n)
    throw BadRequest("config.t " + std::to_string(t) +
                     " must be below half of config.n " + std::to_string(n) +
                     " for model 'async' (Ben-Or needs t < n/2)");
  const std::string pattern = get_string(config, "pattern", "random");
  require_one_of("pattern", pattern,
                 {"all-0", "all-1", "half", "single-0", "random"});
  const std::uint64_t reps = get_reps(config);

  JsonValue canon = JsonValue::object();
  canon.set("model", "async");
  canon.set("protocol", protocol);
  canon.set("scheduler", scheduler);
  canon.set("delay", delay);
  canon.set("gst", JsonValue(gst));
  canon.set("delta", JsonValue(delta));
  canon.set("retransmit", JsonValue(get_u64(config, "retransmit", 0)));
  canon.set("n", JsonValue(n));
  canon.set("t", JsonValue(t));
  canon.set("pattern", pattern);
  canon.set("reps", JsonValue(reps));
  canon.set("seed", JsonValue(get_u64(config, "seed", 1)));
  canon.set("max_steps", JsonValue(get_u64(config, "max_steps", 2000000)));
  canon.set("max_time", JsonValue(get_u64(config, "max_time", 0)));
  return canon;
}

}  // namespace

const char* to_string(Command cmd) {
  switch (cmd) {
    case Command::Run:
      return "run";
    case Command::Ping:
      return "ping";
    case Command::Stats:
      return "stats";
    case Command::Shutdown:
      return "shutdown";
  }
  return "?";
}

ServeRequest parse_request(const std::string& body) {
  std::string error;
  const auto parsed = JsonValue::parse(body, &error);
  if (!parsed.has_value()) {
    throw BadRequest("request is not valid JSON: " + error);
  }
  if (!parsed->is_object()) {
    throw BadRequest("request must be a JSON object");
  }
  reject_unknown_keys(*parsed, "request",
                      {"schema", "id", "cmd", "config", "deadline_ms"});

  const JsonValue* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kRequestSchema) {
    throw BadRequest(std::string("request schema must be \"") +
                     kRequestSchema + "\"");
  }

  ServeRequest req;
  if (const JsonValue* id = parsed->find("id"); id != nullptr) {
    if (!id->is_string()) throw BadRequest("request id must be a string");
    if (id->as_string().size() > kMaxIdBytes) {
      throw BadRequest("request id exceeds " + std::to_string(kMaxIdBytes) +
                       " bytes");
    }
    req.id = id->as_string();
  }

  const JsonValue* cmd = parsed->find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    throw BadRequest("request needs a string cmd");
  }
  const std::string& name = cmd->as_string();
  if (name == "run") {
    req.cmd = Command::Run;
  } else if (name == "ping") {
    req.cmd = Command::Ping;
  } else if (name == "stats") {
    req.cmd = Command::Stats;
  } else if (name == "shutdown") {
    req.cmd = Command::Shutdown;
  } else {
    throw BadRequest("unknown cmd '" + name +
                     "' (expected run, ping, stats, or shutdown)");
  }

  if (const JsonValue* dl = parsed->find("deadline_ms"); dl != nullptr) {
    if (!dl->is_int() || dl->as_int() < 0) {
      throw BadRequest("deadline_ms must be a non-negative integer");
    }
    req.deadline_ms = static_cast<std::uint64_t>(dl->as_int());
  }

  const JsonValue* config = parsed->find("config");
  if (req.cmd != Command::Run) {
    if (config != nullptr) {
      throw BadRequest(std::string("cmd '") + name +
                       "' does not take a config");
    }
    return req;
  }
  JsonValue empty = JsonValue::object();
  if (config == nullptr) config = &empty;
  if (!config->is_object()) {
    throw BadRequest("config must be a JSON object");
  }
  const std::string model = get_string(*config, "model", "sync");
  require_one_of("model", model, {"sync", "async"});
  req.config = model == "async" ? canonicalize_async(*config)
                                : canonicalize_sync(*config);
  return req;
}

std::string cache_key_string(const obs::JsonValue& canonical_config,
                             const std::string& git_rev) {
  return canonical_config.dump() +
         "|seed_schema=" + std::to_string(kSeedSchemaVersion) +
         "|git_rev=" + git_rev;
}

}  // namespace synran::serve
