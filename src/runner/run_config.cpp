#include "runner/run_config.hpp"

#include <charconv>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "adversary/basic.hpp"
#include "adversary/byzantine.hpp"
#include "adversary/coinbias.hpp"
#include "adversary/nonadaptive.hpp"
#include "adversary/omission.hpp"
#include "common/rng.hpp"
#include "protocols/floodmin.hpp"
#include "protocols/leadercoin.hpp"
#include "protocols/synran.hpp"

namespace synran {

namespace {

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void out_of_range(const std::string& shown,
                               std::string_view text) {
  throw ConfigError("value for " + shown + " is out of range: '" +
                    std::string(text) + "'");
}

/// Whole-string std::from_chars, or nullopt on anything left over.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || p != end) return std::nullopt;
  return v;
}

/// `max_rounds` -> `max-rounds`: the flag a key is read from.
std::string flag_of(std::string_view key) {
  std::string flag(key);
  for (char& c : flag) {
    if (c == '_') c = '-';
  }
  return flag;
}

/// Strict whole-string unsigned parse; `shown` names the value in messages.
std::uint64_t parse_count(std::string_view text, const std::string& shown) {
  const auto v = parse_whole<std::uint64_t>(text);
  if (!v.has_value()) {
    throw ConfigError("invalid value for " + shown + ": '" +
                      std::string(text) +
                      "' (expected a non-negative integer)");
  }
  return *v;
}

/// A fault rate: a finite number in [0, 1]. The test is written as "in
/// range" rather than "out of range" because every comparison with NaN is
/// false.
double parse_rate(std::string_view text, const std::string& shown) {
  const auto v = parse_whole<double>(text);
  if (!v.has_value()) {
    throw ConfigError("invalid value for " + shown + ": '" +
                      std::string(text) + "' (expected a number)");
  }
  if (!(*v >= 0.0 && *v <= 1.0)) {
    throw ConfigError("invalid " + shown + " rate '" + std::string(text) +
                      "': must lie in [0, 1]");
  }
  return *v;
}

/// The `delay` grammar: held, fixed:D or uniform:LO,HI with LO <= HI and
/// HI finite.
AsyncDelayFactory delay_factory(const std::string& text,
                                const std::string& shown) {
  if (text == "held") return held_delay_factory();
  if (text.starts_with("fixed:")) {
    return fixed_delay_factory(
        parse_count(std::string_view(text).substr(6), shown));
  }
  if (text.starts_with("uniform:")) {
    const std::string_view rest = std::string_view(text).substr(8);
    const auto comma = rest.find(',');
    if (comma == std::string_view::npos) {
      throw ConfigError("invalid " + shown + " '" + text +
                        "': uniform needs LO,HI");
    }
    const std::uint64_t lo = parse_count(rest.substr(0, comma), shown);
    const std::uint64_t hi = parse_count(rest.substr(comma + 1), shown);
    if (lo > hi) {
      throw ConfigError("invalid " + shown + " '" + text +
                        "': LO must be <= HI");
    }
    if (hi == kNever) {
      throw ConfigError("invalid " + shown + " '" + text +
                        "': HI must be below 2^64 - 1 (never)");
    }
    return uniform_delay_factory(lo, hi);
  }
  throw ConfigError("invalid " + shown + " '" + text +
                    "' (expected held, fixed:D, or uniform:LO,HI)");
}

// ---------------------------------------------------------- name tables

template <typename T>
struct Named {
  std::string_view name;
  T value;
};

using MakeProtocol = std::unique_ptr<ProcessFactory> (*)(std::uint32_t t);
using MakeAdversary = std::unique_ptr<Adversary> (*)(std::uint64_t seed);

constexpr std::string_view kModels[] = {"sync", "async"};
constexpr std::string_view kAsyncProtocols[] = {"benor"};

const Named<MakeProtocol> kProtocols[] = {
    {"synran",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<SynRanFactory>();
     }},
    {"benor-sym",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       SynRanOptions o;
       o.coin_rule = CoinRule::Symmetric;
       return std::make_unique<SynRanFactory>(o);
     }},
    {"synran-nodet",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       SynRanOptions o;
       o.det_handoff = false;
       return std::make_unique<SynRanFactory>(o);
     }},
    {"floodmin",
     [](std::uint32_t t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<FloodMinFactory>(FloodMinOptions{t, false});
     }},
    {"floodmin-early",
     [](std::uint32_t t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<FloodMinFactory>(FloodMinOptions{t, true});
     }},
    {"leadercoin",
     [](std::uint32_t) -> std::unique_ptr<ProcessFactory> {
       return std::make_unique<LeaderCoinFactory>();
     }},
};

const Named<MakeAdversary> kAdversaries[] = {
    {"none",
     [](std::uint64_t) -> std::unique_ptr<Adversary> {
       return std::make_unique<NoAdversary>();
     }},
    {"random",
     [](std::uint64_t s) -> std::unique_ptr<Adversary> {
       return std::make_unique<RandomCrashAdversary>(
           RandomCrashAdversary::Options{2, 0.6, s});
     }},
    {"chain",
     [](std::uint64_t) -> std::unique_ptr<Adversary> {
       return std::make_unique<ChainHidingAdversary>();
     }},
    {"coinbias",
     [](std::uint64_t s) -> std::unique_ptr<Adversary> {
       return std::make_unique<CoinBiasAdversary>(
           CoinBiasOptions{0.55, true, s});
     }},
    {"oblivious",
     [](std::uint64_t s) -> std::unique_ptr<Adversary> {
       return std::make_unique<ObliviousAdversary>(ObliviousOptions{64, s});
     }},
    {"leader-killer",
     [](std::uint64_t) -> std::unique_ptr<Adversary> {
       return std::make_unique<LeaderKillerAdversary>();
     }},
};

const Named<AsyncSchedulerFactory (*)()> kSchedulers[] = {
    {"fifo", fifo_scheduler_factory},
    {"random", random_scheduler_factory},
    {"laggard", laggard_scheduler_factory},
    {"stall", stall_scheduler_factory},
};

// Patterns and fail policies are named by their exec/batch.hpp to_string.
constexpr InputPattern kPatterns[] = {
    InputPattern::AllZero, InputPattern::AllOne, InputPattern::Half,
    InputPattern::SingleZero, InputPattern::Random};
constexpr FailurePolicy kPolicies[] = {FailurePolicy::FailFast,
                                       FailurePolicy::Quarantine};

std::string_view entry_name(std::string_view name) { return name; }
std::string_view entry_name(InputPattern p) { return to_string(p); }
std::string_view entry_name(FailurePolicy p) { return to_string(p); }
template <typename T>
std::string_view entry_name(const Named<T>& entry) {
  return entry.name;
}

/// The entry of `Table` named `name`, or a ConfigError listing the names.
template <const auto& Table>
const auto& lookup(std::string_view name, const std::string& shown) {
  for (const auto& entry : Table) {
    if (entry_name(entry) == name) return entry;
  }
  const std::size_t size = std::size(Table);
  std::string expected;
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0) expected += size == 2 ? " or " : i + 1 == size ? ", or " : ", ";
    expected += entry_name(Table[i]);
  }
  throw ConfigError("invalid " + shown + " '" + std::string(name) +
                    "' (expected " + expected + ")");
}

// ------------------------------------------------------------ key table

/// Checks a text key's value; `shown` is the key as the source spells it.
using Check = void (*)(const std::string& value, const std::string& shown);

template <const auto& Table>
void one_of(const std::string& value, const std::string& shown) {
  lookup<Table>(value, shown);
}
void faults_grammar(const std::string& value, const std::string& shown) {
  parse_faults(value, shown);
}
void delay_grammar(const std::string& value, const std::string& shown) {
  delay_factory(value, shown);
}

/// One key of a model: its JSON spelling, the RunConfig field it fills and
/// its default. A text key checks its value against a name table or a
/// grammar; an integer key may be 32-bit, and t's default derives from n.
struct Key {
  std::string_view name;
  std::string RunConfig::*text = nullptr;
  std::string_view text_default = {};
  Check check = nullptr;
  std::uint64_t RunConfig::*number = nullptr;
  std::uint64_t number_default = 0;
  bool narrow = false;
  std::uint64_t (*derive)(const RunConfig&) = nullptr;
};

constexpr Key text_key(std::string_view name, std::string RunConfig::*field,
                       std::string_view dflt, Check check) {
  return {.name = name, .text = field, .text_default = dflt, .check = check};
}
constexpr Key int_key(std::string_view name, std::uint64_t RunConfig::*field,
                      std::uint64_t dflt, bool narrow = false) {
  return {.name = name, .number = field, .number_default = dflt,
          .narrow = narrow};
}
constexpr Key budget_key(std::uint64_t (*derive)(const RunConfig&)) {
  return {.name = "t", .number = &RunConfig::t, .narrow = true,
          .derive = derive};
}

const Key kSyncKeys[] = {
    text_key("model", &RunConfig::model, "sync", one_of<kModels>),
    text_key("protocol", &RunConfig::protocol, "synran", one_of<kProtocols>),
    text_key("adversary", &RunConfig::adversary, "coinbias",
             one_of<kAdversaries>),
    text_key("faults", &RunConfig::faults, "", faults_grammar),
    int_key("n", &RunConfig::n, 128, true),
    budget_key([](const RunConfig& c) { return c.n / 2; }),
    text_key("pattern", &RunConfig::pattern, "random", one_of<kPatterns>),
    int_key("reps", &RunConfig::reps, 50),
    int_key("seed", &RunConfig::seed, 1),
    int_key("max_rounds", &RunConfig::max_rounds, 100000, true),
    text_key("fail_policy", &RunConfig::fail_policy, "fail_fast",
             one_of<kPolicies>),
    int_key("retries", &RunConfig::retries, 0, true),
};

const Key kAsyncKeys[] = {
    text_key("model", &RunConfig::model, "async", one_of<kModels>),
    text_key("protocol", &RunConfig::protocol, "benor",
             one_of<kAsyncProtocols>),
    text_key("scheduler", &RunConfig::scheduler, "random",
             one_of<kSchedulers>),
    text_key("delay", &RunConfig::delay, "held", delay_grammar),
    int_key("gst", &RunConfig::gst, 0),
    int_key("delta", &RunConfig::delta, 0),
    int_key("retransmit", &RunConfig::retransmit, 0),
    int_key("n", &RunConfig::n, 32, true),
    budget_key([](const RunConfig& c) { return c.n == 0 ? 0 : (c.n - 1) / 2; }),
    text_key("pattern", &RunConfig::pattern, "random", one_of<kPatterns>),
    int_key("reps", &RunConfig::reps, 50),
    int_key("seed", &RunConfig::seed, 1),
    int_key("max_steps", &RunConfig::max_steps, 2000000),
    int_key("max_time", &RunConfig::max_time, 0),
};

std::span<const Key> keys_of(bool async) {
  if (async) return kAsyncKeys;
  return kSyncKeys;
}

bool has_key(std::span<const Key> keys, std::string_view name) {
  for (const Key& key : keys) {
    if (key.name == name) return true;
  }
  return false;
}

}  // namespace

// ------------------------------------------------------------- sources

std::string ConfigSource::get(std::string_view key,
                              std::string_view dflt) const {
  return has(key) ? text(key) : std::string(dflt);
}

std::uint64_t ConfigSource::u64(std::string_view key,
                                std::uint64_t dflt) const {
  return has(key) ? integer(key) : dflt;
}

std::uint32_t ConfigSource::u32(std::string_view key,
                                std::uint32_t dflt) const {
  const std::uint64_t v = u64(key, dflt);
  if (v > kMax32) out_of_range(name(key), std::to_string(v));
  return static_cast<std::uint32_t>(v);
}

ArgvSource::ArgvSource(int argc, const char* const* argv, int first,
                       const std::set<std::string, std::less<>>& switches) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw ConfigError("expected --key value pairs, got '" +
                        std::string(arg) + "'");
    }
    std::string_view key = arg.substr(2);
    std::string value;
    if (const auto eq = key.find('='); eq != std::string_view::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (switches.count(key) != 0) {
      value = "1";
    } else if (i + 1 >= argc) {
      throw ConfigError("missing value for '--" + std::string(key) + "'");
    } else {
      value = argv[++i];
    }
    if (!flags_.emplace(key, std::move(value)).second)
      throw ConfigError("--" + std::string(key) + " given twice");
  }
}

bool ArgvSource::has(std::string_view key) const {
  return flags_.find(flag_of(key)) != flags_.end();
}

std::string ArgvSource::name(std::string_view key) const {
  return "--" + flag_of(key);
}

std::uint64_t ArgvSource::integer(std::string_view key) const {
  return parse_count(text(key), name(key));
}

std::string ArgvSource::text(std::string_view key) const {
  return flags_.at(flag_of(key));
}

void ArgvSource::reject_unknown(
    std::span<const std::string_view> known) const {
  for (const auto& [flag, value] : flags_) {
    bool found = false;
    for (std::string_view key : known) found = found || flag_of(key) == flag;
    if (!found) throw ConfigError("unknown flag '--" + flag + "'");
  }
}

JsonSource::JsonSource(const obs::JsonValue& object) : object_(object) {
  if (!object_.is_object()) return;
  // One pass: a request may carry as many keys as its frame holds.
  std::unordered_set<std::string_view> seen;
  for (const auto& member : object_.as_object()) {
    if (!seen.insert(member.first).second)
      throw ConfigError(name(member.first) + " given twice");
  }
}

bool JsonSource::has(std::string_view key) const {
  return object_.find(key) != nullptr;
}

std::string JsonSource::name(std::string_view key) const {
  return "config." + std::string(key);
}

std::uint64_t JsonSource::integer(std::string_view key) const {
  const obs::JsonValue* v = object_.find(key);
  if (v == nullptr || !v->is_int() || v->as_int() < 0) {
    throw ConfigError("invalid value for " + name(key) +
                      " (expected a non-negative integer)");
  }
  return static_cast<std::uint64_t>(v->as_int());
}

std::string JsonSource::text(std::string_view key) const {
  const obs::JsonValue* v = object_.find(key);
  if (v == nullptr || !v->is_string()) {
    throw ConfigError("invalid value for " + name(key) +
                      " (expected a string)");
  }
  return v->as_string();
}

void JsonSource::reject_unknown(
    std::span<const std::string_view> known) const {
  for (const auto& [key, value] : object_.as_object()) {
    bool found = false;
    for (std::string_view k : known) found = found || k == key;
    if (!found) throw ConfigError("unknown key '" + name(key) + "'");
  }
}

// --------------------------------------------------------------- rules

FaultSpec parse_faults(const std::string& text, const std::string& shown) {
  FaultSpec f;
  if (text.empty()) return f;
  if (text.starts_with("omit:")) {
    f.family = FaultFamily::Omit;
  } else if (text.starts_with("byz:")) {
    f.family = FaultFamily::Byz;
  } else {
    throw ConfigError("invalid " + shown + " '" + text +
                      "': expected omit:RATE[,BUDGET] or byz:RATE[,BUDGET]");
  }
  std::string_view rate = std::string_view(text).substr(text.find(':') + 1);
  if (const auto comma = rate.find(','); comma != std::string_view::npos) {
    const std::string_view budget = rate.substr(comma + 1);
    const std::uint64_t b = parse_count(budget, shown);
    if (b > kMax32) out_of_range(shown, budget);
    f.budget = static_cast<std::uint32_t>(b);
    rate = rate.substr(0, comma);
  }
  f.rate = parse_rate(rate, shown);
  return f;
}

void check_budget(std::uint64_t n, std::uint64_t t, bool async,
                  const ConfigSource& source) {
  if (n == 0) {
    throw ConfigError("invalid " + source.name("n") +
                      " 0: a run needs a process");
  }
  if (async ? 2 * t >= n : t > n) {
    throw ConfigError("invalid " + source.name("t") + " " +
                      std::to_string(t) + " for " + source.name("n") + " " +
                      std::to_string(n) + ": " +
                      (async ? "Ben-Or on the async engine needs t < n/2"
                             : "the sync engine needs t <= n"));
  }
}

RunConfig read_run_config(const ConfigSource& source,
                          std::span<const std::string_view> front_end_keys) {
  RunConfig c;
  c.model = source.get("model", "sync");
  lookup<kModels>(c.model, source.name("model"));
  const std::span<const Key> keys = keys_of(c.is_async());
  for (const Key& key : keys_of(!c.is_async())) {
    if (has_key(keys, key.name) || !source.has(key.name)) continue;
    throw ConfigError(
        source.name(key.name) + " does not apply to " + source.name("model") +
        "=" + c.model +
        (key.name == "adversary" ? " (use " + source.name("scheduler") + ")"
                                 : ""));
  }
  std::vector<std::string_view> known(front_end_keys.begin(),
                                      front_end_keys.end());
  for (const Key& key : keys) known.push_back(key.name);
  source.reject_unknown(known);

  for (const Key& key : keys) {
    if (key.text != nullptr) {
      c.*key.text = source.get(key.name, key.text_default);
      key.check(c.*key.text, source.name(key.name));
      continue;
    }
    const std::uint64_t dflt =
        key.derive != nullptr ? key.derive(c) : key.number_default;
    c.*key.number = key.narrow
                        ? source.u32(key.name, static_cast<std::uint32_t>(dflt))
                        : source.u64(key.name, dflt);
  }

  check_budget(c.n, c.t, c.is_async(), source);
  if (c.reps == 0) {
    throw ConfigError("invalid " + source.name("reps") +
                      " 0: a batch needs at least one repetition");
  }
  if (c.gst != 0 || c.delta != 0) {
    // Partial synchrony bounds the adversary's hold, not a timed link model.
    if (c.delay != "held") {
      throw ConfigError(source.name("gst") + "/" + source.name("delta") +
                        " require " + source.name("delay") +
                        " held (they bound the adversary, not a timed link "
                        "model)");
    }
    if (c.delta == 0) {
      throw ConfigError(source.name("gst") + " needs " + source.name("delta") +
                        " >= 1 (the post-GST bound)");
    }
    if (c.gst == kNever || c.delta == kNever) {
      throw ConfigError(source.name("gst") + "/" + source.name("delta") +
                        " must be below 2^64 - 1 (never)");
    }
  }
  return c;
}

obs::JsonValue canonical_json(const RunConfig& config) {
  obs::JsonValue out = obs::JsonValue::object();
  for (const Key& key : keys_of(config.is_async())) {
    if (key.text != nullptr) {
      out.set(std::string(key.name), config.*key.text);
    } else {
      out.set(std::string(key.name), obs::JsonValue(config.*key.number));
    }
  }
  return out;
}

// ---------------------------------------------------------------- plans

AdversaryFactory adversary_factory(std::string_view name,
                                   const std::string& shown) {
  return lookup<kAdversaries>(name, shown).value;
}

InputPattern input_pattern(std::string_view name, const std::string& shown) {
  return lookup<kPatterns>(name, shown);
}

RunPlan build_plan(const RunConfig& c, unsigned threads) {
  RunPlan plan;
  plan.is_async = c.is_async();
  if (plan.is_async) {
    plan.schedulers = lookup<kSchedulers>(c.scheduler, "scheduler").value();
    plan.delays = c.gst != 0 || c.delta != 0
                      ? gst_delay_factory(c.gst, c.delta)
                      : delay_factory(c.delay, "delay");
    plan.benor.retransmit_every = c.retransmit;
    AsyncRepeatSpec& spec = plan.aspec;
    spec.n = static_cast<std::uint32_t>(c.n);
    spec.pattern = input_pattern(c.pattern, "pattern");
    spec.reps = c.reps;
    spec.seed = c.seed;
    spec.threads = threads;
    spec.engine.t_budget = static_cast<std::uint32_t>(c.t);
    spec.engine.max_steps = c.max_steps;
    if (c.max_time != 0) spec.engine.max_time = c.max_time;
    return plan;
  }

  const auto t = static_cast<std::uint32_t>(c.t);
  plan.factory = lookup<kProtocols>(c.protocol, "protocol").value(t);
  plan.adversaries = adversary_factory(c.adversary, "adversary");
  const FaultSpec faults = parse_faults(c.faults, "faults");
  if (faults.family != FaultFamily::None) {
    plan.adversaries = [inner = std::move(plan.adversaries),
                        faults](std::uint64_t s) -> std::unique_ptr<Adversary> {
      if (faults.family == FaultFamily::Byz) {
        ByzantineOptions byz;
        byz.corrupt_rate = faults.rate;
        byz.seed = SeedSequence(s).stream(2);
        return std::make_unique<ByzantineAdversary>(byz, inner(s));
      }
      ChaosOptions chaos;
      chaos.drop_rate = faults.rate;
      chaos.seed = SeedSequence(s).stream(1);
      return std::make_unique<ChaosAdversary>(chaos, inner(s));
    };
  }

  RepeatSpec& spec = plan.spec;
  spec.n = static_cast<std::uint32_t>(c.n);
  spec.pattern = input_pattern(c.pattern, "pattern");
  spec.reps = c.reps;
  spec.seed = c.seed;
  spec.threads = threads;
  spec.engine.t_budget = t;
  spec.engine.max_rounds = static_cast<std::uint32_t>(c.max_rounds);
  spec.max_rep_retries = static_cast<std::uint32_t>(c.retries);
  spec.policy = lookup<kPolicies>(c.fail_policy, "fail_policy");
  if (faults.family == FaultFamily::Byz) {
    spec.engine.byzantine_budget = faults.budget;
  } else if (faults.family == FaultFamily::Omit) {
    spec.engine.omission_budget = faults.budget;
  }
  return plan;
}

}  // namespace synran
