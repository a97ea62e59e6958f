// The run-config vocabulary behind `synran run` and `synran serve`, kept
// once: the keys of each model with their types and defaults, the name
// tables (protocols, adversaries, patterns, fail policies, schedulers), the
// `faults` and `delay` grammars, the rules a config must obey, the canonical
// JSON the serve cache hashes, and the plan builder that turns a config
// into factories and a RepeatSpec or AsyncRepeatSpec.
//
// Front ends differ only in their ConfigSource. ArgvSource reads strict
// text from `--key value` flags, JsonSource reads a synran-req/1 `config`
// object, and each names a key in messages the way its users spell it
// (`--max-rounds`, `config.max_rounds`).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "async/benor.hpp"
#include "exec/async_batch.hpp"
#include "exec/batch.hpp"
#include "obs/json.hpp"

namespace synran {

/// A run config the engines cannot run, or cannot read: an unknown key or
/// name, a malformed or out-of-range value, or a budget the model forbids.
/// The CLI exits 2 on it; serve answers bad_request.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Where a config's keys come from. Keys are spelled as in JSON
/// (`max_rounds`); `name` gives the spelling messages use.
class ConfigSource {
 public:
  virtual ~ConfigSource() = default;

  virtual bool has(std::string_view key) const = 0;
  virtual std::string name(std::string_view key) const = 0;
  /// A present key's value; throws ConfigError when it has the wrong type.
  virtual std::uint64_t integer(std::string_view key) const = 0;
  virtual std::string text(std::string_view key) const = 0;
  /// Throws ConfigError naming the first present key `known` lacks.
  virtual void reject_unknown(
      std::span<const std::string_view> known) const = 0;

  /// The key's value, or `dflt` when it is absent.
  std::string get(std::string_view key, std::string_view dflt) const;
  std::uint64_t u64(std::string_view key, std::uint64_t dflt) const;
  /// As u64, and throws ConfigError above 2^32 - 1.
  std::uint32_t u32(std::string_view key, std::uint32_t dflt) const;
};

/// `--key value` and `--key=value` flags. Key `max_rounds` is read from
/// `--max-rounds`, so an underscored flag is an unknown one.
class ArgvSource final : public ConfigSource {
 public:
  /// Reads argv[first, argc). Flags in `switches` take no value and read
  /// back as "1".
  ArgvSource(int argc, const char* const* argv, int first,
             const std::set<std::string, std::less<>>& switches = {});

  bool has(std::string_view key) const override;
  std::string name(std::string_view key) const override;
  std::uint64_t integer(std::string_view key) const override;
  std::string text(std::string_view key) const override;
  void reject_unknown(std::span<const std::string_view> known) const override;

 private:
  std::map<std::string, std::string, std::less<>> flags_;
};

/// The members of a JSON object, which must outlive the source.
class JsonSource final : public ConfigSource {
 public:
  explicit JsonSource(const obs::JsonValue& object) : object_(object) {}

  bool has(std::string_view key) const override;
  std::string name(std::string_view key) const override;
  std::uint64_t integer(std::string_view key) const override;
  std::string text(std::string_view key) const override;
  void reject_unknown(std::span<const std::string_view> known) const override;

 private:
  const obs::JsonValue& object_;
};

/// One validated run. Every key of its model is set (defaults applied) and
/// the other model's keys hold their zero values. Names and the `faults`
/// and `delay` strings are kept as written; 32-bit keys (n, t, max_rounds,
/// retries) are range-checked on read.
struct RunConfig {
  std::string model;
  std::string protocol;
  std::string adversary;  ///< sync
  std::string faults;     ///< sync: "", omit:RATE[,BUDGET], byz:RATE[,BUDGET]
  std::string scheduler;  ///< async
  std::string delay;      ///< async: held, fixed:D or uniform:LO,HI
  std::uint64_t gst = 0;  ///< async
  std::uint64_t delta = 0;
  std::uint64_t retransmit = 0;
  std::uint64_t n = 0;
  std::uint64_t t = 0;
  std::string pattern;
  std::uint64_t reps = 0;
  std::uint64_t seed = 0;
  std::uint64_t max_rounds = 0;  ///< sync
  std::string fail_policy;       ///< sync
  std::uint64_t retries = 0;     ///< sync
  std::uint64_t max_steps = 0;   ///< async
  std::uint64_t max_time = 0;    ///< async

  bool is_async() const { return model == "async"; }
  bool operator==(const RunConfig&) const = default;
};

/// Reads and checks a run config: the model's keys only (keys of the other
/// model, and unknown ones, are rejected), n >= 1, t <= n (sync) or
/// 2t < n (async), reps >= 1, a fault rate in [0, 1], LO <= HI, and
/// gst/delta only with a held delay and delta >= 1. Delay bounds, gst and
/// delta stay below kNever, which the async engine reads as "never".
/// `front_end_keys` are keys the caller reads itself, which are not unknown.
RunConfig read_run_config(
    const ConfigSource& source,
    std::span<const std::string_view> front_end_keys = {});

/// Every key of the config's model, in its fixed order, as compact JSON
/// values: the bytes serve's result cache hashes.
obs::JsonValue canonical_json(const RunConfig& config);

/// The n/t rule: n >= 1, and t <= n on the sync engine, 2t < n for Ben-Or
/// on the async one. Messages name n and t through `source`.
void check_budget(std::uint64_t n, std::uint64_t t, bool async,
                  const ConfigSource& source);

enum class FaultFamily : std::uint8_t { None, Omit, Byz };

/// A parsed `faults` string. Without a budget the directives are
/// effectively unlimited, so a bare rate studies the pure rate regime.
struct FaultSpec {
  FaultFamily family = FaultFamily::None;
  double rate = 0.0;
  std::uint32_t budget = std::numeric_limits<std::uint32_t>::max();
};

/// The `faults` grammar: "" (off), omit:RATE[,BUDGET] (seeded i.i.d. link
/// drops) or byz:RATE[,BUDGET] (seeded equivocating value corruption),
/// with RATE a finite number in [0, 1].
FaultSpec parse_faults(const std::string& text, const std::string& shown);

/// The crash adversary and input pattern named `name`.
AdversaryFactory adversary_factory(std::string_view name,
                                   const std::string& shown);
InputPattern input_pattern(std::string_view name, const std::string& shown);

/// One executable batch. Exactly one of the sync and async halves is live,
/// selected by `is_async`.
struct RunPlan {
  bool is_async = false;

  // Sync (is_async == false).
  std::unique_ptr<ProcessFactory> factory;
  AdversaryFactory adversaries;
  RepeatSpec spec;

  // Async (is_async == true).
  BenOrOptions benor;
  AsyncSchedulerFactory schedulers;
  AsyncDelayFactory delays;
  AsyncRepeatSpec aspec;
};

/// The factories and spec for a config from read_run_config. Faults layer
/// seeded link drops (ChaosAdversary, seed stream 1) or corruption
/// (ByzantineAdversary, stream 2) over the crash adversary, so the fault
/// coins never perturb its randomness. `threads` is an execution resource,
/// never part of the config.
RunPlan build_plan(const RunConfig& config, unsigned threads);

}  // namespace synran
